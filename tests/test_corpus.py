"""Group spec parsing, builders, the builtin corpus, and JSONL records."""

from math import gcd

import pytest

import oracle
from conjlab.arith import divisibility_digraph, weak_components
from conjlab.corpus import (
    GroupSpec,
    ScanRecord,
    build,
    builtin_corpus,
    parse_spec,
    record_to_line,
)
from conjlab.errors import CapExceeded, InvalidSpec
from conjlab.invariants import class_size_set
from conjlab.theorem import verify_main_theorem


def test_parse_round_trip():
    for text in [
        "cyclic:12",
        "dihedral:6",
        "symmetric:4",
        "alternating:5",
        "heisenberg:3",
        "frobenius:5,4",
        "direct:frobenius:5,4+heisenberg:3",
        "direct:alternating:5+cyclic:7",
        "file:some/dir/g.grp",
    ]:
        spec = parse_spec(text)
        assert spec.name == text
        assert parse_spec(spec.name) == spec


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nonsense:3",
        "cyclic:0",
        "cyclic:x",
        "cyclic",
        "dihedral:2",
        "heisenberg:4",
        "heisenberg:9",
        "frobenius:6,2",
        "frobenius:7,4",
        "frobenius:7,1",
        "frobenius:5",
        "direct:cyclic:3",
        "direct:cyclic:3+direct:cyclic:5+cyclic:7",
        "file:",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(InvalidSpec):
        parse_spec(text)


def test_frobenius_composite_q_allowed():
    spec = parse_spec("frobenius:7,6")
    assert build(spec).order == 42


def test_builders_match_oracle():
    cases = [
        ("cyclic:6", oracle.cyclic_gens(6)),
        ("dihedral:5", oracle.dihedral_gens(5)),
        ("symmetric:4", oracle.symmetric_gens(4)),
        ("alternating:4", oracle.alternating_gens(4)),
        ("heisenberg:3", oracle.heisenberg_gens(3)),
        ("frobenius:7,3", oracle.frobenius_gens(7, 3)),
    ]
    for text, gens in cases:
        g = build(parse_spec(text))
        want = oracle.closure(gens)
        assert g.order == len(want), text
        assert sorted(p.images for p in g.elements()) == want, text


def test_build_cyclic_one_and_alternating_small():
    assert build(parse_spec("cyclic:1")).order == 1
    assert build(parse_spec("alternating:2")).order == 1
    assert build(parse_spec("alternating:3")).order == 3


def test_build_direct_name_and_order():
    g = build(parse_spec("direct:symmetric:3+cyclic:4"))
    assert g.order == 24
    assert g.name == "direct:symmetric:3+cyclic:4"


@pytest.mark.parametrize(
    "text",
    [
        "cyclic:7",
        "dihedral:9",
        "symmetric:2",
        "symmetric:5",
        "alternating:4",
        "alternating:6",
        "heisenberg:5",
        "frobenius:13,4",
        "direct:symmetric:4+frobenius:7,3",
    ],
)
def test_cap_refusal_is_exact(text):
    # orders computed from the parameters must agree with the built tables
    spec = parse_spec(text)
    order = build(spec).order
    assert build(spec, cap=order).order == order
    with pytest.raises(CapExceeded):
        build(spec, cap=order - 1)


def test_build_file_spec(tmp_path):
    path = tmp_path / "d4.grp"
    path.write_text("degree 4\nname square\n(0 1 2 3)\n(1 3)\n")
    g = build(parse_spec(f"file:{path}"))
    assert g.order == 8 and g.name == "square"


def test_builtin_corpus_shape():
    corpus = builtin_corpus()
    names = [s.name for s in corpus]
    assert len(corpus) == 79
    assert len(set(names)) == 79
    for want in [
        "cyclic:1",
        "cyclic:40",
        "dihedral:3",
        "dihedral:20",
        "symmetric:5",
        "alternating:5",
        "heisenberg:7",
        "frobenius:13,3",
        "direct:frobenius:5,4+heisenberg:3",
        "direct:frobenius:5,4+heisenberg:7",
        "direct:alternating:5+heisenberg:7",
        "direct:frobenius:7,3+cyclic:2",
        "direct:alternating:5+cyclic:11",
    ]:
        assert want in names, want
    for spec in corpus:
        assert parse_spec(spec.name) == spec


def test_builtin_corpus_first_factor_invariants():
    # the product families pair a nonabelian first factor with a partner
    # whose order is prime to every nontrivial class size of the factor
    firsts = {
        "frobenius:5,4": frozenset({1, 4, 5}),
        "frobenius:7,3": frozenset({1, 3, 7}),
        "alternating:5": frozenset({1, 12, 15, 20}),
    }
    for text, sizes in firsts.items():
        g = build(parse_spec(text))
        assert class_size_set(g).sizes == sizes, text
        core = sizes - {1}
        assert len(weak_components(divisibility_digraph(core))) >= 2, text


def test_builtin_corpus_product_partners_are_coprime():
    firsts = {
        "frobenius:5,4": (20, frozenset({1, 4, 5})),
        "frobenius:7,3": (21, frozenset({1, 3, 7})),
        "alternating:5": (60, frozenset({1, 12, 15, 20})),
    }
    for spec in builtin_corpus():
        if spec.kind != "direct":
            continue
        first = spec.parts[0]
        rest = spec.parts[1]
        order, sizes = firsts[first.name]
        if rest.kind == "heisenberg":
            p = rest.params[0]
            assert all(gcd(p, a) == 1 for a in sizes - {1}), spec.name
        else:
            assert rest.kind == "cyclic"
            q = rest.params[0]
            assert gcd(q, order) == 1, spec.name


def test_scan_record_round_trip():
    g = build(parse_spec("frobenius:5,4"))
    report = verify_main_theorem(g, lemma_seed=1, lemma_samples=50)
    rec = ScanRecord(spec="frobenius:5,4", report=report, timestamp="t0")
    line = record_to_line(rec)
    assert "\n" not in line
