"""Acceptance gate: eleven pinned criteria, one test per criterion.

Frozen expected values are spelled out inline.  Wall-clock bounds are
measured on freshly built engine objects so no earlier test can warm a
cache into a passing time.  conftest prints the one-line verdict per
criterion after the run.
"""

import random
import time

import numpy as np
import pytest

import oracle
from conjlab import (
    KIND_UNIFORM_ACTIVE,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_VERIFIED,
    Perm,
    build,
    builtin_corpus,
    builtin_witnesses,
    check_coprime_action_split,
    check_noncentral_misses_class,
    class_size_set,
    classify_p_parts,
    direct_product,
    divisibility_digraph,
    find_hypothesis_factorizations,
    group_from_generators,
    parse_spec,
    prime_divisors,
    run_lemma_suite,
    set_product,
    sylow_center_orbit,
    sylow_commute_criterion,
    verify_main_theorem,
    weak_components,
)
from conjlab.cli import main as cli_main

# the three builtin products whose class-size sets factor; every other
# corpus group must come back HypothesisNotMet
POSITIVE_SPECS = frozenset(
    {
        "direct:frobenius:5,4+heisenberg:3",
        "direct:frobenius:5,4+heisenberg:7",
        "direct:alternating:5+heisenberg:7",
    }
)

# every (group, prime) in the corpus whose class-size p-parts are uniform
# with an active p-element; derived once, frozen here.  The dihedral rows
# are the even-rotation cases: class-size 2-parts {1,2} with reflections
# of even index, complement C_{n/2} odd inside the rotation subgroup.
ACTIVE_PAIRS = frozenset(
    {
        ("dihedral:4", 2),
        ("dihedral:12", 2),
        ("dihedral:20", 2),
        ("heisenberg:3", 3),
        ("heisenberg:7", 7),
        ("direct:frobenius:5,4+heisenberg:3", 3),
        ("direct:frobenius:5,4+heisenberg:7", 7),
        ("direct:alternating:5+heisenberg:7", 7),
    }
)

# the four lemma checks that constrain classes and centralizers across a
# normal subgroup and its quotient
QUOTIENT_LAW_CHECKS = (
    "class_size_divisibility",
    "coprime_centralizer_product",
    "coprime_quotient_centralizer",
    "centralizer_image_in_quotient",
)


@pytest.fixture(scope="session")
def corpus():
    # one shared build of the whole builtin corpus, keyed by spec string;
    # criteria with pinned wall-clock bounds build their own cold copies
    return {str(spec): build(spec) for spec in builtin_corpus()}


def test_c01_class_size_sets_match_oracle():
    cases = [
        ("s3", oracle.symmetric_gens(3), {1, 2, 3}),
        ("s4", oracle.symmetric_gens(4), {1, 3, 6, 8}),
        ("a5", oracle.alternating_gens(5), {1, 12, 15, 20}),
        ("h3", oracle.heisenberg_gens(3), {1, 3}),
        ("f54", oracle.frobenius_gens(5, 4), {1, 4, 5}),
    ]
    for name, gens, frozen in cases:
        start = time.perf_counter()
        brute = set(oracle.class_sizes(oracle.closure(gens)))
        g = group_from_generators(len(gens[0]), [Perm(t) for t in gens], name=name)
        engine = set(class_size_set(g).sizes)
        elapsed = time.perf_counter() - start
        assert engine == brute == frozen, name
        assert elapsed < 1.0, (name, elapsed)


def test_c02_product_class_sizes_multiply(corpus):
    start = time.perf_counter()
    names = sorted(corpus)
    eligible = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i:]
        if corpus[a].order * corpus[b].order <= 25_000
    ]
    pairs = random.Random(0).sample(eligible, 40)
    for na, nb in pairs:
        a, b = corpus[na], corpus[nb]
        want = set_product(class_size_set(a).sizes, class_size_set(b).sizes).values
        got = class_size_set(direct_product(a, b)).sizes
        assert got == want, (na, nb)
    assert time.perf_counter() - start < 60.0


def test_c03_decomposition_verdicts_corpus_wide(corpus):
    reports = {spec: verify_main_theorem(g) for spec, g in sorted(corpus.items())}
    bad = [s for s, r in reports.items() if r.verdict == VERDICT_COUNTEREXAMPLE]
    assert not bad
    positives = {s for s, r in reports.items() if r.verdict == VERDICT_VERIFIED}
    assert positives == POSITIVE_SPECS
    for spec in sorted(positives):
        report = reports[spec]
        assert report.factorizations and report.decompositions
        for dec in report.decompositions:
            # the found pair carries exactly the factorization's size sets
            assert set(dec.a_class_sizes) == set(dec.omega)
            assert set(dec.b_class_sizes) == {1, dec.n}
            assert len(prime_divisors(dec.n)) == 1
            assert dec.a_order * dec.b_order == report.group_order

    # pinned wall-clock bounds, cold instances
    for spec, bound in [
        ("direct:frobenius:5,4+heisenberg:3", 10.0),
        ("direct:alternating:5+heisenberg:7", 600.0),
    ]:
        g = build(parse_spec(spec))
        start = time.perf_counter()
        report = verify_main_theorem(g)
        elapsed = time.perf_counter() - start
        assert report.verdict == VERDICT_VERIFIED
        assert elapsed < bound, (spec, elapsed)


def test_c04_negative_control_and_component_count(corpus):
    report = verify_main_theorem(corpus["symmetric:4"])
    assert report.verdict == VERDICT_HYPOTHESIS_NOT_MET
    assert report.n_of_g.sizes == frozenset({1, 3, 6, 8})
    assert find_hypothesis_factorizations(frozenset({1, 3, 6, 8})) == []
    comps = weak_components(divisibility_digraph(frozenset({3, 6, 8})))
    assert len(comps) == 2


def test_c05_active_primes_force_complement_and_central_centers(corpus):
    seen = set()
    for spec, g in sorted(corpus.items()):
        for p in sorted(prime_divisors(g.order)):
            if classify_p_parts(g, p).kind != KIND_UNIFORM_ACTIVE:
                continue
            seen.add((spec, p))
            assert g.has_normal_p_complement(p), (spec, p)
            central = g.center().mask()
            for _, cen in sylow_center_orbit(g, p):
                assert central[cen].all(), (spec, p)
    assert seen == ACTIVE_PAIRS


def test_c06_normal_and_quotient_centralizer_laws(corpus):
    small = {spec: g for spec, g in corpus.items() if g.order <= 200}
    assert len(small) == 71
    for spec, g in sorted(small.items()):
        results = run_lemma_suite(
            g, seed=0, sample_budget=10_000, names=QUOTIENT_LAW_CHECKS
        )
        bad = {n: r for n, r in results.items() if r.status != "pass"}
        assert not bad, (spec, bad)


def test_c07_noncentral_elements_miss_a_class(corpus):
    for spec, g in sorted(corpus.items()):
        if g.order <= 200:
            assert check_noncentral_misses_class(g), spec


def test_c08_commuting_sylow_pairs_match_class_criterion(corpus):
    for spec, g in sorted(corpus.items()):
        if g.order > 200:
            continue
        primes = sorted(prime_divisors(g.order))
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                class_side, subgroup_side = sylow_commute_criterion(g, p, q)
                assert class_side == subgroup_side, (spec, p, q)


def test_c09_coprime_action_witnesses_split():
    witnesses = builtin_witnesses()
    assert len(witnesses) >= 20
    names = [w.name for w in witnesses]
    assert len(set(names)) == len(names)
    # order-3 actor on the Klein four-group, plus odd-order inversions
    assert "triangle-c2c2" in names
    assert sum(1 for n in names if n.startswith("inversion-c")) >= 5
    for w in witnesses:
        assert check_coprime_action_split(w), w.name


def test_c10_scan_determinism_across_jobs(tmp_path):
    bodies = []
    for jobs in ("1", "8"):
        out = tmp_path / f"scan-jobs{jobs}.jsonl"
        code = cli_main(
            [
                "scan",
                "--corpus",
                "builtin",
                "--out",
                str(out),
                "--jobs",
                jobs,
                "--seed",
                "5",
                "--lemma-samples",
                "300",
            ]
        )
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    assert bodies[0].count(b"\n") == 79


def test_c11_orbit_stabilizer_identity(corpus):
    for spec, g in sorted(corpus.items()):
        if g.order > 2000:
            continue
        size_of = np.zeros(g.order, dtype=np.int64)
        for idx in oracle.class_members(g):
            size_of[idx] = len(idx)
        for i in range(g.order):
            stab = int(g.centralizer_mask_idx(i).sum())
            assert stab * int(size_of[i]) == g.order, (spec, i)
