"""Verdict pipeline, lemma suite, and coprime-action witnesses."""

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

import oracle
from conjlab import theorem
from conjlab.corpus import build, parse_spec
from conjlab.errors import BudgetExceeded, Inapplicable, NotAbelian, NotCoprime
from conjlab.group import direct_product, group_from_generators, is_internal_direct_product
from conjlab.perm import Perm
from conjlab.theorem import (
    LEMMA_NAMES,
    LemmaResult,
    TheoremReport,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_VERIFIED,
    builtin_witnesses,
    check_coprime_action_split,
    check_normal_p_complement,
    check_noncentral_misses_class,
    check_sylow_center_in_center,
    coprime_action_witness,
    run_lemma_suite,
    verify_main_theorem,
)


def make(gens, name="g"):
    return group_from_generators(len(gens[0]), [Perm(t) for t in gens], name=name)


def positive_example():
    f54 = make(oracle.frobenius_gens(5, 4), "f54")
    h3 = make(oracle.heisenberg_gens(3), "h3")
    return direct_product(f54, h3, name="f54 x h3")


def test_verdict_strings_pinned():
    assert VERDICT_HYPOTHESIS_NOT_MET == "HypothesisNotMet"
    assert VERDICT_VERIFIED == "VerifiedDecomposition"
    assert VERDICT_COUNTEREXAMPLE == "COUNTEREXAMPLE"


def test_verify_positive_rediscovers_decomposition():
    g = positive_example()
    report = verify_main_theorem(g)
    assert report.verdict == VERDICT_VERIFIED
    assert sorted(report.n_of_g.sizes) == [1, 3, 4, 5, 12, 15]
    assert [(f.n, sorted(f.omega)) for f in report.factorizations] == [(3, [1, 4, 5])]
    (dec,) = report.decompositions
    assert (dec.a_order, dec.b_order, dec.n) == (20, 27, 3)
    assert sorted(dec.a_class_sizes) == [1, 4, 5]
    assert sorted(dec.b_class_sizes) == [1, 3]


def test_verify_decomposition_reassertable_from_report():
    g = positive_example()
    report = verify_main_theorem(g)
    (dec,) = report.decompositions
    a = g.subgroup_generated(
        [Perm.from_cycle_string(s, g.degree) for s in dec.a_generators]
    )
    b = g.subgroup_generated(
        [Perm.from_cycle_string(s, g.degree) for s in dec.b_generators]
    )
    assert a.order == dec.a_order and b.order == dec.b_order
    assert is_internal_direct_product(g, a, b)


def test_verify_all_pairs_single_decomposition():
    g = positive_example()
    report = verify_main_theorem(g, all_pairs=True)
    assert len(report.decompositions) == 1  # both factors sit in unique normals


def test_verify_negative_controls():
    s4 = make(oracle.symmetric_gens(4), "s4")
    assert verify_main_theorem(s4).verdict == VERDICT_HYPOTHESIS_NOT_MET
    c9 = make(oracle.cyclic_gens(9), "c9")
    assert verify_main_theorem(c9).verdict == VERDICT_HYPOTHESIS_NOT_MET
    triv = make([(0,)], "point")
    assert verify_main_theorem(triv).verdict == VERDICT_HYPOTHESIS_NOT_MET


def test_verify_budget_withholds_verdict():
    g = positive_example()
    # the message says how far the search got
    with pytest.raises(BudgetExceeded, match="; 6 of 54 classes closed, 5 normal subgroups found$"):
        verify_main_theorem(g, normal_budget=10)


def test_report_round_trip_and_field_names():
    g = positive_example()
    report = verify_main_theorem(g, lemma_seed=3, lemma_samples=50)
    d = report.to_dict()
    assert set(d) == {
        "group_name",
        "group_order",
        "n_of_g",
        "factorizations",
        "decompositions",
        "verdict",
        "lemma_results",
        "timings",
    }
    text = json.dumps(d, sort_keys=True)
    back = TheoremReport.from_dict(json.loads(text))
    assert back.to_dict() == d


def test_report_timings_are_integer_ms():
    report = verify_main_theorem(positive_example(), lemma_seed=0, lemma_samples=20)
    assert set(report.timings) == {
        "classes",
        "factorize",
        "normal_subgroups",
        "decomposition_search",
        "lemma_suite",
    }
    assert all(isinstance(v, int) and v >= 0 for v in report.timings.values())


def test_lemma_suite_deterministic():
    g = positive_example()
    one = run_lemma_suite(g, seed=11, sample_budget=200)
    two = run_lemma_suite(g, seed=11, sample_budget=200)
    assert one == two
    assert tuple(one) == LEMMA_NAMES


def test_lemma_suite_all_pass_small():
    for gens, name in [
        (oracle.symmetric_gens(3), "s3"),
        (oracle.symmetric_gens(4), "s4"),
        (oracle.dihedral_gens(6), "d6"),
        (oracle.frobenius_gens(5, 4), "f54"),
        (oracle.cyclic_gens(8), "c8"),
        (oracle.heisenberg_gens(3), "h3"),
    ]:
        results = run_lemma_suite(make(gens, name), seed=0)
        assert all(r.status == "pass" for r in results.values()), (
            name,
            {k: r for k, r in results.items() if r.status != "pass"},
        )


def test_lemma_suite_trivial_group_vacuous():
    results = run_lemma_suite(make([(0,)], "point"), seed=0)
    assert all(r.status == "pass" for r in results.values())


def test_lemma_result_round_trip():
    r = LemmaResult("pass", 42, "sampled", "ok")
    assert LemmaResult.from_dict(r.to_dict()) == r


def test_lemma_suite_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_lemma_suite(make([(0,)], "point"), seed=0, sample_budget=0)


def test_lemma_suite_subset_matches_full_run():
    g = make(oracle.symmetric_gens(4), "s4")
    picked = ("class_size_divisibility", "coprime_centralizer_product")
    full = run_lemma_suite(g, seed=7, sample_budget=200)
    part = run_lemma_suite(g, seed=7, sample_budget=200, names=picked)
    assert tuple(part) == picked
    assert all(part[n] == full[n] for n in picked)
    with pytest.raises(ValueError):
        run_lemma_suite(g, seed=7, names=("not_a_check",))


# sha256 prefixes of each lemma's randrange calls, arguments and results in
# order, on the order-540 product at sample_budget=20 and seed 0, where every
# lemma that samples takes its sampled path; recorded from the per-lemma
# sampling loops before they shared one driver
RECORDED_DRAWS = {
    "class_size_divisibility": "605c652d9808d377",
    "series_class_divisibility": "226d061914cdb40f",
    "coprime_centralizer_product": "896a760160546921",
    "coprime_quotient_centralizer": "cdd42ee242f65614",
    "centralizer_image_in_quotient": "747d046b86bd59bb",
    "noncentral_misses_class": "77dada2eec7f2bc8",
    "split_sylow_centralizer": "4cf89dba0a176f9c",
}


def test_lemma_draws_match_recorded(monkeypatch):
    # a moved draw often leaves every LemmaResult unchanged, so compare the draws
    logs: dict = {}

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.log = logs.setdefault(seed, [])

        def randrange(self, *args):
            value = super().randrange(*args)
            self.log.append((args, value))
            return value

    monkeypatch.setattr(theorem, "random", SimpleNamespace(Random=Recording))
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    results = run_lemma_suite(g, seed=0, sample_budget=20)
    digests = {
        name: hashlib.sha256(repr(logs[f"0:{name}"]).encode()).hexdigest()[:16]
        for name in LEMMA_NAMES
        if logs[f"0:{name}"]
    }
    assert digests == RECORDED_DRAWS
    assert {n for n, r in results.items() if r.mode == "sampled"} == set(RECORDED_DRAWS)


# ----- gated single-lemma checks ---------------------------------------------------


def test_normal_p_complement_check():
    h3 = make(oracle.heisenberg_gens(3), "h3")
    assert check_normal_p_complement(h3, 3)  # complement is the trivial subgroup
    c6 = make(oracle.cyclic_gens(6), "c6")
    with pytest.raises(Inapplicable):
        check_normal_p_complement(c6, 2)  # no 2-element of positive 2-index


def test_sylow_center_check():
    h3 = make(oracle.heisenberg_gens(3), "h3")
    assert check_sylow_center_in_center(h3, 3)
    g = positive_example()
    assert check_sylow_center_in_center(g, 3)
    with pytest.raises(Inapplicable):
        check_sylow_center_in_center(make(oracle.cyclic_gens(6), "c6"), 3)


def test_noncentral_misses_class():
    assert check_noncentral_misses_class(make(oracle.symmetric_gens(3), "s3"))
    assert check_noncentral_misses_class(make(oracle.cyclic_gens(7), "c7"))
    assert check_noncentral_misses_class(make(oracle.alternating_gens(5), "a5"))


# ----- coprime-action witnesses ----------------------------------------------------


def test_witness_triangle_base():
    # c2 x c2 acted on by an order-3 cycle of the three involutions
    w = next(w for w in builtin_witnesses() if w.name == "triangle-c2c2")
    assert w.base.order == 4
    assert w.fixed.order == 1
    assert w.commutator.order == 4
    assert w.actor_order == 3
    assert check_coprime_action_split(w)


def test_witness_inversion_c5():
    w = next(w for w in builtin_witnesses() if w.name == "inversion-c5")
    assert w.base.order == 5 and w.actor_order == 2
    assert w.fixed.order == 1 and w.commutator.order == 5
    assert check_coprime_action_split(w)


def test_builtin_witnesses_all_split():
    witnesses = builtin_witnesses()
    assert len(witnesses) >= 20
    names = [w.name for w in witnesses]
    assert len(set(names)) == len(names)
    assert "triangle-c2c2" in names
    odd_inversions = [n for n in names if n.startswith("inversion-c")]
    assert len(odd_inversions) >= 5
    for w in witnesses:
        assert check_coprime_action_split(w), w.name
        assert w.fixed.order * w.commutator.order == w.base.order, w.name


def test_witness_rejects_nonabelian_base():
    s3 = make(oracle.symmetric_gens(3), "s3")
    ident = Perm.identity(6)
    with pytest.raises(NotAbelian):
        coprime_action_witness(s3, [ident], "bad")


def test_witness_rejects_shared_prime():
    # swapping the two factors of c2 x c2 is an order-2 automorphism: 2 | |base|
    base = make([(1, 0, 2, 3), (0, 1, 3, 2)], "c2 x c2")
    elements = [p.images for p in base.elements()]
    idx = {imgs: i for i, imgs in enumerate(elements)}
    images = []
    for imgs in elements:
        a = imgs[:2]
        b = tuple(v - 2 for v in imgs[2:])
        flipped = b + tuple(v + 2 for v in a)
        images.append(idx[flipped])
    with pytest.raises(NotCoprime):
        coprime_action_witness(base, [Perm(images)], "swap")
