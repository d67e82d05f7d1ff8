"""Verdict pipeline, lemma suite, and coprime-action witnesses."""

import gc
import hashlib
import itertools
import json
import random
import weakref
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from conjlab import group as group_module
from conjlab import theorem
from conjlab.arith import find_hypothesis_factorizations
from conjlab.corpus import build, builtin_corpus, parse_spec
from conjlab.errors import BudgetExceeded, NotAbelian, NotCoprime
from conjlab.group import (
    Group,
    Subgroup,
    direct_product,
    group_from_generators,
    is_internal_direct_product,
)
from conjlab.invariants import _class_size_per_element, centralizer_index, class_size_set
from conjlab.perm import Perm
from conjlab.theorem import (
    LEMMA_NAMES,
    Decomposition,
    LemmaResult,
    MODE_EXHAUSTIVE,
    STATUS_PASS,
    STATUS_SKIPPED,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HYPOTHESIS_NOT_MET,
    VERDICT_VERIFIED,
    builtin_witnesses,
    check_coprime_action_split,
    check_noncentral_misses_class,
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


def _decompositions_by_every_pair(g, all_pairs):
    """The decomposition search as it ran before complements were paired:
    every (b, a) pair of normal subgroups, each class-size set read off a
    fresh subgroup table."""
    normals = g.normal_subgroups()
    memo = {}

    def sizes(s):
        key = s.indices.tobytes()
        if key not in memo:
            memo[key] = class_size_set(s.as_group()).sizes
        return memo[key]

    out = []
    for fac in find_hypothesis_factorizations(class_size_set(g).sizes):
        found = []
        for b in normals:
            if sizes(b) != {1, fac.n}:
                continue
            for a in normals:
                if a.order * b.order != g.order or sizes(a) != fac.omega:
                    continue
                if not is_internal_direct_product(g, a, b):
                    continue
                found.append(
                    Decomposition(
                        omega=fac.omega,
                        n=fac.n,
                        a_order=a.order,
                        b_order=b.order,
                        a_class_sizes=tuple(sorted(sizes(a))),
                        b_class_sizes=tuple(sorted(sizes(b))),
                        a_generators=tuple(p.cycle_string() for p in a.generators()),
                        b_generators=tuple(p.cycle_string() for p in b.generators()),
                    )
                )
                if not all_pairs:
                    break
            if found and not all_pairs:
                break
        out.extend(found)
    return out


# the builtin groups with a hypothesis factorization, each realized once
POSITIVE_PRODUCTS = [
    "direct:alternating:5+heisenberg:7",
    "direct:frobenius:5,4+heisenberg:3",
    "direct:frobenius:5,4+heisenberg:7",
]
# products with more than one realization: 3 and 28 of them
SEVERAL_REALIZATIONS = [
    "direct:frobenius:5,4+heisenberg:3+cyclic:2",
    "direct:frobenius:5,4+heisenberg:3+cyclic:3",
]


@pytest.mark.parametrize("all_pairs", [False, True], ids=["first", "all-pairs"])
@pytest.mark.parametrize("spec", [s.name for s in builtin_corpus()] + SEVERAL_REALIZATIONS)
def test_decomposition_search_matches_every_pair_reference(spec, all_pairs):
    g = build(parse_spec(spec))
    report = verify_main_theorem(g, all_pairs=all_pairs)
    if not report.factorizations:
        assert spec not in POSITIVE_PRODUCTS + SEVERAL_REALIZATIONS
        assert report.decompositions == ()
        return
    assert spec in POSITIVE_PRODUCTS + SEVERAL_REALIZATIONS
    assert list(report.decompositions) == _decompositions_by_every_pair(g, all_pairs)
    if all_pairs:
        want = {SEVERAL_REALIZATIONS[0]: 3, SEVERAL_REALIZATIONS[1]: 28}.get(spec, 1)
        assert len(report.decompositions) == want


@pytest.mark.parametrize("spec", POSITIVE_PRODUCTS)
def test_decomposition_search_builds_no_subgroup_table(spec, monkeypatch):
    # each factor's class sizes are read off G's class table, where every pair
    # of normals once made 10, 24 and 11 subgroup tables
    g = build(parse_spec(spec))
    g.normal_subgroups()
    tables = []
    real = Group.__init__

    def spy(self, rows, *args, **kwargs):
        tables.append(len(rows))
        real(self, rows, *args, **kwargs)

    monkeypatch.setattr(Group, "__init__", spy)
    (dec,) = verify_main_theorem(g).decompositions
    assert tables == []
    # the spy sees a table that is built
    g.center().as_group()
    assert tables == [g.center().order]


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


def test_lemma_suite_rejects_bad_budget():
    with pytest.raises(ValueError):
        run_lemma_suite(make([(0,)], "point"), seed=0, sample_budget=0)


def test_lemma_suite_budget_stop_skips_the_lattice_lemmas():
    # a 3-node budget stops the normal-subgroup search before any class closes
    results = run_lemma_suite(build(parse_spec("symmetric:5")), normal_budget=3)
    lattice = {
        "class_size_divisibility",
        "series_class_divisibility",
        "coprime_quotient_centralizer",
        "centralizer_image_in_quotient",
        "single_nonabelian_factor",
        "split_sylow_centralizer",
    }
    detail = (
        "normal_subgroups(symmetric:5): budget of 3 nodes exhausted; "
        "0 of 6 classes closed, 1 normal subgroups found"
    )
    for name, res in results.items():
        if name in lattice:
            assert res == LemmaResult(STATUS_SKIPPED, 0, MODE_EXHAUSTIVE, detail), name
        else:
            assert res.status == STATUS_PASS, name
    assert len(results) == 12


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


ORDER_540 = "direct:frobenius:5,4+heisenberg:3"

# sha256 prefixes of the whole suite's results at seed 0, as sorted JSON;
# 20 draws takes every sampled path on the order-540 product and 10000 the
# exhaustive one on most; recorded before the lemma checks shared one checker
RECORDED_SUITES = {
    (ORDER_540, 20): "aaec00e7457132b1",
    (ORDER_540, 10000): "09792f712b232ff8",
    ("symmetric:5", 20): "37f0e597a398f840",
    ("symmetric:5", 10000): "87f5ba85821a05c3",
    ("direct:alternating:5+cyclic:11", 20): "71fb7b8676506d97",
    ("direct:alternating:5+cyclic:11", 10000): "6a939e10e2f04ce1",
    ("heisenberg:5", 20): "202aebed0ab78cf6",
    ("heisenberg:5", 10000): "de9c1c0af93a63bc",
}


@pytest.mark.parametrize("spec,budget", sorted(RECORDED_SUITES))
def test_lemma_suite_matches_recorded(spec, budget):
    results = run_lemma_suite(build(parse_spec(spec)), seed=0, sample_budget=budget)
    text = json.dumps({n: r.to_dict() for n, r in results.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == RECORDED_SUITES[spec, budget]


def _drop_own_bit(original):
    # x no longer centralizes itself, so C(xy) != C(x) & C(y) for x, y != 1
    def patched(self, i):
        mask = original(self, i).copy()
        mask[i] = False
        return mask

    return patched


def _label_by_next_coset(original):
    # each coset's label names a member of the coset y*s, s the first generator,
    # not of yK itself; the class labels, with actors, stay right
    def patched(self, k, actors=()):
        labels = original(self, k, actors)
        return labels if actors else self._rmul_map(self._gen_idx[0])[labels]

    return patched


# each patch breaks one fact the lemmas rely on, so their failure paths run
FAILURE_PATCHES = {
    "has_normal_p_complement": (Group, lambda original: lambda self, p: False),
    "composition_factors": (
        Group,
        lambda original: lambda self, budget=0: [(60, False), (60, False), (2, True)],
    ),
    "_misses_a_class": (theorem, lambda original: lambda g, i: i % 3 != 0),
    "sylow_commute_criterion": (theorem, lambda original: lambda g, p, q: (True, p != 2)),
    "_class_size_per_element": (theorem, lambda original: lambda g: original(g) + 1),
    "sylow_center_orbit": (
        theorem,
        lambda original: lambda g, p: [(None, np.arange(g.order))] * 2,
    ),
    "sylow_subgroup": (
        Group,
        lambda original: lambda self, p: Subgroup(self, np.arange(self.order)),
    ),
    "centralizer_mask_idx": (Group, _drop_own_bit),
    "coset_labels": (Group, _label_by_next_coset),
}

# full LemmaResults under each patch, recorded before the lemma checks
# shared one checker; the quotient-centralizer rows under centralizer_mask_idx
# and the coset_labels rows were recorded once those lemmas read G/K through
# coset labels, where dropping x from C(x) no longer reaches C(xK)
RECORDED_FAILURES = [
    ("has_normal_p_complement", ORDER_540, 20, "normal_p_complement", ("fail", 1, "exhaustive", "violations: p=3")),
    ("has_normal_p_complement", ORDER_540, 10000, "normal_p_complement", ("fail", 1, "exhaustive", "violations: p=3")),
    ("has_normal_p_complement", "heisenberg:5", 20, "normal_p_complement", ("fail", 1, "exhaustive", "violations: p=5")),
    ("has_normal_p_complement", "heisenberg:5", 10000, "normal_p_complement", ("fail", 1, "exhaustive", "violations: p=5")),
    ("composition_factors", ORDER_540, 20, "single_nonabelian_factor", ("fail", 2, "exhaustive", "violations: p=2:2, p=5:2")),
    ("composition_factors", ORDER_540, 10000, "single_nonabelian_factor", ("fail", 2, "exhaustive", "violations: p=2:2, p=5:2")),
    ("composition_factors", "symmetric:5", 20, "single_nonabelian_factor", ("fail", 2, "exhaustive", "violations: p=3:2, p=5:2")),
    ("composition_factors", "symmetric:5", 10000, "single_nonabelian_factor", ("fail", 2, "exhaustive", "violations: p=3:2, p=5:2")),
    ("_misses_a_class", ORDER_540, 20, "noncentral_misses_class", ("fail", 20, "sampled", "violations: x#24, x#408, x#282, x#51, x#321")),
    ("_misses_a_class", ORDER_540, 10000, "noncentral_misses_class", ("fail", 537, "exhaustive", "violations: x#3, x#6, x#9, x#12, x#15")),
    ("sylow_commute_criterion", ORDER_540, 20, "commuting_sylow_criterion", ("fail", 3, "exhaustive", "violations: (p,q)=(2,3), (p,q)=(2,5)")),
    ("sylow_commute_criterion", ORDER_540, 10000, "commuting_sylow_criterion", ("fail", 3, "exhaustive", "violations: (p,q)=(2,3), (p,q)=(2,5)")),
    ("_class_size_per_element", ORDER_540, 20, "class_size_divisibility", ("fail", 20, "sampled", "violations: K#1,x#420, K#9,x#152, K#19,x#431, K#4,x#119, K#11,x#177")),
    ("_class_size_per_element", ORDER_540, 20, "series_class_divisibility", ("pass", 20, "sampled", "")),
    ("_class_size_per_element", ORDER_540, 10000, "class_size_divisibility", ("fail", 10000, "sampled", "violations: K#1,x#420, K#9,x#152, K#19,x#431, K#4,x#119, K#11,x#177")),
    ("_class_size_per_element", ORDER_540, 10000, "series_class_divisibility", ("pass", 1010, "exhaustive", "")),
    ("_class_size_per_element", "symmetric:5", 20, "class_size_divisibility", ("fail", 20, "sampled", "violations: K#1,x#19, K#1,x#91, K#1,x#64, K#1,x#76, K#1,x#109")),
    ("_class_size_per_element", "symmetric:5", 20, "series_class_divisibility", ("fail", 20, "sampled", "violations: step0,pos17, step0,pos1, step0,pos10, step0,pos7, step0,pos29")),
    ("_class_size_per_element", "symmetric:5", 10000, "class_size_divisibility", ("fail", 360, "exhaustive", "violations: K#1,x#1, K#1,x#2, K#1,x#3, K#1,x#4, K#1,x#5")),
    ("_class_size_per_element", "symmetric:5", 10000, "series_class_divisibility", ("fail", 180, "exhaustive", "violations: step0,pos1, step0,pos2, step0,pos3, step0,pos4, step0,pos5")),
    ("sylow_center_orbit", ORDER_540, 20, "sylow_center_in_center", ("fail", 2, "exhaustive", "violations: p=3, p=3")),
    ("sylow_center_orbit", ORDER_540, 10000, "sylow_center_in_center", ("fail", 2, "exhaustive", "violations: p=3, p=3")),
    ("sylow_center_orbit", "heisenberg:5", 20, "sylow_center_in_center", ("fail", 2, "exhaustive", "violations: p=5, p=5")),
    ("sylow_center_orbit", "heisenberg:5", 10000, "sylow_center_in_center", ("fail", 2, "exhaustive", "violations: p=5, p=5")),
    ("sylow_subgroup", "symmetric:5", 20, "abelian_sylow_when_inert", ("fail", 2, "exhaustive", "violations: p=3, p=5")),
    ("sylow_subgroup", "symmetric:5", 10000, "abelian_sylow_when_inert", ("fail", 2, "exhaustive", "violations: p=3, p=5")),
    ("centralizer_mask_idx", ORDER_540, 20, "coprime_centralizer_product", ("fail", 20, "sampled", "violations: x#108,y#2, x#19,y#486, x#8,y#243, x#26,y#27")),
    ("centralizer_mask_idx", ORDER_540, 20, "split_sylow_centralizer", ("pass", 20, "sampled", "")),
    ("centralizer_mask_idx", ORDER_540, 20, "coprime_quotient_centralizer", ("pass", 0, "sampled", "")),
    ("centralizer_mask_idx", ORDER_540, 20, "centralizer_image_in_quotient", ("pass", 20, "sampled", "")),
    ("centralizer_mask_idx", ORDER_540, 10000, "coprime_centralizer_product", ("fail", 887, "exhaustive", "violations: x#1,y#27, x#1,y#54, x#1,y#81, x#1,y#108, x#1,y#135")),
    ("centralizer_mask_idx", ORDER_540, 10000, "split_sylow_centralizer", ("pass", 32, "exhaustive", "")),
    ("centralizer_mask_idx", ORDER_540, 10000, "coprime_quotient_centralizer", ("fail", 187, "exhaustive", "violations: K#2,x#27, K#2,x#28, K#2,x#29, K#2,x#54, K#2,x#55")),
    ("centralizer_mask_idx", ORDER_540, 10000, "centralizer_image_in_quotient", ("pass", 1540, "exhaustive", "")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 20, "coprime_centralizer_product", ("fail", 20, "sampled", "violations: x#2,y#15, x#1,y#6, x#6,y#1")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 20, "split_sylow_centralizer", ("fail", 18, "exhaustive", "violations: a#1,b#9, a#1,b#12, a#2,b#9, a#2,b#12")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 20, "coprime_quotient_centralizer", ("fail", 5, "sampled", "violations: K#2,x#6")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 20, "centralizer_image_in_quotient", ("pass", 20, "sampled", "")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 10000, "coprime_centralizer_product", ("fail", 33, "exhaustive", "violations: x#1,y#3, x#1,y#6, x#1,y#15, x#2,y#3, x#2,y#6")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 10000, "split_sylow_centralizer", ("fail", 18, "exhaustive", "violations: a#1,b#9, a#1,b#12, a#2,b#9, a#2,b#12")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 10000, "coprime_quotient_centralizer", ("fail", 17, "exhaustive", "violations: K#2,x#3")),
    ("centralizer_mask_idx", "direct:symmetric:3+cyclic:3", 10000, "centralizer_image_in_quotient", ("pass", 54, "exhaustive", "")),
    ("coset_labels", "symmetric:4", 20, "coprime_quotient_centralizer", ("fail", 9, "exhaustive", "violations: K#1,x#3")),
    ("coset_labels", "symmetric:4", 20, "centralizer_image_in_quotient", ("fail", 20, "exhaustive", "violations: K#1,x#9, K#1,x#3")),
    ("coset_labels", "symmetric:4", 10000, "coprime_quotient_centralizer", ("fail", 9, "exhaustive", "violations: K#1,x#3")),
    ("coset_labels", "symmetric:4", 10000, "centralizer_image_in_quotient", ("fail", 20, "exhaustive", "violations: K#1,x#9, K#1,x#3")),
    ("coset_labels", "direct:symmetric:4+cyclic:5", 20, "coprime_quotient_centralizer", ("fail", 6, "sampled", "violations: K#2,x#105, K#2,x#115")),
    ("coset_labels", "direct:symmetric:4+cyclic:5", 20, "centralizer_image_in_quotient", ("fail", 20, "sampled", "violations: K#4,x#43, K#2,x#95, K#2,x#77, K#1,x#72, K#2,x#119")),
    ("coset_labels", "direct:symmetric:4+cyclic:5", 10000, "coprime_quotient_centralizer", ("fail", 54, "exhaustive", "violations: K#1,x#15, K#1,x#16, K#1,x#17, K#1,x#18, K#1,x#19")),
    ("coset_labels", "direct:symmetric:4+cyclic:5", 10000, "centralizer_image_in_quotient", ("fail", 200, "exhaustive", "violations: K#1,x#45, K#1,x#46, K#1,x#47, K#1,x#48, K#1,x#49")),
]


@pytest.mark.parametrize("patch,spec,budget,name,expected", RECORDED_FAILURES)
def test_lemma_failure_paths_match_recorded(monkeypatch, patch, spec, budget, name, expected):
    owner, make = FAILURE_PATCHES[patch]
    monkeypatch.setattr(owner, patch, make(getattr(owner, patch)))
    result = run_lemma_suite(build(parse_spec(spec)), seed=0, sample_budget=budget, names=[name])
    assert result[name] == LemmaResult(*expected)


# ----- no quotient group, one computation per centralizer ----------------------


def test_lemma_suite_builds_no_quotient_and_each_mask_once(monkeypatch):
    # the lemmas read G/K through coset labels; at the default budget the
    # suite asks for each mask many times, and every ask after the first must
    # return the array built first
    quotients, groups, first_mask = [], [], {}
    mask = Group.centralizer_mask_idx

    def same_mask(self, i):
        groups.append(self)  # keeps ids from being reused
        got = mask(self, i)
        assert first_mask.setdefault((id(self), i), got) is got
        return got

    monkeypatch.setattr(Group, "quotient", lambda self, k: quotients.append(k))
    monkeypatch.setattr(Group, "centralizer_mask_idx", same_mask)
    results = run_lemma_suite(build(parse_spec(ORDER_540)), seed=0, sample_budget=10000)
    assert all(r.status == "pass" for r in results.values())
    assert quotients == []
    assert len(groups) > len(first_mask)  # asks were repeated


def test_lemma_suite_labels_each_kernel_once(monkeypatch):
    # class_size_divisibility and coprime_quotient_centralizer both read the
    # classes of G/K from labels with G's generators as actors; the labels are
    # kept per (kernel, actors), so no such labelling runs twice
    asked, labelled = [], []
    coset_labels, least_labels = Group.coset_labels, group_module._least_labels

    def noting(self, k, actors=()):
        asked.append((k.indices.tobytes(), tuple(actors)))
        try:
            return coset_labels(self, k, actors)
        finally:
            asked.pop()

    def counting(n, maps):
        if asked and asked[-1][1]:
            labelled.append(asked[-1])
        return least_labels(n, maps)

    monkeypatch.setattr(Group, "coset_labels", noting)
    monkeypatch.setattr(group_module, "_least_labels", counting)
    g = build(parse_spec(ORDER_540))
    results = run_lemma_suite(g, seed=0, sample_budget=10000)
    assert all(r.status == "pass" for r in results.values())
    assert len(labelled) == len(set(labelled))
    kernels = [k for k, actors in labelled if list(actors) == g._gen_idx]
    assert len(kernels) > len(g.normal_subgroups()) // 2  # the lemmas did label kernels


def test_a_group_is_freed_without_the_cycle_collector():
    # a Group caches arrays only, never an object that points back at it, so
    # its last reference frees it and its table at once; a product keeps its
    # factors, which keep nothing of it, so they go with it
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    g.conjugacy_classes()
    g.normal_subgroups()
    g.composition_series()
    run_lemma_suite(g, sample_budget=50)
    assert "_rows" in vars(g)  # the lemma checks built the product's table
    alive = [weakref.ref(h) for h in (g, *g._factors)]
    assert len(alive) == 3
    gc.disable()
    try:
        del g
        assert [ref() for ref in alive] == [None] * 3
    finally:
        gc.enable()


def test_a_product_whose_table_was_never_built_is_freed_without_the_cycle_collector():
    # a product's table is built on its first read, by a descriptor that its
    # class holds and that keeps no product; a product never read goes as well
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    g.composition_series()
    verify_main_theorem(g)
    assert "_rows" not in vars(g)
    alive = [weakref.ref(h) for h in (g, *g._factors)]
    gc.disable()
    try:
        del g
        assert [ref() for ref in alive] == [None] * 3
    finally:
        gc.enable()


# ----- batched predicates against the scalar references ---------------------------

# The lemma suite decides its cases in batches.  The scalar per-case
# predicates it used before are kept here as references: on every case of
# these groups, batched and scalar verdicts must agree, also under a patch
# that drops each element from its own centralizer.
DIFFERENTIAL_SPECS = ["symmetric:4", "dihedral:6", ORDER_540, "direct:symmetric:3+cyclic:3"]


@pytest.fixture(params=[False, True], ids=["unpatched", "drop-own-bit"])
def masks_patched(request, monkeypatch):
    if request.param:
        patch = _drop_own_bit(Group.centralizer_mask_idx)
        monkeypatch.setattr(Group, "centralizer_mask_idx", patch)
    return request.param


def _degenerate(g, sub, x):
    return sub.order == 1 or sub.order == g.order or x == 0


def _quotients(g, normals):
    # Group.quotient keeps nothing, so each reference builds its quotients once
    return {k: g.quotient(sub) for k, sub in enumerate(normals) if 1 < sub.order < g.order}


def _class_size_divides_ref(g, normals, quotients, sizes, k, x):
    # both divisors read at x itself, not at its class representative
    sub = normals[k]
    if _degenerate(g, sub, x):
        return True
    if sizes[x] % centralizer_index(g, sub, x) != 0:
        return False
    q, qmap = quotients[k]
    return sizes[x] % q.class_size_of_idx(qmap.image_idx(x)) == 0


def _split_by_count(g, x, y):
    # the per-case count form of the centralizer-product predicate
    if x == 0 or y == 0:
        return True
    both = np.count_nonzero(g.centralizer_mask_idx(x) & g.centralizer_mask_idx(y))
    return int(both) * g.class_size_of_idx(g.mult_idx(x, y)) == g.order


def _split_by_masks(g, x, y):
    # the three-mask form of the centralizer-product predicate
    if x == 0 or y == 0:
        return True
    cxy = g.centralizer_mask_idx(g.mult_idx(x, y))
    return bool(np.array_equal(cxy, g.centralizer_mask_idx(x) & g.centralizer_mask_idx(y)))


_UNPATCHED_MASK = Group.centralizer_mask_idx


def _quotient_centralizer_ref(g, normals, quotients, k, x, subset_only):
    # sorted quotient indices of the image of C(x) against those of C(xK);
    # C(xK) comes from the quotient group's own mask, never patched
    sub = normals[k]
    if _degenerate(g, sub, x):
        return True
    q, qmap = quotients[k]
    cosets = np.unique(qmap.coset_id[np.flatnonzero(g.centralizer_mask_idx(x))])
    image = np.unique(qmap._coset_to_element()[cosets])
    target = np.flatnonzero(_UNPATCHED_MASK(q, qmap.image_idx(x)))
    if subset_only:
        return np.setdiff1d(image, target).size == 0
    return bool(np.array_equal(image, target))


def _misses_a_class_ref(g, i):
    # read at x_i itself, not at its class representative
    ids, reps, _ = g.class_table()
    hits = np.bincount(ids[g.centralizer_mask_idx(i)], minlength=len(reps))
    return bool((hits == 0).any())


def _commute_by_products(g, a, b):
    return all(g.mult_idx(i, j) == g.mult_idx(j, i) for i in a for j in b)


def _every_kx(g, normals):
    return np.array([(k, x) for k in range(len(normals)) for x in range(g.order)], dtype=np.int64)


def _outcome(fn, *args):
    # a verdict, or the type and message of the error deciding it raised
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("shift", [0, 1], ids=["sizes", "sizes-plus-one"])
@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_batched_class_divisibility_matches_scalar(monkeypatch, spec, masks_patched, shift):
    def shifted(g):
        # class sizes off by one make the quotient test decide cases too
        return _class_size_per_element(g) + shift

    monkeypatch.setattr(theorem, "_class_size_per_element", shifted)
    g = build(parse_spec(spec))
    normals = g.normal_subgroups()
    cases = _every_kx(g, normals)
    quotients = _quotients(g, normals)
    want = [
        _outcome(_class_size_divides_ref, g, normals, quotients, shifted(g), k, x)
        for k, x in cases.tolist()
    ]
    if any(isinstance(w, tuple) for w in want):
        # a case whose divisor raises must raise the same error, one case at a time
        divides = theorem._ClassDivisors(g, normals)
        got = [_outcome(lambda row: bool(divides(row)[0]), row) for row in np.split(cases, len(cases))]
        assert got == want
    else:
        assert theorem._ClassDivisors(g, normals)(cases).tolist() == want
    assert False in want or not shift


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_batched_product_split_matches_scalar(spec, masks_patched):
    g = build(parse_spec(spec))
    orders = g.element_orders()
    pairs = [
        (x, y)
        for x in range(g.order)
        for y in np.flatnonzero(g.centralizer_mask_idx(x)).tolist()
        if gcd(int(orders[x]), int(orders[y])) == 1
    ]
    got = theorem._centralizers_of_products_split(g)(np.array(pairs, dtype=np.int64))
    assert got.tolist() == [_split_by_count(g, x, y) for x, y in pairs]


@pytest.mark.parametrize("subset_only", [True, False], ids=["image-in", "image-equals"])
@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_batched_quotient_centralizers_match_scalar(spec, masks_patched, subset_only):
    g = build(parse_spec(spec))
    normals = g.normal_subgroups()
    cases = _every_kx(g, normals)
    got = theorem._quotient_centralizers(g, normals, subset_only)(cases)
    quotients = _quotients(g, normals)
    want = [
        _quotient_centralizer_ref(g, normals, quotients, k, x, subset_only)
        for k, x in cases.tolist()
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_batched_misses_a_class_matches_scalar(spec, masks_patched):
    g = build(parse_spec(spec))
    noncentral = np.flatnonzero(~g.center().mask())
    got = theorem._misses_a_class(g, noncentral)
    assert got.tolist() == [_misses_a_class_ref(g, i) for i in noncentral.tolist()]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_factor_class_sizes_match_per_position(spec, masks_patched):
    g = build(parse_spec(spec))
    series = g.composition_series()
    tables = theorem._factor_class_sizes(g, series)
    assert len(tables) == len(series) - 1
    for table, low, high in zip(tables, series, series[1:]):
        mg = g if high.order == g.order else high.as_group()
        factor, qmap = mg.quotient(Subgroup(mg, np.searchsorted(high.indices, low.indices)))
        assert table.tolist() == [
            factor.class_size_of_idx(qmap.image_idx(pos)) for pos in range(high.order)
        ]


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_batched_commute_matches_scalar(spec):
    g = build(parse_spec(spec))
    gens = [s.ensure_gens() for s in g.normal_subgroups()]
    gens += [g.sylow_subgroup(p).ensure_gens() for p in (2, 3)]
    gens.append(random.Random(spec).sample(range(g.order), 5))
    verdicts = []
    for a in gens:
        for b in gens:
            verdicts.append(g._commute(a, b))
            assert verdicts[-1] == _commute_by_products(g, a, b)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("spec", ["symmetric:4", "dihedral:6", ORDER_540])
def test_class_keyed_divisors_match_per_element(spec):
    g = build(parse_spec(spec))
    normals = g.normal_subgroups()
    divides = theorem._ClassDivisors(g, normals)
    assert divides(_every_kx(g, normals)).all()
    for k, sub in enumerate(normals):
        if sub.order in (1, g.order):
            assert not divides.in_kernel[k].any() and not divides.in_quotient[k].any()
            continue
        q, qmap = g.quotient(sub)
        for x in range(1, g.order):
            c = g.class_id_of_idx(x)
            assert divides.in_kernel[k, c] == centralizer_index(g, sub, x)
            assert divides.in_quotient[k, c] == q.class_size_of_idx(qmap.image_idx(x))


def test_count_predicate_matches_three_masks():
    g = build(parse_spec(ORDER_540))
    orders = g.element_orders()
    pairs = [
        (x, y)
        for x in range(g.order)
        for y in np.flatnonzero(g.centralizer_mask_idx(x)).tolist()
        if gcd(int(orders[x]), int(orders[y])) == 1
    ]
    got = theorem._centralizers_of_products_split(g)(np.array(pairs, dtype=np.int64))
    assert got.tolist() == [_split_by_masks(g, x, y) for x, y in pairs]
    assert len(pairs) > g.order


# ----- chunk edges ----------------------------------------------------------------------


def test_chunk_edges_move_no_result_and_no_draw(monkeypatch):
    # a small prime chunk puts chunk edges inside every lemma's cases, and a
    # one-cell lookup gives each quotient-centralizer case its own lookup
    monkeypatch.setattr(theorem, "_CHUNK", 7)
    monkeypatch.setattr(theorem, "_LOOKUP_CELLS", 1)
    for (spec, budget), digest in RECORDED_SUITES.items():
        test_lemma_suite_matches_recorded(spec, budget)
    test_lemma_draws_match_recorded(monkeypatch)
    for entry in RECORDED_FAILURES[::4]:
        with monkeypatch.context() as patched:
            test_lemma_failure_paths_match_recorded(patched, *entry)


# ----- standalone checks -----------------------------------------------------------


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


def _vector_indices_by_walk(base, moduli):
    """Exponent vector -> member index, walking right-multiplication maps."""
    rmaps = [base._rmul_map(g) for g in base._gen_idx]
    out = {}
    for vec in itertools.product(*[range(m) for m in moduli]):
        idx = 0
        for rmap, e in zip(rmaps, vec):
            for _ in range(e):
                idx = int(rmap[idx])
        out[vec] = idx
    return out


def test_matrix_witnesses_match_the_exponent_walk():
    witnesses = builtin_witnesses()
    assert [w.name for w in witnesses] == [name for name, _, _ in theorem._WITNESS_SPECS]
    assert len(witnesses) == 22
    for w, (name, moduli, mats) in zip(witnesses, theorem._WITNESS_SPECS):
        at = _vector_indices_by_walk(w.base, moduli)
        # the base table lists exponent vectors in ravel order
        assert all(i == np.ravel_multi_index(vec, moduli) for vec, i in at.items()), name
        assert len(w.actor_gens) == len(mats), name
        for actor, mat in zip(w.actor_gens, mats):
            want = [0] * w.base.order
            for vec, i in at.items():
                image = tuple(sum(a * v for a, v in zip(row, vec)) % m for row, m in zip(mat, moduli))
                want[i] = at[image]
            assert list(actor.images) == want, name


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
