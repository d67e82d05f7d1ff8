"""Class-size invariants: size sets, p-part patterns, Sylow centers, criteria."""

import itertools

import numpy as np
import pytest

import oracle
from conjlab.arith import prime_divisors
from conjlab.corpus import build, builtin_corpus, parse_spec
from conjlab.errors import NotASubgroup
from conjlab.group import Group, group_from_generators
from conjlab.invariants import (
    KIND_MIXED,
    KIND_UNIFORM_ACTIVE,
    KIND_UNIFORM_INERT,
    centralizer_index,
    class_size_set,
    classify_p_parts,
    max_class_p_part,
    sylow_center_orbit,
    sylow_commute_criterion,
)
from conjlab.perm import Perm


def make(gens, name="g"):
    return group_from_generators(len(gens[0]), [Perm(t) for t in gens], name=name)


S3 = make(oracle.symmetric_gens(3), "s3")
S4 = make(oracle.symmetric_gens(4), "s4")
A4 = make(oracle.alternating_gens(4), "a4")
A5 = make(oracle.alternating_gens(5), "a5")
H3 = make(oracle.heisenberg_gens(3), "h3")
F54 = make(oracle.frobenius_gens(5, 4), "f54")
C12 = make(oracle.cyclic_gens(12), "c12")


def test_class_size_set_structure():
    css = class_size_set(S4)
    assert sorted(css.sizes) == [1, 3, 6, 8]
    assert css.multiplicities == ((1, 1), (3, 1), (6, 2), (8, 1))
    assert css.sorted_sizes() == [1, 3, 6, 8]


def test_class_size_set_matches_oracle():
    for gens in [
        oracle.symmetric_gens(3),
        oracle.dihedral_gens(8),
        oracle.frobenius_gens(7, 6),
        oracle.cyclic_gens(9),
    ]:
        g = make(gens)
        elements = oracle.closure(gens)
        want = oracle.class_sizes(elements)
        css = class_size_set(g)
        assert dict(css.multiplicities) == want


def test_max_class_parts():
    assert max_class_p_part(S4, 2) == 8
    assert max_class_p_part(S4, 3) == 3
    assert max_class_p_part(S4, 5) == 1


def test_classify_pinned_patterns():
    cases = [
        (S4, 2, KIND_MIXED, None, (1, 2, 8)),
        (S4, 3, KIND_UNIFORM_INERT, 1, (1, 3)),
        (S3, 2, KIND_UNIFORM_INERT, 1, (1, 2)),
        (S3, 3, KIND_UNIFORM_INERT, 1, (1, 3)),  # 3-cycles sit in a class of size 2
        (H3, 3, KIND_UNIFORM_ACTIVE, 1, (1, 3)),
        (A5, 2, KIND_UNIFORM_INERT, 2, (1, 4)),
        (A4, 2, KIND_UNIFORM_INERT, 2, (1, 4)),
        (F54, 2, KIND_UNIFORM_INERT, 2, (1, 4)),
        (F54, 5, KIND_UNIFORM_INERT, 1, (1, 5)),  # order-5 elements form the size-4 class
        (C12, 2, KIND_UNIFORM_INERT, None, (1,)),
    ]
    for g, p, kind, exponent, parts in cases:
        c = classify_p_parts(g, p)
        assert (c.kind, c.exponent, c.parts) == (kind, exponent, parts), (g.name, p)


def test_classify_rejects_composite():
    with pytest.raises(ValueError):
        classify_p_parts(S4, 4)


def test_centralizer_index():
    transposition = S3.index_of(Perm((1, 0, 2)))
    assert centralizer_index(S3, None, transposition) == 3
    a3 = next(s for s in S3.normal_subgroups() if s.order == 3)
    assert centralizer_index(S3, a3, transposition) == 3
    rotation = S3.index_of(Perm((1, 2, 0)))
    assert centralizer_index(S3, a3, rotation) == 1


def test_centralizer_index_refuses_a_subgroup_of_another_group():
    # the indices of an order-12 subgroup of cyclic:24 name other members in
    # symmetric:4, so reading them there would give a wrong index
    g = build(parse_spec("symmetric:4"))
    other = next(s for s in build(parse_spec("cyclic:24")).normal_subgroups() if s.order == 12)
    with pytest.raises(NotASubgroup):
        centralizer_index(g, other, 5)


@pytest.mark.parametrize("g", [S4, make(oracle.dihedral_gens(6), "d6")], ids=["s4", "d6"])
def test_centralizer_index_is_orbit_under_each_normal_subgroup(g):
    # the class of x inside K, counted by conjugating with every member of K
    members = list(g.elements())
    for sub in g.normal_subgroups():
        conjugators = [members[k] for k in sub.indices]
        for x, perm in enumerate(members):
            orbit = {perm.conjugate(k) for k in conjugators}
            assert centralizer_index(g, sub, x) == len(orbit)


def test_sylow_center_orbit_s4():
    orbit = sylow_center_orbit(S4, 2)
    assert len(orbit) == 3
    for sub_idx, center_idx in orbit:
        assert len(sub_idx) == 8 and len(center_idx) == 2
        # center elements are double transpositions
        for i in center_idx:
            el = S4.element(int(i))
            assert len(el.cycles()) in (0, 2)


def test_sylow_commute_criterion_agreement_small():
    for g in [S3, S4, A4, A5, F54, C12, H3]:
        order_primes = sorted({p for p in range(2, g.order + 1) if is_prime_(p) and g.order % p == 0})
        for i, p in enumerate(order_primes):
            for q in order_primes[i + 1:]:
                cls_side, sub_side = sylow_commute_criterion(g, p, q)
                assert cls_side == sub_side, (g.name, p, q)


def is_prime_(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_sylow_commute_criterion_values():
    assert sylow_commute_criterion(S4, 2, 3) == (False, False)
    assert sylow_commute_criterion(C12, 2, 3) == (True, True)
    assert sylow_commute_criterion(A5, 3, 5) == (False, False)


def test_sylow_commute_criterion_rejects():
    with pytest.raises(ValueError):
        sylow_commute_criterion(S4, 3, 3)
    with pytest.raises(ValueError):
        sylow_commute_criterion(S4, 2, 4)


# F(7,6) acting on the 14 cosets of one of its C3s: the first Sylow 2- and
# 3-subgroups found do not commute, though other pairs of conjugates do
F76_ON_COSETS = group_from_generators(
    14,
    [
        Perm.from_cycle_string(c, 14)
        for c in ["(0 13 12 2 7 1 5)(3 9 10 4 11 8 6)", "(0 11)(1 8 2 6 5 9)(3 12 4 7 10 13)"]
    ],
    name="f76-on-14",
)
SYLOW_GROUPS = [s.name for s in builtin_corpus()] + ["f76-on-14"]


def sylow_group(spec):
    return F76_ON_COSETS if spec == "f76-on-14" else build(parse_spec(spec))


def test_first_sylow_pair_of_f76_on_cosets_does_not_commute():
    g = F76_ON_COSETS
    p_gens, q_gens = g.sylow_subgroup(2).ensure_gens(), g.sylow_subgroup(3).ensure_gens()
    assert g.order == 42 and not g._commute(p_gens, q_gens)
    assert sylow_commute_criterion(g, 2, 3) == (True, True)


def test_each_sylow_subgroup_is_built_once(monkeypatch):
    # the criterion asks for both Sylow subgroups of every prime pair; each is
    # built once per prime, and every call returns a new, equal view
    built = []
    real = Group._sylow_data

    def spy(self, p):
        built.append(p)
        return real(self, p)

    monkeypatch.setattr(Group, "_sylow_data", spy)
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    primes = sorted(prime_divisors(g.order))
    for p, q in itertools.permutations(primes, 2):
        sylow_commute_criterion(g, p, q)
    assert built == primes
    a, b = g.sylow_subgroup(5), g.sylow_subgroup(5)
    assert a == b and a is not b and a.ensure_gens() is not b.ensure_gens()


@pytest.mark.parametrize("spec", SYLOW_GROUPS)
def test_sylow_center_orbit_matches_the_subgroup_table(spec):
    # the slow path: Z(P) from P's own table, mapped back to G's indices
    g = sylow_group(spec)
    for p in sorted(prime_divisors(g.order)):
        syl = g.sylow_subgroup(p)
        center = np.sort(syl.indices[syl.as_group().center().indices])
        want = g._conjugate_sets(syl.indices, center)
        got = sylow_center_orbit(g, p)
        assert len(got) == len(want)
        for (sub, cen), (want_sub, want_cen) in zip(got, want):
            assert np.array_equal(sub, want_sub) and np.array_equal(cen, want_cen)


@pytest.mark.parametrize("spec", SYLOW_GROUPS)
def test_sylow_commute_criterion_matches_the_every_pair_scan(spec):
    # the slow path: every (P', Q') pair of conjugates, each conjugate's
    # generators found by a closure of its own members
    g = sylow_group(spec)

    def conjugate_gens(p):
        syl = g.sylow_subgroup(p)
        return [g._accumulate(idx)[0] for idx, _ in g._conjugate_sets(syl.indices)]

    gens = {p: conjugate_gens(p) for p in prime_divisors(g.order)}
    for p, q in itertools.permutations(sorted(gens), 2):
        want = any(g._commute(a, b) for a in gens[p] for b in gens[q])
        assert sylow_commute_criterion(g, p, q)[1] == want, (p, q)


@pytest.mark.parametrize("spec", SYLOW_GROUPS)
def test_subgroup_conjugates_carry_generators_of_their_members(spec):
    g = sylow_group(spec)
    for p in sorted(prime_divisors(g.order)):
        for conj in g.subgroup_conjugates(g.sylow_subgroup(p)):
            assert np.array_equal(np.flatnonzero(g._closed_mask(conj.ensure_gens())), conj.indices)


def test_orbit_stabilizer_products():
    for g in [S3, S4, A4, F54, H3]:
        sizes = np.array([c.size for c in g.conjugacy_classes()])
        for cls in g.conjugacy_classes():
            i = int(cls.indices[0])
            assert g.centralizer(i).order * cls.size == g.order
