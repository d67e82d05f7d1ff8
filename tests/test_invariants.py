"""Class-size invariants: size sets, p-part patterns, Sylow centers, criteria."""

import numpy as np
import pytest

import oracle
from conjlab.group import group_from_generators
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


def test_orbit_stabilizer_products():
    for g in [S3, S4, A4, F54, H3]:
        sizes = np.array([c.size for c in g.conjugacy_classes()])
        for cls in g.conjugacy_classes():
            i = int(cls.indices[0])
            assert g.centralizer(i).order * cls.size == g.order
