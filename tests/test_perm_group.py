"""Permutation primitives and the group engine, cross-checked by the oracle."""

import hashlib
import itertools
import random

import numpy as np
import pytest

import oracle
from conjlab import group as group_module
from conjlab import theorem
from conjlab.arith import prime_divisors
from conjlab.corpus import build, builtin_corpus, parse_spec
from conjlab.errors import (
    BudgetExceeded,
    CapExceeded,
    ElementNotInGroup,
    InvalidPermutation,
    NotASubgroup,
    NotNormal,
)
from conjlab.group import (
    Group,
    Subgroup,
    direct_product,
    group_from_generators,
    is_internal_direct_product,
)
from conjlab.invariants import centralizer_index
from conjlab.perm import Perm


# ----- Perm ---------------------------------------------------------------------


def test_perm_basics():
    p = Perm([1, 2, 0, 3])
    q = Perm([0, 1, 3, 2])
    assert (p * q).images == oracle.compose(p.images, q.images)
    assert p.inverse().images == oracle.inverse(p.images)
    assert p.order() == 3 and q.order() == 2
    assert Perm.identity(4).images == (0, 1, 2, 3)
    assert p != q and p == Perm((1, 2, 0, 3))


def test_perm_apply_and_cycles():
    p = Perm.from_cycles([(0, 1, 2), (3, 4)], 5)
    assert p(0) == 1 and p(2) == 0 and p(3) == 4
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Perm.identity(3).cycle_string() == "()"


def test_perm_from_cycle_string_round_trip():
    for text in ["(0 1 2)(3 4)", "()", "(2 5)(0 1 3)"]:
        p = Perm.from_cycle_string(text, 6)
        assert Perm.from_cycle_string(p.cycle_string(), 6) == p


def test_perm_conjugate_convention():
    # x^g = g^-1 * x * g, applying g last
    x = Perm.from_cycles([(0, 1)], 4)
    g = Perm.from_cycles([(0, 2)], 4)
    assert x.conjugate(g) == Perm.from_cycles([(1, 2)], 4)


def test_perm_rejects_garbage():
    with pytest.raises(InvalidPermutation):
        Perm([0, 0, 1])
    with pytest.raises(InvalidPermutation):
        Perm([1, 2, 3])
    with pytest.raises(InvalidPermutation):
        Perm.from_cycles([(0, 3)], 3)
    with pytest.raises(InvalidPermutation):
        Perm([0, 1]) * Perm([0, 1, 2])


def test_perm_accepts_numpy_row():
    p = Perm(np.array([2, 0, 1], dtype=np.int16))
    assert p.images == (2, 0, 1)


# ----- construction and membership ------------------------------------------------


def build_oracle_pair(gens):
    elements = oracle.closure(gens)
    g = group_from_generators(len(gens[0]), [Perm(t) for t in gens])
    return g, elements


@pytest.mark.parametrize(
    "gens",
    [
        oracle.cyclic_gens(6),
        oracle.dihedral_gens(5),
        oracle.symmetric_gens(4),
        oracle.alternating_gens(5),
        oracle.frobenius_gens(5, 4),
    ],
    ids=["c6", "d5", "s4", "a5", "f54"],
)
def test_closure_matches_oracle(gens):
    g, elements = build_oracle_pair(gens)
    assert g.order == len(elements)
    assert sorted(p.images for p in g.elements()) == elements


def test_heisenberg_closure_matches_oracle():
    elements = oracle.heisenberg_elements(3)
    g = group_from_generators(27, [Perm(e) for e in oracle.heisenberg_gens(3)])
    assert g.order == 27
    assert sorted(p.images for p in g.elements()) == elements


def test_membership_and_index():
    g, elements = build_oracle_pair(oracle.symmetric_gens(4))
    for t in elements:
        assert Perm(t) in g
        assert g.element(g.index_of(Perm(t))) == Perm(t)
    assert Perm(tuple(range(4))) == g.element(0)
    outsider = Perm((1, 0, 2, 3, 4))
    assert outsider not in g
    with pytest.raises(ElementNotInGroup):
        g.index_of(outsider)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        group_from_generators(5, [Perm(t) for t in oracle.symmetric_gens(5)], cap=100)


def test_trivial_group():
    t = group_from_generators(3, [])
    assert t.order == 1 and t.is_abelian()
    assert t.class_table().sizes.tolist() == [1]


# ----- arithmetic against the oracle ----------------------------------------------


def test_mult_inverse_tables():
    g, elements = build_oracle_pair(oracle.dihedral_gens(6))
    idx = {t: i for i, t in enumerate(elements)}
    rows = [g.element(i).images for i in range(g.order)]
    for i in range(g.order):
        assert rows[g.inv_idx(i)] == oracle.inverse(rows[i])
        for j in range(0, g.order, 5):
            assert rows[g.mult_idx(i, j)] == oracle.compose(rows[i], rows[j])


@pytest.mark.parametrize(
    "spec", ["symmetric:4", "dihedral:500", "direct:symmetric:4+cyclic:6"]
)
def test_element_orders_match_oracle(spec):
    g = build(parse_spec(spec))
    orders = g.element_orders()
    # the oracle's power chain is slow on large cyclic parts: sample those
    if g.order <= 200:
        sample = range(g.order)
    else:
        sample = np.random.default_rng(0).choice(g.order, size=40, replace=False)
    for i in sample:
        assert orders[i] == oracle.element_order(g.element(int(i)).images)


def test_conjugacy_classes_match_oracle():
    for gens in [oracle.symmetric_gens(4), oracle.dihedral_gens(5), oracle.frobenius_gens(7, 3)]:
        g, elements = build_oracle_pair(gens)
        got = sorted(len(c) for c in oracle.class_members(g))
        want = sorted(len(c) for c in oracle.conjugacy_classes(elements))
        assert got == want
        total = sum(got)
        assert total == g.order


def test_class_members_are_actual_classes():
    g, elements = build_oracle_pair(oracle.symmetric_gens(4))
    for idx in oracle.class_members(g):
        members = {g.element(int(i)).images for i in idx}
        rep = g.element(int(idx[0])).images
        want = {
            oracle.compose(oracle.compose(oracle.inverse(h), rep), h) for h in elements
        }
        assert members == want


def test_class_table_leaves_no_coset_labels():
    # the class labelling is kept once, in the class table
    g = build(parse_spec("direct:symmetric:4+heisenberg:3"))
    g.class_table()
    assert len(g._quotient_cache) == 0 and g._quotient_cache.nbytes == 0


def test_centralizer_matches_oracle():
    g, elements = build_oracle_pair(oracle.symmetric_gens(4))
    for i in range(0, g.order, 3):
        x = g.element(i).images
        got = g.centralizer(i)
        assert got.order == oracle.centralizer_order(elements, x)


def test_center():
    g, _ = build_oracle_pair(oracle.dihedral_gens(6))
    z = g.center()
    assert z.order == 2  # d6 has a central rotation
    g2, _ = build_oracle_pair(oracle.symmetric_gens(4))
    assert g2.center().order == 1


# ----- base-image index ---------------------------------------------------------------


C2_POWER_16 = "direct:" + "+".join(["cyclic:2"] * 16)


@pytest.mark.parametrize(
    "spec", ["heisenberg:13", "dihedral:500", C2_POWER_16], ids=["h13", "d500", "c2^16"]
)
def test_base_lookups_match_row_search(spec):
    g = build(parse_spec(spec))

    def search(images: tuple) -> int:
        return oracle.row_index(map(np.ndarray.tolist, g._rows), images)

    rng = np.random.default_rng(1)
    for i, j in rng.integers(0, g.order, size=(6, 2)):
        i, j = int(i), int(j)
        a, b = g.element(i).images, g.element(j).images
        assert g.index_of(Perm(a)) == search(a) == i
        prod = search(oracle.compose(a, b))
        assert g.mult_idx(i, j) == g._rmul_map(j)[i] == g.index_of(Perm(oracle.compose(a, b))) == prod
        conj = oracle.compose(oracle.compose(oracle.inverse(b), a), b)
        assert g._conj_map(j)[i] == search(conj)
        assert g.inv_idx(i) == search(oracle.inverse(a))


@pytest.mark.parametrize(
    "spec",
    ["heisenberg:13", "dihedral:500", C2_POWER_16, "symmetric:5"],
    ids=["h13", "d500", "c2^16", "s5"],
)
def test_centralizer_by_base_matches_brute_force(spec):
    g = build(parse_spec(spec))
    elements = [tuple(row) for row in g._rows.tolist()]
    rng = np.random.default_rng(2)
    for i in [0, *(int(v) for v in rng.integers(1, g.order, size=3))]:
        got = np.flatnonzero(g.centralizer_mask_idx(i)).tolist()
        assert got == oracle.centralizer(elements, elements[i])


def test_base_key_survives_int64_overflow():
    # 16 base points of degree 32: 32**16 = 2**80 does not fit a mixed-radix int64 key
    g = build(parse_spec(C2_POWER_16))
    assert len(g._base) == 16
    assert any(prefixes is not None for prefixes in g._key_plan)
    assert len(np.unique(g._sorted_keys)) == g.order == 2**16


def test_non_member_matching_a_member_on_the_base():
    g = build(parse_spec("dihedral:7"))
    members = {p.images for p in g.elements()}
    x = list(g.element(3).images)
    u, v = [p for p in range(g.degree) if p not in g._base][:2]
    x[u], x[v] = x[v], x[u]
    outsider = Perm(x)
    assert all(x[b] == g.element(3).images[b] for b in g._base)
    assert outsider.images not in members
    assert outsider not in g
    with pytest.raises(ElementNotInGroup):
        g.index_of(outsider)


def test_table_map_refuses_a_repeat_or_a_non_member():
    g = build(parse_spec("dihedral:7"))
    x = list(g.element(3).images)
    u, v = [p for p in range(g.degree) if p not in g._base][:2]
    x[u], x[v] = x[v], x[u]
    # the outsider of the test above shares member 3's base images: in row 0 it repeats member 3
    outsider = g._base_rows.copy()
    outsider[0] = np.array(x)[g._base]
    repeat = g._base_rows[np.r_[0 : g.order - 1, 1]]
    stranger = g._base_rows.copy()
    stranger[0] = g.degree - 1  # every base point to one point: no member's images
    for images in (repeat, outsider, stranger):
        with pytest.raises(ElementNotInGroup):
            g._table_map(images)


def test_as_group_rejects_a_non_closed_set():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    swap = g.index_of(Perm.from_cycles([(0, 1)], 4))
    three = g.index_of(Perm.from_cycles([(0, 1, 2)], 4))
    with pytest.raises(NotASubgroup):
        Subgroup(g, np.array([0, swap, three], dtype=np.int64)).as_group()


def _fill_maps(g, ref):
    for s in range(g.order):
        assert np.array_equal(g._rmul_map(s), ref._rmul_map(s))
        assert np.array_equal(g._conj_map(s), ref._conj_map(s))
        yield g._rmul_cache, g._conj_cache


def _fill_masks(g, ref):
    for i in range(g.order):
        mask = g.centralizer_mask_idx(i)
        assert np.array_equal(mask, ref.centralizer_mask_idx(i))
        with pytest.raises(ValueError):
            mask[i] = False  # a cached mask is shared, so it is read-only
        yield (g._centralizer_cache,)


def _fill_coset_labels(g, ref):
    pairs = list(zip(g.normal_subgroups(), ref.normal_subgroups()))
    for k, ref_k in pairs + pairs:  # the second pass relabels evicted kernels
        labels = g.coset_labels(k)
        assert np.array_equal(labels, ref.coset_labels(ref_k))
        with pytest.raises(ValueError):
            labels[0] = 1  # cached labels are shared, so they are read-only
        yield (g._quotient_cache,)


def test_coset_labels_name_cosets_and_quotient_classes():
    # against the quotient group: labels are least coset members, and the
    # cosets that each class of G meets are the classes of G/K
    g = build(parse_spec("direct:symmetric:3+cyclic:3"))
    for k in g.normal_subgroups():
        q, qmap = g.quotient(k)
        labels = g.coset_labels(k)
        assert np.array_equal(labels, qmap.coset_reps[qmap.coset_id])
        assert not labels.flags.writeable
        sizes = theorem._class_sizes_over(g, k, g.class_table())
        assert sizes.tolist() == [q.class_size_of_idx(qmap.image_idx(i)) for i in range(g.order)]


@pytest.mark.parametrize(
    "fill,room,kept",
    [
        (_fill_maps, lambda ref: 3 * 8 * ref.order, 3),  # three int64 maps
        (_fill_masks, lambda ref: 3 * ref.order, 3),  # three boolean masks
        (_fill_coset_labels, lambda ref: 3 * 8 * ref.order, 3),  # of four kernels
    ],
    ids=["maps", "centralizer-masks", "coset-labels"],
)
def test_map_caches_stay_under_the_byte_cap(monkeypatch, fill, room, kept):
    ref = build(parse_spec("symmetric:4"))
    cap = room(ref)
    monkeypatch.setattr(group_module, "_MAP_CACHE_BYTES", cap)
    g = build(parse_spec("symmetric:4"))
    for caches in fill(g, ref):
        for cache in caches:
            assert sum(m.nbytes for m in cache.values()) == cache.nbytes <= cap
    assert all(len(cache) == kept for cache in caches)
    assert [c.tolist() for c in oracle.class_members(g)] == [
        c.tolist() for c in oracle.class_members(ref)
    ]
    got = [s.indices.tolist() for s in g.normal_subgroups()]
    assert got == [s.indices.tolist() for s in ref.normal_subgroups()]


# ----- subgroups -------------------------------------------------------------------


def test_subgroup_generated_and_validation():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    rot = Perm.from_cycles([(0, 1, 2, 3)], 4)
    s = g.subgroup_generated([rot])
    assert s.order == 4
    assert not g.is_normal(s)
    ragged = Subgroup(g, np.array([0, g.index_of(rot)], dtype=np.int64))
    with pytest.raises(NotASubgroup):
        g.normalizer(ragged)


def test_numpy_integer_indices_are_indices():
    # Subgroup, class-member and class-table indices are np.int64; each
    # must name the member that the same int names
    g = build(parse_spec("symmetric:4"))
    x, y = oracle.class_members(g)[2][0], g.class_table().reps[3]
    assert isinstance(x, np.int64) and isinstance(y, np.int64)
    assert g.centralizer(x) == g.centralizer(int(x)) and g.centralizer(x).order == 4
    assert g.subgroup_generated([x, y]) == g.subgroup_generated([int(x), int(y)])
    assert g.subgroup_generated([x, y]).ensure_gens() == [int(x), int(y)]
    a4 = g.normal_subgroups()[2]
    assert centralizer_index(g, a4, x) == centralizer_index(g, a4, int(x))
    assert centralizer_index(g, None, y) == centralizer_index(g, None, int(y))


def test_coset_labels_refuse_a_subgroup_of_another_group():
    g = build(parse_spec("symmetric:4"))
    k = build(parse_spec("dihedral:12")).normal_subgroups()[1]
    with pytest.raises(NotASubgroup):
        g.is_normal(k)
    with pytest.raises(NotASubgroup):
        g.coset_labels(k)


def test_normalizer():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    rot = g.subgroup_generated([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    n = g.normalizer(rot)
    assert n.order == 8  # dihedral normalizer of a 4-cycle in s4


def test_sylow_subgroups():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    p2 = g.sylow_subgroup(2)
    p3 = g.sylow_subgroup(3)
    assert p2.order == 8 and p3.order == 3
    a5, _ = build_oracle_pair(oracle.alternating_gens(5))
    assert a5.sylow_subgroup(2).order == 4
    assert a5.sylow_subgroup(5).order == 5


def test_subgroup_conjugates_counts():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    syl2 = g.sylow_subgroup(2)
    assert len(g.subgroup_conjugates(syl2)) == 3
    syl3 = g.sylow_subgroup(3)
    assert len(g.subgroup_conjugates(syl3)) == 4


def test_normal_subgroups_match_oracle():
    for gens in [
        oracle.symmetric_gens(4),
        oracle.dihedral_gens(6),
        oracle.frobenius_gens(5, 4),
        oracle.cyclic_gens(12),
        oracle.heisenberg_gens(3),
        oracle.frobenius_gens(7, 3),
        # c2^3, where a join can have the order of a known subgroup holding only one side
        [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
    ]:
        g, elements = build_oracle_pair(gens)
        got = sorted(s.order for s in g.normal_subgroups())
        assert got == oracle.normal_subgroup_orders(elements)


# sha256 prefixes of repr([(s.indices.tolist(), s.ensure_gens()) for s in
# g.normal_subgroups()]), recorded from the search that ran one normal closure
# per class and one closure per attempted join; the oracle checks only orders
# and the scan shows few generator lists, so these pin both
RECORDED_LATTICES = {
    "cyclic:60": "f0e36c0e8065ebda",
    "dihedral:12": "6e99874412e3f1d8",
    "heisenberg:5": "cdcff4947ec0fe16",
    "symmetric:5": "4db644120bd03bd7",
    "direct:alternating:5+cyclic:11": "6961ef0fc2705f99",
    "direct:frobenius:5,4+heisenberg:3": "f3fe414ac0e58754",
    "direct:frobenius:5,4+heisenberg:7": "7c69e2153586560b",
    "direct:alternating:5+heisenberg:7": "63ef35078895cd9c",
    "direct:cyclic:3+cyclic:3+cyclic:3": "68e3db71b6d32852",
}


@pytest.mark.parametrize("spec", sorted(RECORDED_LATTICES))
def test_normal_subgroup_lattice_matches_recorded(spec):
    g = build(parse_spec(spec))
    lattice = [(s.indices.tolist(), s.ensure_gens()) for s in g.normal_subgroups()]
    digest = hashlib.sha256(repr(lattice).encode()).hexdigest()[:16]
    assert digest == RECORDED_LATTICES[spec]


def test_one_closure_per_rational_class_and_none_per_known_join(monkeypatch):
    # x and x^k with k prime to |x| share a closure: on a cyclic group one
    # normal closure runs per nontrivial divisor of the order, not one per
    # element; every subgroup is then already known, so no join runs a closure
    starts, closures = [], []
    Group = group_module.Group
    real_normal, real_closed = Group._normal_closure_data, Group._closed_mask

    def spy_normal(self, start, budget, gens_h):
        starts.append(start)
        return real_normal(self, start, budget, gens_h)

    def spy_closed(self, gens, seed_mask=None):
        closures.append(list(gens))
        return real_closed(self, gens, seed_mask)

    g = build(parse_spec("cyclic:60"))
    monkeypatch.setattr(Group, "_normal_closure_data", spy_normal)
    monkeypatch.setattr(Group, "_closed_mask", spy_closed)
    assert len(g.normal_subgroups()) == 12
    assert sorted(g.order_of_idx(i) for i in starts) == [2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert closures == [[i] for i in starts]


def _without_factors(g):
    """g's table as a group that keeps no factors, so that it looks every
    product up by base images."""
    return Group(g._rows, [g._rows[i] for i in g._gen_idx], g.name)


@pytest.mark.parametrize(
    "spec",
    sorted(RECORDED_LATTICES)
    + ["dihedral:1000", "cyclic:2000", "direct:dihedral:500+cyclic:3", "direct:dihedral:60+dihedral:15"],
)
def test_closures_match_the_map_bfs(spec, monkeypatch):
    # every closure, as built and on the same table without factors, must
    # give the members and generators that the plain map BFS of the oracle
    # gives
    def answers(factors):
        g = build(parse_spec(spec))
        if not factors:
            g = _without_factors(g)
        subs = list(g.normal_subgroups())
        subs += [g.sylow_subgroup(p) for p in sorted(prime_divisors(g.order))]
        rng = random.Random(spec)
        for size in (1, 2, 3):
            subs.append(g.subgroup_generated([rng.randrange(g.order) for _ in range(size)]))
        return [(s.indices.tolist(), s.ensure_gens()) for s in subs]

    got = [answers(factors=True), answers(factors=False)]
    monkeypatch.setattr(Group, "_closed_mask", oracle.map_bfs_closed_mask)
    want = answers(factors=False)
    assert got == [want, want]


# every builtin product has factors of coprime orders, and so have the two
# added here; closures in them run in the factors
COPRIME_PRODUCTS = [s.name for s in builtin_corpus() if s.kind == "direct"] + [
    "direct:frobenius:5,4+heisenberg:3+cyclic:7",
    "direct:cyclic:2+cyclic:3+cyclic:5+cyclic:7",
]
# the last two are not coprime: their closures step through the factors' maps
PRODUCTS = COPRIME_PRODUCTS + [
    "direct:dihedral:2000+cyclic:3",
    "direct:dihedral:60+dihedral:15",
    "direct:symmetric:3+cyclic:3",
]


def _factor_path_matches_lookups(g, sample):
    # each _Product override against the one-table method it replaces
    ref = _without_factors(g)
    assert g._factors and not ref._factors
    assert np.array_equal(g.inverse_indices(), ref.inverse_indices())
    assert np.array_equal(g.element_orders(), ref.element_orders())
    for x in sample:
        assert g.element(x) == ref.element(x)
        assert np.array_equal(g._rmul_map(x), ref._rmul_map(x))
        assert np.array_equal(g._conj_map(x), ref._conj_map(x))
        assert np.array_equal(g._power_indices(x), ref._power_indices(x))
    for x, y in itertools.combinations(sample, 2):
        assert g._commute([x], [y]) == ref._commute([x], [y])
    assert g._commute(sample[:3], sample[3:]) == ref._commute(sample[:3], sample[3:])
    assert g._commute(g._gen_idx, g._gen_idx) == ref._commute(g._gen_idx, g._gen_idx)
    rng = random.Random(g.order)
    for size in (1, 2, 3):
        seed = [rng.choice(sample) for _ in range(size)]
        assert g.subgroup_generated(seed) == Subgroup(g, ref.subgroup_generated(seed).indices)
    return ref


@pytest.mark.parametrize("spec", PRODUCTS)
def test_a_product_multiplies_through_its_factors_as_lookups_do(spec):
    # maps, inverses, power chains and closures read off the factors must
    # equal those of the same table looked up by base images; so must every
    # normal subgroup, with its generators, and the classes of the label pass
    g = build(parse_spec(spec))
    rng = np.random.default_rng(3)
    sample = list(g._gen_idx) + rng.integers(1, g.order, size=6).tolist()
    ref = _factor_path_matches_lookups(g, sample)
    lattice = [(s.indices.tolist(), s.ensure_gens()) for s in g.normal_subgroups()]
    assert lattice == [(s.indices.tolist(), s.ensure_gens()) for s in ref.normal_subgroups()]
    assert all(np.array_equal(a, b) for a, b in zip(g.class_table(), ref.class_table()))
    # the lower levels close under generators that move several factors
    series = [(s.indices.tolist(), s.ensure_gens()) for s in g.composition_series()]
    assert series == [(s.indices.tolist(), s.ensure_gens()) for s in ref.composition_series()]


def test_a_sample_of_the_largest_product_multiplies_as_lookups_do():
    g = build(parse_spec("direct:alternating:5+heisenberg:7+cyclic:4"))
    assert [f.name for f in g._factors] == ["alternating:5", "heisenberg:7", "cyclic:4"]
    rng = np.random.default_rng(4)
    _factor_path_matches_lookups(g, list(g._gen_idx) + rng.integers(1, g.order, size=3).tolist())


@pytest.mark.parametrize("spec", COPRIME_PRODUCTS)
def test_a_coprime_product_closes_as_the_map_bfs_does(spec):
    # with no seed, with the subgroup a prefix of the list generates (its
    # projections lie in the factors' closures) and with an unrelated
    # subgroup (they need not: the walk is then seeded in the factor)
    g = build(parse_spec(spec))
    assert g._coprime
    rng = random.Random(spec)
    for size in (1, 2, 3) * 3:
        gens = [rng.randrange(g.order) for _ in range(size)]
        other = g.subgroup_generated([rng.randrange(g.order)]).mask()
        for seed in (None, g._closed_mask(gens[:1]), other):
            got = g._closed_mask(gens, seed)
            assert np.array_equal(got, oracle.map_bfs_closed_mask(g, gens, seed))


def test_a_coprime_product_spends_its_budget_as_lookups_do():
    # every budget the search exhausts stops it at the same node, with the
    # same progress, as on the table without factors
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    ref = _without_factors(g)
    for budget in range(544):
        texts = []
        for h in (g, ref):
            with pytest.raises(BudgetExceeded) as err:
                h.normal_subgroups(budget)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
    assert len(g.normal_subgroups(544)) == len(ref.normal_subgroups(544)) == 28


def test_the_factor_cache_stays_under_the_byte_cap(monkeypatch):
    spec = "direct:frobenius:5,4+heisenberg:7"
    ref = build(parse_spec(spec))
    want = [(s.indices.tolist(), s.ensure_gens()) for s in ref.normal_subgroups()]
    cap = 3 * 343  # three closure masks of heisenberg:7
    assert ref._factor_cache.nbytes > cap
    monkeypatch.setattr(group_module, "_MAP_CACHE_BYTES", cap)
    g = build(parse_spec(spec))
    assert [(s.indices.tolist(), s.ensure_gens()) for s in g.normal_subgroups()] == want
    cache = g._factor_cache
    assert sum(v.nbytes for v in cache.values()) == cache.nbytes <= cap
    assert not any(v.flags.writeable for v in cache.values())


@pytest.mark.parametrize("spec", ["direct:dihedral:2000+cyclic:3", "dihedral:1000"])
def test_two_reflections_close_to_a_long_dihedral_group(spec):
    # two reflections whose product is a rotation of order 1000 generate a
    # dihedral group of order 2000; each BFS level adds at most two members,
    # so the walk runs about 1000 levels deep
    g = build(parse_spec(spec))
    orders = g.element_orders()
    x = int(np.flatnonzero(orders == 2)[0])
    y = next(int(i) for i in np.flatnonzero(orders == 2) if orders[g.mult_idx(x, int(i))] == 1000)
    assert int(g._closed_mask([x, y]).sum()) == 2000


# budgets at which the search stops, and the progress it reports there, from
# the join phase that computed one meet per (subgroup, atom) pair; reading
# all of a subgroup's meets at once must not move a spent node
RECORDED_BUDGET_STOPS = [
    ("direct:frobenius:5,4+heisenberg:3", 120, "54 of 54 classes closed, 24 normal subgroups found"),
    ("direct:frobenius:5,4+heisenberg:3", 543, "54 of 54 classes closed, 28 normal subgroups found"),
    ("direct:frobenius:5,4+heisenberg:3", 544, None),
    ("direct:frobenius:5,4+heisenberg:7", 1715, "274 of 274 classes closed, 44 normal subgroups found"),
    ("direct:frobenius:5,4+heisenberg:7", 1716, None),
]


@pytest.mark.parametrize("spec,budget,progress", RECORDED_BUDGET_STOPS)
def test_join_phase_spends_its_budget_as_recorded(spec, budget, progress):
    g = build(parse_spec(spec))
    if progress is None:
        assert len(g.normal_subgroups(budget)) == {540: 28, 6860: 44}[g.order]
    else:
        with pytest.raises(BudgetExceeded, match=f"budget of {budget} nodes exhausted; {progress}$"):
            g.normal_subgroups(budget)


@pytest.mark.parametrize("spec", ["symmetric:5", "cyclic:60", "direct:frobenius:5,4+heisenberg:3"])
def test_rational_class_ids_match_power_chain(spec):
    g = build(parse_spec(spec))
    for idx in oracle.class_members(g)[1:]:
        x = int(idx[0])
        n, power, want = g.order_of_idx(x), x, set()
        for k in range(1, n):
            if np.gcd(k, n) == 1:
                want.add(g.class_id_of_idx(power))
            power = g.mult_idx(power, x)
        assert g._rational_class_ids(x, g.class_table().ids).tolist() == sorted(want)
        assert len(g._power_images(x)) == n


def test_normal_subgroup_members_are_normal():
    g, elements = build_oracle_pair(oracle.symmetric_gens(4))
    for s in g.normal_subgroups():
        members = {g.element(int(i)).images for i in s.indices}
        assert oracle.is_subgroup(elements, members)
        assert oracle.is_normal(elements, members)


def test_has_normal_p_complement():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    assert not g.has_normal_p_complement(2)  # would need a normal order-3 subgroup
    assert not g.has_normal_p_complement(3)  # would need a normal order-8 subgroup
    d5, _ = build_oracle_pair(oracle.dihedral_gens(5))
    assert d5.has_normal_p_complement(2)
    c12, _ = build_oracle_pair(oracle.cyclic_gens(12))
    assert c12.has_normal_p_complement(2) and c12.has_normal_p_complement(3)


# ----- quotients -------------------------------------------------------------------


def test_quotient_s4_by_klein():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    v4 = next(s for s in g.normal_subgroups() if s.order == 4)
    q, qmap = g.quotient(v4)
    assert q.order == 6
    assert sorted(q.class_table().sizes.tolist()) == [1, 2, 3]
    # projection is a homomorphism
    for i in range(0, g.order, 5):
        for j in range(0, g.order, 7):
            assert qmap.image_idx(g.mult_idx(i, j)) == q.mult_idx(
                qmap.image_idx(i), qmap.image_idx(j)
            )


@pytest.mark.parametrize(
    "gens",
    [oracle.symmetric_gens(4), oracle.dihedral_gens(6), oracle.cyclic_gens(12)],
    ids=["s4", "d6", "c12"],
)
def test_quotient_cosets_and_images_match_brute_force(gens):
    g, _ = build_oracle_pair(gens)
    rows = [g.element(i).images for i in range(g.order)]
    for k in g.normal_subgroups():
        q, qmap = g.quotient(k)
        members = {rows[int(i)] for i in k.indices}
        for x in range(g.order):
            for y in range(g.order):
                same = oracle.compose(oracle.inverse(rows[x]), rows[y]) in members
                assert (qmap.coset_id[x] == qmap.coset_id[y]) == same
        # cosets are numbered by least member, and x acts on them as c -> (rep_c * x)K
        least = [min(i for i in range(g.order) if qmap.coset_id[i] == c) for c in range(q.order)]
        assert qmap.coset_reps.tolist() == least == sorted(least)
        for x in range(g.order):
            image = q.element(qmap.image_idx(x)).images
            for c, rep in enumerate(qmap.coset_reps):
                prod = rows.index(oracle.compose(rows[int(rep)], rows[x]))
                assert image[c] == qmap.coset_id[prod]


def test_quotient_rejects_non_normal():
    g, _ = build_oracle_pair(oracle.symmetric_gens(4))
    rot = g.subgroup_generated([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    with pytest.raises(NotNormal):
        g.quotient(rot)


@pytest.mark.parametrize(
    "spec", ["symmetric:5", "direct:alternating:5+cyclic:11", "direct:frobenius:5,4+heisenberg:3"]
)
def test_batched_commutators_match_the_scalar_loop(spec):
    # the scalar loop composition_factors ran before: two lookups per step
    g = build(parse_spec(spec))

    def scalar(i, j):
        a = g.mult_idx(g.inv_idx(i), g.inv_idx(j))
        return g.mult_idx(g.mult_idx(a, i), j)

    series = g.composition_series()
    want = []
    for low, high in zip(series, series[1:]):
        gens = high.ensure_gens()
        pairs = [scalar(a, b) for a in gens for b in gens]
        assert g._commutators(gens, gens).tolist() == pairs
        want.append((high.order // low.order, all(low.mask()[pairs])))
    assert g.composition_factors() == want
    for i, j in np.random.default_rng(5).integers(0, g.order, size=(20, 2)).tolist():
        assert g.commutator_idx(i, j) == scalar(i, j)


def test_composition_factors():
    s4, _ = build_oracle_pair(oracle.symmetric_gens(4))
    assert sorted(f[0] for f in s4.composition_factors()) == [2, 2, 2, 3]
    assert all(ab for _, ab in s4.composition_factors())
    a5, _ = build_oracle_pair(oracle.alternating_gens(5))
    assert a5.composition_factors() == [(60, False)]
    c12, _ = build_oracle_pair(oracle.cyclic_gens(12))
    assert sorted(f[0] for f in c12.composition_factors()) == [2, 2, 3]


def _never_called(*args, **kwargs):
    raise AssertionError("called")


def test_composition_series_orders(monkeypatch):
    s4, _ = build_oracle_pair(oracle.symmetric_gens(4))
    series = s4.composition_series()
    orders = [s.order for s in series]
    assert orders == [1, 2, 4, 12, 24]
    for low, high in zip(series, series[1:]):
        assert set(low.indices) <= set(high.indices)
    # computed once: a second call runs no search and makes new, equal Subgroups
    monkeypatch.setattr(Group, "normal_subgroups", _never_called)
    monkeypatch.setattr(Group, "_normal_search", _never_called)
    again = s4.composition_series()
    assert again == series and all(a is not b for a, b in zip(again, series))


SERIES_SPECS = sorted(
    {s.name for s in builtin_corpus()}
    | {
        "frobenius:31,6",
        "symmetric:7",
        "direct:frobenius:5,4+heisenberg:7",
        "direct:alternating:5+heisenberg:7+cyclic:4",
    }
)


@pytest.mark.parametrize("spec", SERIES_SPECS)
def test_composition_series_matches_the_recursion_through_subgroup_groups(spec):
    # each level read off g's own tables must give the members, generators
    # and factors of the recursion that rebuilds every level as a Group
    g = build(parse_spec(spec))
    got = [(s.indices.tolist(), s.ensure_gens()) for s in g.composition_series()]
    want, factors = oracle.composition_series_by_recursion(g, group_module.DEFAULT_NODE_BUDGET)
    assert got == [(idx.tolist(), gens) for idx, gens in want]
    assert g.composition_factors() == factors


@pytest.mark.parametrize("spec", ["frobenius:31,6", "direct:frobenius:5,4+heisenberg:3"])
def test_composition_series_builds_no_group(spec, monkeypatch):
    g = build(parse_spec(spec))
    monkeypatch.setattr(Group, "__init__", _never_called)
    monkeypatch.setattr(Subgroup, "as_group", _never_called)
    assert len(g.composition_series()) > 2 and g.composition_factors()


# budgets at which the search of a level below the whole group runs out:
# the message names that level by its nesting, as Subgroup.as_group would
RECORDED_SERIES_BUDGET_STOPS = [
    ("frobenius:31,6", 24, "frobenius:31,6|sub93|sub31", "24 of 30 classes closed, 2 normal subgroups found"),
    ("frobenius:13,3", 10, "frobenius:13,3|sub13", "10 of 12 classes closed, 2 normal subgroups found"),
]


@pytest.mark.parametrize("spec,budget,level,progress", RECORDED_SERIES_BUDGET_STOPS)
def test_a_series_level_out_of_budget_is_named_by_its_nesting(spec, budget, level, progress):
    g = build(parse_spec(spec))
    g.normal_subgroups(budget)  # the whole group's search fits the budget
    with pytest.raises(BudgetExceeded) as stop:
        g.composition_series(budget)
    assert str(stop.value) == (
        f"normal_subgroups({level}): budget of {budget} nodes exhausted; {progress}"
    )


# ----- products --------------------------------------------------------------------


def test_direct_product_matches_oracle():
    xs = oracle.closure(oracle.symmetric_gens(3))
    ys = oracle.closure(oracle.cyclic_gens(4))
    g = direct_product(
        group_from_generators(3, [Perm(t) for t in oracle.symmetric_gens(3)]),
        group_from_generators(4, [Perm(t) for t in oracle.cyclic_gens(4)]),
    )
    want = oracle.direct_product_elements(xs, ys)
    assert g.order == len(want)
    assert sorted(p.images for p in g.elements()) == sorted(want)


def test_internal_direct_product_recognition():
    s3 = group_from_generators(3, [Perm(t) for t in oracle.symmetric_gens(3)])
    c4 = group_from_generators(4, [Perm(t) for t in oracle.cyclic_gens(4)])
    g = direct_product(s3, c4)
    normals = g.normal_subgroups()
    sixes = [s for s in normals if s.order == 6]
    b = next(s for s in normals if s.order == 4)
    assert any(is_internal_direct_product(g, a, b) for a in sixes)
    half = next(s for s in normals if s.order == 12)
    assert not any(is_internal_direct_product(g, a, half) for a in sixes)


def test_internal_direct_product_raises_when_factors_fail_to_commute(monkeypatch):
    s3 = group_from_generators(3, [Perm(t) for t in oracle.symmetric_gens(3)])
    c4 = group_from_generators(4, [Perm(t) for t in oracle.cyclic_gens(4)])
    g = direct_product(s3, c4)
    normals = g.normal_subgroups()
    b = next(s for s in normals if s.order == 4)
    # a complement of b whose generators move C4 too, so that the product
    # asks C4 whether they commute with b's (a factor where one side is the
    # identity is not asked)
    a = next(
        s for s in normals
        if s.order == 6 and is_internal_direct_product(g, s, b)
        and any(g._digits(i)[1] for i in s.ensure_gens())
    )
    # in each factor, every product x_i * x_j reads as x_i, so no two
    # distinct members commute
    for f in g._factors:
        monkeypatch.setattr(
            f, "_product_images",
            lambda a, b, f=f: f._base_rows[np.asarray(a)][:, None, :].repeat(len(b), 1),
        )
    with pytest.raises(NotASubgroup, match="engine invariant broken"):
        is_internal_direct_product(g, a, b)


def test_orbit_stabilizer_small():
    for gens in [oracle.symmetric_gens(4), oracle.dihedral_gens(7)]:
        g, _ = build_oracle_pair(gens)
        for idx in oracle.class_members(g):
            assert g.centralizer(int(idx[0])).order * len(idx) == g.order
