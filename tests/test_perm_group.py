"""Permutation primitives and the group engine, cross-checked by the oracle."""

import hashlib

import numpy as np
import pytest

import oracle
from conjlab import group as group_module
from conjlab.corpus import build, parse_spec
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
    assert t.conjugacy_classes()[0].size == 1


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
        got = sorted(c.size for c in g.conjugacy_classes())
        want = sorted(len(c) for c in oracle.conjugacy_classes(elements))
        assert got == want
        total = sum(got)
        assert total == g.order


def test_class_members_are_actual_classes():
    g, elements = build_oracle_pair(oracle.symmetric_gens(4))
    for cls in g.conjugacy_classes():
        members = {p.images for p in cls.members()}
        rep = cls.representative.images
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
    # against the quotient group: labels are least coset members, and with
    # the generators as actors a label's count over |K| is a class size of G/K
    g = build(parse_spec("direct:symmetric:3+cyclic:3"))
    for k in g.normal_subgroups():
        q, qmap = g.quotient(k)
        labels = g.coset_labels(k)
        assert np.array_equal(labels, qmap.coset_reps[qmap.coset_id])
        classes = g.coset_labels(k, g._gen_idx)
        sizes = np.bincount(classes, minlength=g.order)[classes] // k.order
        assert sizes.tolist() == [q.class_size_of_idx(qmap.image_idx(i)) for i in range(g.order)]
        assert not classes.flags.writeable


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
    assert [c.size for c in g.conjugacy_classes()] == [c.size for c in ref.conjugacy_classes()]
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

    def spy_normal(self, start, budget):
        starts.append(start)
        return real_normal(self, start, budget)

    def spy_closed(self, gens, seed_mask=None):
        closures.append(list(gens))
        return real_closed(self, gens, seed_mask)

    g = build(parse_spec("cyclic:60"))
    monkeypatch.setattr(Group, "_normal_closure_data", spy_normal)
    monkeypatch.setattr(Group, "_closed_mask", spy_closed)
    assert len(g.normal_subgroups()) == 12
    assert sorted(g.order_of_idx(i) for i in starts) == [2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert closures == [[i] for i in starts]


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
    for cls in g.conjugacy_classes()[1:]:
        x = int(cls.indices[0])
        n, power, want = g.order_of_idx(x), x, set()
        for k in range(1, n):
            if np.gcd(k, n) == 1:
                want.add(g.class_id_of_idx(power))
            power = g.mult_idx(power, x)
        assert g._rational_class_ids(x).tolist() == sorted(want)


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
    assert sorted(c.size for c in q.conjugacy_classes()) == [1, 2, 3]
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
    monkeypatch.setattr(Subgroup, "as_group", _never_called)
    again = s4.composition_series()
    assert again == series and all(a is not b for a, b in zip(again, series))


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
    a = next(s for s in normals if s.order == 6 and is_internal_direct_product(g, s, b))
    # every product x_i * x_j reads as x_i, so no two distinct members commute
    monkeypatch.setattr(
        g, "_product_images", lambda a, b: g._base_rows[np.asarray(a)][:, None, :].repeat(len(b), 1)
    )
    with pytest.raises(NotASubgroup, match="engine invariant broken"):
        is_internal_direct_product(g, a, b)


def test_orbit_stabilizer_small():
    for gens in [oracle.symmetric_gens(4), oracle.dihedral_gens(7)]:
        g, _ = build_oracle_pair(gens)
        for cls in g.conjugacy_classes():
            i = int(cls.indices[0])
            assert g.centralizer(i).order * cls.size == g.order
