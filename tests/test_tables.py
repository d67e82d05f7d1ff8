"""Element tables, bases and conjugacy classes against the slow paths they
replaced, and against the oracle on random groups."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conjlab import group as group_module
from conjlab.arith import is_prime, prime_divisors
from conjlab.corpus import _FAMILIES, build, builtin_corpus, parse_spec
from conjlab.errors import CapExceeded, InvalidPermutation
from conjlab.group import Group, _least_labels, group_from_generators
from conjlab.grpio import load_grp
from conjlab.invariants import class_size_set, classify_p_parts, max_class_p_part
from conjlab.perm import Perm
from conjlab.theorem import STATUS_PASS, VERDICT_COUNTEREXAMPLE, verify_main_theorem

BUILTIN = [s.name for s in builtin_corpus()]

# the benchmark groups that are not builtin
_BENCHMARK_SPECS = [
    "symmetric:8",
    "heisenberg:13",
    "direct:symmetric:5+heisenberg:7",
    "frobenius:101,100",
    "dihedral:500",
]


# every builtin product, the two benchmark products and two with a trivial factor
_PRODUCT_SPECS = [s.name for s in builtin_corpus() if s.kind == "direct"] + [
    "direct:symmetric:5+heisenberg:7",
    "direct:alternating:5+heisenberg:7+cyclic:4",
    "direct:cyclic:1+frobenius:5,4",
    "direct:symmetric:4+cyclic:1+dihedral:3",
]


def _fully_sorted(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


# ----- table order ---------------------------------------------------------------


@pytest.mark.parametrize("spec", BUILTIN + _BENCHMARK_SPECS)
def test_prefix_sort_matches_a_full_lexsort(spec):
    g = build(parse_spec(spec))
    assert np.array_equal(g._rows, _fully_sorted(g._rows))
    # and is key order: each row's base images are found at its own index
    assert np.array_equal(g._lookup(g._base_rows), np.arange(g.order))


def test_prefix_sort_of_subgroup_and_quotient_tables():
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    normals = g.normal_subgroups()
    sub = normals[len(normals) // 2].as_group()
    q, _ = g.quotient(normals[3])
    for t in (sub, q):
        assert 1 < t.order < g.order
        assert np.array_equal(t._rows, _fully_sorted(t._rows))


def test_prefix_sort_of_a_shuffled_table():
    g = build(parse_spec("direct:symmetric:4+dihedral:5"))
    shuffled = g._rows[np.random.default_rng(7).permutation(g.order)]
    h = Group(shuffled, [g._rows[i] for i in g._gen_idx], "shuffled")
    assert np.array_equal(h._rows, g._rows)
    assert h._gen_idx == g._gen_idx
    # a sorted copy is kept, read-only, and the caller's array is left as it was
    assert not np.shares_memory(h._rows, shuffled) and shuffled.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        h._rows[1] = h._rows[0]


def _kept_table(monkeypatch, make):
    """The group make() builds, and the table it handed to the Group
    constructor, or None if it handed none."""
    seen = []

    class Recording(Group):
        def __init__(self, rows, gen_rows, label):
            seen.append((self, rows))
            super().__init__(rows, gen_rows, label)

    with monkeypatch.context() as m:
        m.setattr(group_module, "Group", Recording)
        g = make()
    return g, next((rows for h, rows in seen if h is g), None)


_ORDERED_TABLES = {
    "closed-form": lambda: build(parse_spec("symmetric:4")),
    "direct-product": lambda: group_module.direct_product(
        build(parse_spec("symmetric:3")), build(parse_spec("cyclic:4"))
    ),
    "subgroup": lambda: build(parse_spec("symmetric:4")).normal_subgroups()[2].as_group(),
}


@pytest.mark.parametrize("case", sorted(_ORDERED_TABLES))
def test_ordered_tables_are_kept_and_made_read_only(monkeypatch, case):
    g, rows = _kept_table(monkeypatch, _ORDERED_TABLES[case])
    assert np.array_equal(g._rows, _fully_sorted(g._rows))
    with pytest.raises(ValueError, match="read-only"):
        g._rows[0, 0] = 1
    # a product builds its table from its factors when it is first read,
    # so no caller hands it an array that could be kept or left writable
    assert (rows is None) == (case == "direct-product")
    if rows is not None:
        assert np.shares_memory(g._rows, rows)  # neither sorted nor copied
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1  # the caller's array is the table, so it is read-only too


@pytest.mark.parametrize("extra", [0, 5, 17])
def test_duplicate_rows_are_refused(extra):
    # a second identity row is fixed by every point and still terminates
    g = build(parse_spec("symmetric:4"))
    with pytest.raises(InvalidPermutation, match="duplicate rows"):
        Group(np.vstack([g._rows, g._rows[extra : extra + 1]]), [], "dup")


@pytest.mark.parametrize(
    "rows",
    [
        # only the identity fixes 0, so the base is [0], and the last two rows agree there
        [[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 3, 2]],
        # the base is [0, 2]; the last two rows first differ at 1, outside it,
        # so the prefix sort puts their keys (1, 3) and (1, 0) out of order
        [[0, 1, 2, 3], [0, 1, 3, 2], [1, 2, 3, 0], [1, 3, 0, 2]],
    ],
)
def test_tables_that_are_not_groups_are_refused(rows):
    with pytest.raises(InvalidPermutation, match="duplicate rows or is not a group"):
        Group(np.array(rows, dtype=np.int16), [], "not a group")


# ----- base ---------------------------------------------------------------------------


def _greedy_base(rows: np.ndarray) -> list[int]:
    """Points that only the identity row fixes all of, picked greedily.

    Each step takes the point fixed by the fewest rows that fix every point
    taken so far (lowest point on ties), so the base stays short; it is the
    reference for the length of the base Group reads off its stabilizer chain.
    """
    points = np.arange(rows.shape[1])
    base: list[int] = []
    stab = np.arange(len(rows))
    while len(stab) > 1 and len(base) < rows.shape[1]:
        fixers = (rows[stab] == points).sum(axis=0)
        b = int(np.argmin(fixers))
        base.append(b)
        stab = stab[rows[stab, b] == b]
    return base


@pytest.mark.parametrize("spec", BUILTIN + _BENCHMARK_SPECS)
def test_chain_base_is_a_base_as_short_as_the_greedy_one(spec):
    g = build(parse_spec(spec))
    fixes_base = np.all(g._rows[:, g._base] == np.array(g._base), axis=1)
    assert np.flatnonzero(fixes_base).tolist() == [0]
    assert len(g._base) == len(_greedy_base(g._rows))


def test_chain_base_skips_points_whose_stabilizer_does_not_shrink():
    g = group_from_generators(8, [Perm.from_cycle_string("(5 6 7)", 8)])
    assert g._base == [5]
    assert [g.index_of(p) for p in g.elements()] == [0, 1, 2]


# ----- closed-form family tables --------------------------------------------------


def _family_parts(specs):
    """Names of the family specs in specs, direct products taken apart."""
    parts = []
    for text in specs:
        spec = parse_spec(text)
        parts += [p.name for p in (spec.parts if spec.kind == "direct" else (spec,))]
    return list(dict.fromkeys(parts))


def _check_closed_form(text):
    """A family's closed-form table is its sorted enumerated table, and the
    Group kept on it has the same base and generator indices."""
    spec = parse_spec(text)
    family = _FAMILIES[spec.kind]
    degree, gens = family.gens(*spec.params)
    rows = family.table(*spec.params)
    ref = group_from_generators(degree, gens, name=text)
    assert rows.dtype == ref._rows.dtype
    assert np.array_equal(rows, ref._rows)
    g = group_from_generators(degree, gens, cap=len(rows), name=text, table=rows)
    assert np.shares_memory(g._rows, rows)  # already in table order
    assert g._base == ref._base
    assert g._gen_idx == ref._gen_idx
    with pytest.raises(CapExceeded, match="element cap"):
        group_from_generators(degree, gens, cap=len(rows) - 1, name=text, table=rows)


@pytest.mark.parametrize("spec", _family_parts(BUILTIN + _BENCHMARK_SPECS))
def test_closed_form_tables_match_enumeration(spec):
    _check_closed_form(spec)


_PRIMES = [p for p in range(3, 32) if is_prime(p)]
_FAMILY_SPECS = st.one_of(
    st.integers(1, 64).map(lambda n: f"cyclic:{n}"),
    st.integers(3, 64).map(lambda n: f"dihedral:{n}"),
    st.integers(1, 7).map(lambda n: f"symmetric:{n}"),
    st.integers(1, 7).map(lambda n: f"alternating:{n}"),
    st.sampled_from([3, 5, 7]).map(lambda p: f"heisenberg:{p}"),
    st.sampled_from([f"frobenius:{p},{q}" for p in _PRIMES for q in range(2, p) if (p - 1) % q == 0]),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(spec=_FAMILY_SPECS)
def test_closed_form_tables_match_enumeration_swept(spec):
    _check_closed_form(spec)


def test_building_a_product_peaks_below_one_and_a_half_tables():
    # the parts are written in closed form and the product is filled in
    # place and kept as it comes, so no second table is ever held
    spec = parse_spec("direct:symmetric:5+heisenberg:7")
    build(spec)  # outside the trace, so one-time allocations do not count
    tracemalloc.start()
    try:
        g = build(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g._rows.nbytes


# ----- enumeration -----------------------------------------------------------------


def _enumerate_by_rows(degree, gen_rows, cap, name):
    """The per-row numpy loop that group_from_generators used to run."""
    dtype = gen_rows[0].dtype if gen_rows else np.int16
    ident = np.arange(degree, dtype=dtype)
    rows = [ident]
    index = {ident.tobytes(): 0}
    frontier = [0]
    while frontier:
        fresh = []
        cur = np.stack([rows[i] for i in frontier])
        for g in gen_rows:
            prod = g.astype(np.int64)[cur]
            for row in prod.astype(dtype):
                key = row.tobytes()
                if key not in index:
                    if len(rows) >= cap:
                        raise CapExceeded(f"{name}: enumeration passed the element cap of {cap}")
                    index[key] = len(rows)
                    rows.append(row)
                    fresh.append(index[key])
        frontier = fresh
    return np.stack(rows)


_ENUMERATED = {
    "trivial": (3, []),
    "cyclic:7": (7, oracle.cyclic_gens(7)),
    "dihedral:12": (12, oracle.dihedral_gens(12)),
    "symmetric:5": (5, oracle.symmetric_gens(5)),
    "alternating:6": (6, oracle.alternating_gens(6)),
    "frobenius:7,3": (7, oracle.frobenius_gens(7, 3)),
    "heisenberg:3": (27, oracle.heisenberg_gens(3)),
}


@pytest.mark.parametrize("name", sorted(_ENUMERATED))
def test_bytes_enumeration_matches_the_row_loop(monkeypatch, name):
    degree, gens = _ENUMERATED[name]
    seen = []

    class Recording(Group):
        def __init__(self, rows, gen_rows, label):
            seen.append(np.array(rows))
            super().__init__(rows, gen_rows, label)

    monkeypatch.setattr(group_module, "Group", Recording)
    order = len(oracle.closure(gens)) if gens else 1
    g = group_from_generators(degree, [Perm(t) for t in gens], cap=order, name=name)
    gen_rows = [np.array(t, dtype=np.int16) for t in gens]
    ref = _enumerate_by_rows(degree, gen_rows, order, name)
    assert np.array_equal(seen[0], ref)  # same rows in the same BFS order
    assert np.array_equal(g._rows, _fully_sorted(ref))
    if order > 1:
        with pytest.raises(CapExceeded) as fast:
            group_from_generators(degree, [Perm(t) for t in gens], cap=order - 1, name=name)
        with pytest.raises(CapExceeded) as slow:
            _enumerate_by_rows(degree, gen_rows, order - 1, name)
        assert str(fast.value) == str(slow.value)


def _stacked_product(*groups):
    """The repeat/tile/hstack table that direct_product used to build, pair by pair."""
    dtype = group_module._images_dtype(sum(g.degree for g in groups))
    rows = np.zeros((1, 0), dtype=dtype)
    for g in groups:
        left = np.repeat(rows, g.order, axis=0)
        right = np.tile(g._rows.astype(dtype) + rows.shape[1], (len(rows), 1))
        rows = np.hstack([left, right])
    return rows


@pytest.mark.parametrize("spec", BUILTIN + _BENCHMARK_SPECS)
def test_direct_product_matches_the_stacked_table(spec):
    # a direct: spec is checked on its own parts, any other spec times C2
    parsed = parse_spec(spec)
    parts = parsed.parts if parsed.kind == "direct" else (parsed, parse_spec("cyclic:2"))
    g = build(parts[0])
    for part in parts[1:]:
        h = build(part)
        ref = _stacked_product(g, h)
        g = group_module.direct_product(g, h, cap=g.order * h.order)
        assert g._rows.dtype == ref.dtype
        assert np.array_equal(g._rows, ref)
        assert np.array_equal(ref, _fully_sorted(ref))


def test_a_product_of_three_is_the_nested_product_and_keeps_leaves():
    # one table in mixed radix, with the classes and generators of the
    # product built pair by pair; both keep the three leaves, not A x B
    a, b, c = (build(parse_spec(s)) for s in ("symmetric:3", "cyclic:4", "dihedral:5"))
    flat = group_module.direct_product(a, b, c)
    nested = group_module.direct_product(group_module.direct_product(a, b), c)
    assert np.array_equal(flat._rows, nested._rows)
    assert (flat.name, flat._gen_idx) == (nested.name, nested._gen_idx)
    assert all(np.array_equal(x, y) for x, y in zip(flat.class_table(), nested.class_table()))
    assert flat._factors == nested._factors == (a, b, c)
    with pytest.raises(ValueError):
        group_module.direct_product(a)
    with pytest.raises(TypeError, match="keyword-only argument cap="):
        group_module.direct_product(a, b, 10**6)  # the cap was once positional


def _three_factors():
    return tuple(build(parse_spec(s)) for s in ("symmetric:3", "cyclic:4", "dihedral:5"))


def _nested_three():
    a, b, c = _three_factors()
    return group_module.direct_product(group_module.direct_product(a, b), c)


# each builtin product (the benchmark's two verify-lemmas products among
# them), the two larger benchmark products, and a flat and a nested product
# of three groups
_LAZY_PRODUCTS = {
    **{spec: lambda spec=spec: build(parse_spec(spec)) for spec in _PRODUCT_SPECS},
    "flat S3 x C4 x D5": lambda: group_module.direct_product(*_three_factors()),
    "nested (S3 x C4) x D5": _nested_three,
}


def _eager_product(g):
    """The product g of its leaf factors through the eager constructor,
    given the stacked table and the embedded factor generators."""
    rows, gen_rows, offset = _stacked_product(*g._factors), [], 0
    for f in g._factors:
        for i in f._gen_idx:
            row = np.arange(rows.shape[1], dtype=rows.dtype)
            row[offset : offset + f.degree] = f._rows[i].astype(rows.dtype) + offset
            gen_rows.append(row)
        offset += f.degree
    return Group(rows, gen_rows, g.name)


@pytest.mark.parametrize("case", sorted(_LAZY_PRODUCTS))
def test_a_lazy_product_matches_the_eager_constructor(case):
    g = _LAZY_PRODUCTS[case]()
    ref = _eager_product(g)
    rng = np.random.default_rng(11)
    # read through the factors first, before anything builds the table
    assert (g._base, g._gen_idx, g.order) == (ref._base, ref._gen_idx, ref.order)
    assert np.array_equal(g.element_orders(), ref.element_orders())
    for i in rng.integers(g.order, size=50).tolist():
        assert g.element(i) == ref.element(i)
    gens = g._gen_idx
    assert g._commute(gens, gens) == ref._commute(gens, gens)
    assert g._commute(gens[:1], gens[1:]) == ref._commute(gens[:1], gens[1:])
    commuting = 0
    for i, j in rng.integers(g.order, size=(200, 2)).tolist():
        assert g._commute([i], [j]) == ref._commute([i], [j])
        commuting += ref._commute([i], [j])
    # the sample has both answers, save in an abelian product
    assert 0 < commuting <= 200 and (commuting < 200) == (not ref.is_abelian())
    assert "_rows" not in vars(g)
    for attr in ("_rows", "_base_rows", "_sorted_keys"):
        assert getattr(g, attr).dtype == getattr(ref, attr).dtype
        assert np.array_equal(getattr(g, attr), getattr(ref, attr))
    assert len(g._key_plan) == len(ref._key_plan)
    for got, want in zip(g._key_plan, ref._key_plan):
        assert (got is None and want is None) or np.array_equal(got, want)


@pytest.fixture
def table_builds(monkeypatch):
    """Names of the products whose table is built, one entry per build."""
    built = []
    table = group_module._Product._table

    def counting(self):
        built.append(self.name)
        return table(self)

    monkeypatch.setattr(group_module._Product, "_table", counting)
    return built


def test_class_sizes_and_verify_build_no_product_table(table_builds):
    for spec in (s for s in builtin_corpus() if s.kind == "direct"):
        g = build(spec)
        class_size_set(g)
        for p in prime_divisors(g.order):
            classify_p_parts(g, p)
            max_class_p_part(g, p)
        g.element_orders()
        verify_main_theorem(g, lemma_seed=None)
        assert "_rows" not in vars(g)
    assert table_builds == []


@pytest.mark.parametrize("spec", [s.name for s in builtin_corpus() if s.kind == "direct"])
def test_a_lemma_suite_builds_a_product_table_at_most_once(table_builds, spec):
    g = build(parse_spec(spec))
    report = verify_main_theorem(g, lemma_seed=0, lemma_samples=50)
    assert {r.status for r in report.lemma_results.values()} == {STATUS_PASS}
    assert table_builds in ([], [spec])


def test_direct_product_past_the_int16_range():
    # each part fits int16, the product's degree 33000 does not
    a = group_from_generators(32000, [Perm.from_cycle_string("(0 1)", 32000)])
    b = group_from_generators(1000, [Perm.from_cycle_string("(0 1 2)", 1000)])
    assert a._rows.dtype == b._rows.dtype == np.int16
    g = group_module.direct_product(a, b)
    assert g.order == 6 and g._rows.dtype == np.int32
    assert np.array_equal(g._rows, _fully_sorted(_stacked_product(a, b)))
    assert set(g._rows[:, 32000:].ravel().tolist()) == set(range(32000, 33000))
    assert [g.element(i).cycle_string() for i in g._gen_idx] == ["(0 1)", "(32000 32001 32002)"]


# ----- inverses, conjugation maps and element orders ----------------------------------


def _inverses_by_full_rows(g):
    """The inverse table from an argmax over every column of every row."""
    images = np.empty_like(g._base_rows)
    for j, b in enumerate(g._base):
        images[:, j] = np.argmax(g._rows == b, axis=1)
    return g._indices_of_images(images)


def _conj_map_by_inverse(g, x, inverses):
    """Conjugation by x_x, with x^-1 read from the inverse table."""
    xinv = g._rows[inverses[x]]
    return g._indices_of_images(g._rows[x][g._rows[:, xinv[g._base]]])


def _orders_by_walk(g):
    """Every element's cycle lengths through the base, walked row by row."""
    orders = np.ones(g.order, dtype=np.int64)
    for b, col in zip(g._base, g._base_rows.T):
        alive = np.flatnonzero(col != b)
        pts = col[alive]
        length = 1
        while alive.size:
            length += 1
            pts = g._rows[alive, pts]
            back = pts == b
            orders[alive[back]] = np.lcm(orders[alive[back]], length)
            alive, pts = alive[~back], pts[~back]
    return orders


def _whole_table_images(g):
    """Base images of each generator's right-multiplication and conjugation
    products over the whole table, and of every member's inverse."""
    inv_rows = np.empty_like(g._rows)
    np.put_along_axis(inv_rows, g._rows.astype(np.int64), np.arange(g.degree), axis=1)
    for s in g._gen_idx:
        yield g._rows[s][g._base_rows]
        yield g._rows[s][g._rows[:, inv_rows[s][g._base]]]
    yield inv_rows[:, g._base]


# C2_POWER_16 of test_perm_group.py, whose keys go through prefix ranks
@pytest.mark.parametrize("spec", BUILTIN + _BENCHMARK_SPECS + ["direct:" + "+".join(["cyclic:2"] * 16)])
def test_table_map_matches_the_lookup(spec):
    g = build(parse_spec(spec))
    for images in _whole_table_images(g):
        assert np.array_equal(g._table_map(images), g._indices_of_images(images))


@pytest.mark.parametrize("spec", BUILTIN + _BENCHMARK_SPECS)
def test_inverses_conjugation_maps_and_orders_match_the_table_passes(spec):
    g = build(parse_spec(spec))
    inverses = _inverses_by_full_rows(g)
    for x in g._gen_idx:
        assert np.array_equal(g._conj_map(x), _conj_map_by_inverse(g, x, inverses))
    assert g._inv_idx is None  # the classes never built the inverse table
    assert np.array_equal(g.element_orders(), _orders_by_walk(g))
    assert g._inv_idx is None
    assert np.array_equal(g.inverse_indices(), inverses)


# ----- conjugacy classes ------------------------------------------------------------


def _classes_by_spread(g):
    """The per-class BFS that conjugacy_classes used to run."""
    cmaps = [g._conj_map(x) for x in g._gen_idx]
    seen = np.zeros(g.order, dtype=bool)
    raw = []
    for i in range(g.order):
        if not seen[i]:
            raw.append(np.unique(np.concatenate(g._spread(cmaps, [i], seen))))
    raw.sort(key=lambda idx: (len(idx), int(idx[0])))
    return raw


_CLASS_SPECS = [s.name for s in builtin_corpus() if build(s, cap=10**5).order <= 1000] + [
    "direct:frobenius:5,4+heisenberg:7"
]


@pytest.mark.parametrize("spec", _CLASS_SPECS)
def test_classes_match_the_per_class_spread(spec):
    g = build(parse_spec(spec))
    ref = _classes_by_spread(g)
    got = g.conjugacy_classes()
    assert len(got) == len(ref)
    for cid, (cls, idx) in enumerate(zip(got, ref)):
        assert cls.indices.dtype == np.int64
        assert np.array_equal(cls.indices, idx)
        assert all(g.class_id_of_idx(int(i)) == cid for i in idx)


@pytest.mark.parametrize("spec", _PRODUCT_SPECS)
def test_product_class_table_matches_the_label_pass(spec):
    g = build(parse_spec(spec))
    got = g.class_table()
    # the general path, numbered here: orbit minima under the conjugation maps
    least = _least_labels(g.order, [(g._conj_map(a), g.order) for a in g._gen_idx])
    reps, inverse, sizes = np.unique(least, return_inverse=True, return_counts=True)
    rank = np.lexsort((reps, sizes))
    ref = (np.argsort(rank)[inverse], reps[rank], sizes[rank])
    for arr, want in zip(got, ref):
        assert arr.dtype == want.dtype and np.array_equal(arr, want)
        assert not arr.flags.writeable


@pytest.mark.parametrize("spec", ["direct:frobenius:5,4+heisenberg:3", "direct:symmetric:5+heisenberg:7"])
def test_a_built_product_has_its_classes_without_a_conjugation_map(spec):
    g = build(parse_spec(spec))
    assert g._classes is not None
    assert not g._conj_cache


def test_a_one_generator_group_has_its_classes_without_a_label_pass(tmp_path):
    # a group its one generator generates is cyclic, so each class is one
    # member: the table, read with no conjugation map, is the label pass's
    path = tmp_path / "c6.grp"
    path.write_text("degree 5\nname c6\n(0 1 2)(3 4)\n")
    groups = [build(parse_spec(f"cyclic:{n}")) for n in range(1, 41)] + [load_grp(path)]
    assert groups[-1].order == 6
    for g in groups:
        assert len(g._gen_idx) <= 1
        got = g.class_table()
        assert not g._conj_cache
        for arr, want in zip(got, g._class_pass(g._gen_idx)):
            assert arr.dtype == want.dtype and np.array_equal(arr, want)
            assert not arr.flags.writeable


def _orbit_minima(n, maps):
    """Least member of each orbit, by union-find over the maps' edges."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m in maps:
        for i, j in enumerate(m.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)  # the root stays the least member
    return np.array([find(i) for i in range(n)], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80).flatmap(lambda n: st.lists(
    st.tuples(st.permutations(range(n)), st.integers(1, 2 * n)), min_size=1, max_size=3)))
def test_least_labels_are_orbit_minima(drawn):
    maps = [(np.array(perm, dtype=np.int64), bound) for perm, bound in drawn]
    n = len(maps[0][0])
    assert np.array_equal(_least_labels(n, maps), _orbit_minima(n, [m for m, _ in maps]))


# a cycle of a power-of-two length, bounded by that length, leaves no squaring to spare
@pytest.mark.parametrize(
    "n, bound", [(1000, 1), (1000, 1000), (1024, 1024), (2, 2)], ids=["1", "1000", "1024-1024", "2-2"]
)
def test_least_labels_on_one_long_cycle(n, bound):
    # one cycle through every index, in a scrambled order
    order = np.random.default_rng(4).permutation(n)
    step = np.empty(n, dtype=np.int64)
    step[order] = np.roll(order, -1)
    assert np.array_equal(_least_labels(n, [(step, bound)]), np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("spec", _BENCHMARK_SPECS)
def test_p_element_mask_matches_the_elementwise_strip(spec):
    g = build(parse_spec(spec))
    for p in prime_divisors(g.order):
        stripped = g.element_orders().copy()
        while np.any(stripped % p == 0):
            stripped[stripped % p == 0] //= p
        assert np.array_equal(g.p_element_mask(p), stripped == 1)


def _spread_with_unique(maps, start, seen):
    """The BFS that _spread ran when it sorted and deduped every level."""
    frontier = np.unique(np.asarray(start, dtype=np.int64))
    seen[frontier] = True
    levels = [frontier]
    while frontier.size:
        parts = []
        for m in maps:
            t = m[frontier]
            t = np.unique(t[~seen[t]])
            seen[t] = True
            parts.append(t)
        frontier = np.concatenate(parts)
        levels.append(frontier)
    return levels


@pytest.mark.parametrize("spec", ["cyclic:60", "symmetric:5", "direct:frobenius:5,4+heisenberg:3"])
def test_spread_levels_are_disjoint_without_a_dedupe(spec):
    g = build(parse_spec(spec))
    rng = np.random.default_rng(5)
    for _ in range(12):
        gens = rng.choice(g.order, size=int(rng.integers(1, 4)), replace=False)
        maps = [g._rmul_map(int(s)) for s in gens]
        if rng.random() < 0.5:
            maps += [g._conj_map(int(s)) for s in gens]
        # an unsorted start with no index twice
        start = rng.permutation(g.order)[: int(rng.integers(1, 6))]
        seen = np.zeros(g.order, dtype=bool)
        levels = g._spread(maps, start, seen)
        union = np.concatenate(levels)
        assert len(np.unique(union)) == len(union)  # no index twice, in a level or across
        assert np.array_equal(np.flatnonzero(seen), np.sort(union))
        ref_seen = np.zeros(g.order, dtype=bool)
        ref = _spread_with_unique(maps, start, ref_seen)
        assert np.array_equal(np.sort(union), np.unique(np.concatenate(ref)))
        assert np.array_equal(seen, ref_seen)
        # the same BFS levels, as sets
        assert len(levels) == len(ref)
        assert all(np.array_equal(np.sort(x), np.sort(r)) for x, r in zip(levels, ref))


# ----- subgroup sort keys -------------------------------------------------------------


def test_big_endian_bytes_sort_index_arrays_like_tuples():
    # the keys normal_subgroups and composition_series sort subgroups by
    rng = np.random.default_rng(3)
    for length in (1, 2, 5, 40):
        for high in (4, 300, 70000, 2**40):
            arrays = [np.sort(rng.choice(high, size=min(length, high), replace=False)) for _ in range(60)]
            arrays += arrays[:5]  # ties
            by_tuple = sorted(arrays, key=lambda a: tuple(int(i) for i in a))
            by_bytes = sorted(arrays, key=lambda a: a.astype(">i8").tobytes())
            assert [a.tolist() for a in by_bytes] == [a.tolist() for a in by_tuple]


def test_normal_subgroups_and_series_follow_the_tuple_order():
    g = build(parse_spec("direct:frobenius:5,4+heisenberg:3"))
    normals = g.normal_subgroups()
    assert normals == sorted(normals, key=lambda s: (s.order, tuple(s.indices.tolist())))
    proper = [s for s in normals if s.order < g.order]
    top = min(proper, key=lambda s: (-s.order, tuple(s.indices.tolist())))
    assert g.composition_series()[-2] == top


# ----- random groups against the oracle ----------------------------------------------


def _quotient_class_sizes(elements, kernel):
    """Class sizes of G/K from conjugating cosets of K, element by element."""
    coset_of = {}
    for x in elements:
        if x not in coset_of:
            coset = frozenset(oracle.compose(x, k) for k in kernel)
            coset_of.update(dict.fromkeys(coset, coset))
    sizes, done = [], set()
    for x in elements:
        if coset_of[x] in done:
            continue
        conj = {coset_of[oracle.compose(oracle.compose(oracle.inverse(g), x), g)] for g in elements}
        done |= conj
        sizes.append(len(conj))
    return Counter(sizes)


_random_generators = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(list(range(n))).map(tuple), min_size=1, max_size=3)
    )
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=_random_generators)
def test_random_groups_match_the_oracle(drawn):
    degree, gens = drawn
    g = group_from_generators(degree, [Perm(t) for t in gens])
    elements = oracle.closure(gens)
    assert g.order == len(elements)
    classes = oracle.conjugacy_classes(elements)
    got = {frozenset(g.element(int(i)).images for i in c.indices) for c in g.conjugacy_classes()}
    assert got == {frozenset(c) for c in classes}
    assert Counter(c.size for c in g.conjugacy_classes()) == Counter(map(len, classes))
    centralizer = {}
    for c in classes:
        centralizer.update(dict.fromkeys(c, oracle.centralizer_order(elements, next(iter(c)))))
    for i in range(g.order):
        x = g.element(i).images
        assert int(g.centralizer_mask_idx(i).sum()) == centralizer[x]
        assert g.order_of_idx(i) == oracle.element_order(x)
    normals = g.normal_subgroups()
    if degree <= 5:
        assert [n.order for n in normals] == oracle.normal_subgroup_orders(elements)
    kernel = normals[len(normals) // 2]
    q, _ = g.quotient(kernel)
    members = [g.element(int(i)).images for i in kernel.indices]
    conjugates = {oracle.compose(oracle.compose(oracle.inverse(t), x), t) for x in members for t in gens}
    assert conjugates <= set(members)
    assert Counter(c.size for c in q.conjugacy_classes()) == _quotient_class_sizes(
        elements, members
    )
    report = verify_main_theorem(g, lemma_seed=0)
    assert report.verdict != VERDICT_COUNTEREXAMPLE
    assert {r.status for r in report.lemma_results.values()} == {STATUS_PASS}
