"""Element tables, bases and conjugacy classes against the slow paths they
replaced, and against the oracle on random groups."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conjlab import group as group_module
from conjlab.corpus import _order_up_to, build, builtin_corpus, parse_spec
from conjlab.errors import CapExceeded, InvalidPermutation
from conjlab.group import Group, group_from_generators
from conjlab.perm import Perm
from conjlab.theorem import STATUS_PASS, VERDICT_COUNTEREXAMPLE, verify_main_theorem

BUILTIN = [s.name for s in builtin_corpus()]


def _fully_sorted(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


# ----- table order ---------------------------------------------------------------


@pytest.mark.parametrize("spec", BUILTIN)
def test_prefix_sort_matches_a_full_lexsort(spec):
    g = build(parse_spec(spec))
    assert np.array_equal(g._rows, _fully_sorted(g._rows))


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


@pytest.mark.parametrize("extra", [0, 5])
def test_duplicate_rows_are_refused(extra):
    # a second identity row is fixed by every point and still terminates
    g = build(parse_spec("symmetric:4"))
    with pytest.raises(InvalidPermutation, match="duplicate rows"):
        Group(np.vstack([g._rows, g._rows[extra : extra + 1]]), [], "dup")


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


# the benchmark groups that are not builtin
_BENCHMARK_SPECS = [
    "symmetric:8",
    "heisenberg:13",
    "direct:symmetric:5+heisenberg:7",
    "frobenius:101,100",
    "dihedral:500",
]


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


_CLASS_SPECS = [s.name for s in builtin_corpus() if _order_up_to(s, 1000) <= 1000] + [
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
