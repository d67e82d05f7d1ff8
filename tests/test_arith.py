"""Integer-set combinatorics: pinned examples plus property tests."""

import itertools
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from conjlab.arith import (
    DivisibilityDigraph,
    Factorization,
    divisibility_digraph,
    find_hypothesis_factorizations,
    is_prime,
    is_separated,
    max_elements,
    min_elements,
    p_part,
    prime_divisors,
    set_product,
    to_dot,
    weak_components,
)

small_sets = st.frozensets(st.integers(min_value=1, max_value=60), min_size=1, max_size=8)


def test_prime_divisors_pinned():
    assert prime_divisors(1) == frozenset()
    assert prime_divisors(60) == {2, 3, 5}
    assert prime_divisors(343) == {7}


def test_prime_divisors_rejects_zero():
    with pytest.raises(ValueError):
        prime_divisors(0)


def test_p_part_pinned():
    assert p_part(12, 2) == 4
    assert p_part(12, 5) == 1
    assert p_part(20580, 7) == 343


def test_p_part_rejects_composite_p():
    with pytest.raises(ValueError):
        p_part(12, 6)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)


def test_max_min_pinned():
    assert max_elements({1, 2, 4, 6}) == {4, 6}
    assert min_elements({1, 2, 4, 6}) == {1}
    assert max_elements({12, 15, 20}) == {12, 15, 20}
    assert min_elements({12, 15, 20}) == {12, 15, 20}
    assert max_elements({7}) == {7}
    assert min_elements({7}) == {7}


def test_separated_pinned():
    assert is_separated({12, 15, 20})
    assert not is_separated({2, 4})
    assert not is_separated({1, 5})
    assert not is_separated({7})


@given(small_sets)
def test_max_min_are_members_and_cover(s):
    mx, mn = max_elements(s), min_elements(s)
    assert mx <= s and mn <= s
    for a in s:
        assert any(b % a == 0 for b in mx)
        assert any(a % b == 0 for b in mn)


@given(small_sets)
def test_separated_definition(s):
    mx = max_elements(s)
    expect = all(any(b % a != 0 for b in mx) for a in s)
    assert is_separated(s) == expect


def test_set_product_pinned():
    r = set_product({1, 4, 5}, {1, 3})
    assert r.values == {1, 3, 4, 5, 12, 15} and r.collision_free
    r = set_product({1}, {3, 7})
    assert r.values == {3, 7} and r.collision_free
    r = set_product({1, 2}, {1, 2})
    assert r.values == {1, 2, 4} and not r.collision_free


@given(small_sets, small_sets)
def test_set_product_matches_brute_force(a, b):
    r = set_product(a, b)
    brute = {x * y for x in a for y in b}
    assert r.values == brute
    assert r.collision_free == (len(brute) == len(a) * len(b))


def test_digraph_pinned():
    g = divisibility_digraph({12, 15, 20})
    assert g.vertices == {12, 15, 20} and g.edges == frozenset()
    g = divisibility_digraph({3, 6, 8})
    assert g.edges == {(3, 6)}
    g = divisibility_digraph({9})
    assert g.vertices == {9} and g.edges == frozenset()


@given(small_sets)
def test_digraph_edges_exact(s):
    g = divisibility_digraph(s)
    for a, b in itertools.permutations(s, 2):
        assert ((a, b) in g.edges) == (b % a == 0)


def test_weak_components_pinned():
    comps = weak_components(divisibility_digraph({12, 15, 20}))
    assert [sorted(c) for c in comps] == [[12], [15], [20]]
    comps = weak_components(divisibility_digraph({3, 6, 8}))
    assert [sorted(c) for c in comps] == [[3, 6], [8]]
    comps = weak_components(divisibility_digraph({2, 4, 8}))
    assert [sorted(c) for c in comps] == [[2, 4, 8]]
    assert weak_components(DivisibilityDigraph(frozenset(), frozenset())) == []


def _components_by_bfs(dg):
    """Weak components by breadth-first search over the undirected edges."""
    nbrs = {v: set() for v in dg.vertices}
    for a, b in dg.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    comps, seen = [], set()
    for v in sorted(dg.vertices):
        if v not in seen:
            comp, frontier = {v}, [v]
            while frontier:
                frontier = [w for u in frontier for w in nbrs[u] if w not in comp]
                comp.update(frontier)
            seen |= comp
            comps.append(frozenset(comp))
    return comps


@given(st.frozensets(st.integers(min_value=1, max_value=200), max_size=20))
@example(frozenset())
def test_weak_components_match_bfs(s):
    dg = divisibility_digraph(s)
    assert weak_components(dg) == _components_by_bfs(dg)


@given(small_sets)
def test_weak_components_partition(s):
    comps = weak_components(divisibility_digraph(s))
    seen = set()
    for c in comps:
        assert c and not (c & seen)
        seen |= c
    assert seen == s


def test_to_dot_shape():
    text = to_dot(divisibility_digraph({3, 6, 8}))
    assert text.startswith("digraph gamma {")
    assert '3 [label="3"];' in text
    assert "3 -> 6;" in text
    assert "8 -> 3" not in text
    assert text.rstrip().endswith("}")


def test_factorization_validation():
    Factorization(frozenset({1, 4, 5}), 3)
    with pytest.raises(ValueError):
        Factorization(frozenset({4, 5}), 3)  # 1 missing
    with pytest.raises(ValueError):
        Factorization(frozenset({1, 4, 5}), 1)  # n too small
    with pytest.raises(ValueError):
        Factorization(frozenset({1, 3, 5}), 3)  # gcd(3,3) > 1


def oracle_factorizations(n_of_g: frozenset) -> list:
    """Literal exhaustive search over every n in the set and every subset."""
    values = sorted(n_of_g)
    out = []
    for n in values:
        if n == 1:
            continue
        for r in range(1, len(values) + 1):
            for omega in itertools.combinations(values, r):
                om = frozenset(omega)
                if 1 not in om:
                    continue
                if any(gcd(n, a) != 1 for a in om - {1}):
                    continue
                if {x * y for x in om for y in (1, n)} != set(values):
                    continue
                if len(om) * 2 != len({x * y for x in om for y in (1, n)}):
                    continue
                comps = weak_components(divisibility_digraph(om - {1}))
                if len(comps) < 2:
                    continue
                out.append((n, om))
    return sorted(out, key=lambda p: (p[0], sorted(p[1])))


def test_factorizations_pinned():
    facs = find_hypothesis_factorizations(frozenset({1, 3, 4, 5, 12, 15}))
    assert [(f.n, f.omega) for f in facs] == [(3, frozenset({1, 4, 5}))]
    assert find_hypothesis_factorizations(frozenset({1, 3, 6, 8})) == []
    assert find_hypothesis_factorizations(frozenset({1})) == []


def test_factorizations_reject_missing_one():
    with pytest.raises(ValueError):
        find_hypothesis_factorizations(frozenset({2, 3}))


def test_factorizations_big_case():
    facs = find_hypothesis_factorizations(frozenset({1, 7, 12, 15, 20, 84, 105, 140}))
    assert [(f.n, f.omega) for f in facs] == [(7, frozenset({1, 12, 15, 20}))]


@given(small_sets)
def test_factorizations_match_exhaustive_oracle(s):
    n_of_g = frozenset(s | {1})
    got = [(f.n, f.omega) for f in find_hypothesis_factorizations(n_of_g)]
    assert got == oracle_factorizations(n_of_g)
