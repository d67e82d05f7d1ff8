"""Independent brute-force oracle used to cross-check the engine.

Everything here is deliberately naive pure Python: tuple permutations,
multiplication by composition, closure by repeated products, and class
sizes obtained by counting centralizer orders directly.  No imports from
the package under test.  Two functions take a Group, as references that
its own methods are held to: the plain map BFS, map_bfs_closed_mask, which
gathers through its index maps, and composition_series_by_recursion, which
rebuilds each level of the series as a Group.  A third, class_members,
reads a Group's classes out of its class table for the tests.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def compose(p: tuple, q: tuple) -> tuple:
    # apply p first, then q
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity(degree: int) -> tuple:
    return tuple(range(degree))


def closure(gens: list[tuple]) -> list[tuple]:
    degree = len(gens[0])
    seen = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def map_bfs_closed_mask(g, gen_indices, seed_mask=None) -> np.ndarray:
    """Member mask of the subgroup of Group g that the indexed members
    generate, with the signature of Group._closed_mask.

    The plain BFS: mark the identity and the seed, then gather each
    frontier through every generator's right-multiplication map
    (g._rmul_map) until a level marks nothing new.  No power chains.
    """
    mask = np.zeros(g.order, dtype=bool)
    mask[0] = True
    if seed_mask is not None:
        mask |= seed_mask
    maps = [g._rmul_map(int(s)) for s in gen_indices]
    frontier = np.flatnonzero(mask)
    while frontier.size:
        reached = np.concatenate([frontier[:0]] + [m[frontier] for m in maps])
        frontier = np.unique(reached[~mask[reached]])
        mask[frontier] = True
    return mask


def composition_series_by_recursion(g, budget: int) -> tuple[list, list]:
    """Composition series of Group g, bottom up, as (indices, generators)
    pairs, and its factors as (order, is_abelian) pairs.

    The series recurses: the largest proper normal subgroup M, ties broken
    by least index list, is rebuilt as a Group with Subgroup.as_group, its
    own series is found, and members and generators are mapped back through
    M's sorted indices.  G/M is abelian iff M holds the commutator of every
    pair of g's generators, composed here as tuples and found by index_of.
    """
    top = (np.arange(g.order, dtype=np.int64), list(g._gen_idx))
    if g.order == 1:
        return [top], []
    proper = [s for s in g.normal_subgroups(budget) if s.order < g.order]
    m = min(proper, key=lambda s: (-s.order, s.indices.tolist()))
    below, factors = composition_series_by_recursion(m.as_group(), budget)
    series = [(m.indices[idx], [int(m.indices[i]) for i in gens]) for idx, gens in below]
    gens = [g.element(i).images for i in top[1]]
    mask = m.mask()
    abelian = all(
        mask[g.index_of(np.array(compose(compose(compose(inverse(x), inverse(y)), x), y)))]
        for x in gens
        for y in gens
    )
    return series + [top], factors + [(g.order // m.order, abelian)]


def class_members(g) -> list[np.ndarray]:
    """Member indices of each class of Group g, in class_table order, ascending within."""
    ids, _, sizes = g.class_table()
    return np.split(np.argsort(ids, kind="stable"), np.cumsum(sizes)[:-1])


def centralizer_order(elements: list[tuple], x: tuple) -> int:
    return sum(1 for g in elements if compose(g, x) == compose(x, g))


def centralizer(elements: list[tuple], x: tuple) -> list[int]:
    """Positions of the elements that commute with x, compared on every point."""
    return [
        k
        for k, g in enumerate(elements)
        if all(x[g[i]] == g[x[i]] for i in range(len(x)))
    ]


def class_sizes(elements: list[tuple]) -> dict[int, int]:
    """Class size -> number of classes, via centralizer-order counting.

    |x^G| = |G| / |C(x)| for each x; each class of size s contributes s
    elements, so the per-element tally divides out exactly.
    """
    n = len(elements)
    per_element: dict[int, int] = {}
    for x in elements:
        s = n // centralizer_order(elements, x)
        per_element[s] = per_element.get(s, 0) + 1
    return {s: count // s for s, count in per_element.items()}


def element_order(p: tuple) -> int:
    e = identity(len(p))
    q, k = p, 1
    while q != e:
        q = compose(q, p)
        k += 1
    return k


def row_index(rows, target: tuple) -> int:
    """Position of target in a sequence of image rows by linear scan, or -1."""
    for i, row in enumerate(rows):
        if tuple(row) == target:
            return i
    return -1


def conjugacy_classes(elements: list[tuple]) -> list[set[tuple]]:
    elems = set(elements)
    remaining = set(elements)
    out = []
    while remaining:
        x = next(iter(remaining))
        cls = {compose(compose(inverse(g), x), g) for g in elems}
        out.append(cls)
        remaining -= cls
    return out


def is_subgroup(elements: list[tuple], subset: set[tuple]) -> bool:
    if identity(len(elements[0])) not in subset:
        return False
    return all(compose(a, b) in subset for a in subset for b in subset)


def is_normal(elements: list[tuple], subset: set[tuple]) -> bool:
    return all(
        compose(compose(inverse(g), x), g) in subset
        for x in subset
        for g in elements
    )


def normal_subgroup_orders(elements: list[tuple]) -> list[int]:
    """Orders of all normal subgroups, by exhaustive union-of-classes search.

    Only viable for very small groups: tries every union of conjugacy
    classes containing the identity class.
    """
    from itertools import combinations

    classes = conjugacy_classes(elements)
    e = identity(len(elements[0]))
    id_cls = next(c for c in classes if e in c)
    rest = [c for c in classes if e not in c]
    orders = []
    for r in range(len(rest) + 1):
        for pick in combinations(rest, r):
            subset = set(id_cls)
            for c in pick:
                subset |= c
            if len(elements) % len(subset) == 0 and is_subgroup(elements, subset):
                orders.append(len(subset))
    return sorted(orders)


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def coprime(a: int, b: int) -> bool:
    return gcd(a, b) == 1


# --- independent generator constructions (never via the package) --------------


def cyclic_gens(n: int) -> list[tuple]:
    return [tuple((i + 1) % n for i in range(n))]


def dihedral_gens(n: int) -> list[tuple]:
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((n - i) % n for i in range(n))
    return [rot, flip]


def symmetric_gens(n: int) -> list[tuple]:
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple((i + 1) % n for i in range(n))
    return [swap, cyc]


def alternating_gens(n: int) -> list[tuple]:
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)])
    return [three, big]


def heisenberg_gens(p: int) -> list[tuple]:
    """Upper unitriangular 3x3 matrices over F_p in their regular action.

    Point (a,b,c) sits at index a*p*p + b*p + c; right multiplication by
    (x,y,z) sends it to (a+x, b+y, c+z+a*y) mod p.
    """

    def right_mult(x: int, y: int, z: int) -> tuple:
        out = []
        for idx in range(p * p * p):
            a, rem = divmod(idx, p * p)
            b, c = divmod(rem, p)
            na, nb, nc = (a + x) % p, (b + y) % p, (c + z + a * y) % p
            out.append(na * p * p + nb * p + nc)
        return tuple(out)

    return [right_mult(1, 0, 0), right_mult(0, 1, 0)]


def heisenberg_elements(p: int) -> list[tuple]:
    return closure(heisenberg_gens(p))


def frobenius_gens(p: int, q: int) -> list[tuple]:
    """x -> x+1 and x -> m*x on Z/p, with m of multiplicative order q."""
    shift = tuple((i + 1) % p for i in range(p))
    m = None
    for cand in range(2, p):
        k, acc = 1, cand
        while acc != 1:
            acc = acc * cand % p
            k += 1
        if k == q:
            m = cand
            break
    assert m is not None
    scale = tuple(i * m % p for i in range(p))
    return [shift, scale]


def direct_product_elements(xs: list[tuple], ys: list[tuple]) -> list[tuple]:
    dx = len(xs[0])
    out = []
    for a in xs:
        for b in ys:
            out.append(tuple(a) + tuple(v + dx for v in b))
    return out
