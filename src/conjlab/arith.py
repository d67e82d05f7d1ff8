"""Divisibility combinatorics on finite sets of positive integers.

These are the arithmetic primitives behind class-size analysis: p-parts,
maximal/minimal elements under divisibility, the divisibility digraph and
its weak components, set products, and the search for factorizations
N = Omega x {1, n} satisfying the coprimality/disconnectedness hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, NamedTuple

IntSet = frozenset


def _check_sizes(s: AbstractSet[int], *, allow_empty: bool = False) -> frozenset:
    out = frozenset(int(a) for a in s)
    if not out and not allow_empty:
        raise ValueError("expected a nonempty set of positive integers")
    if any(a < 1 for a in out):
        raise ValueError("set members must be positive integers")
    return out


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_divisors(k: int) -> frozenset:
    """Set of primes dividing k; rejects k < 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    out = set()
    n = k
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return frozenset(out)


def p_part(k: int, p: int) -> int:
    """Largest power of p dividing k."""
    if k == 0:
        raise ValueError("k must be nonzero")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    out = 1
    n = abs(k)
    while n % p == 0:
        out *= p
        n //= p
    return out


def max_elements(s: AbstractSet[int]) -> frozenset:
    """Members of s dividing no other member (maximal under divisibility)."""
    vals = _check_sizes(s, allow_empty=True)
    return frozenset(a for a in vals if not any(b != a and b % a == 0 for b in vals))


def min_elements(s: AbstractSet[int]) -> frozenset:
    """Members of s divisible by no other member (minimal under divisibility)."""
    vals = _check_sizes(s, allow_empty=True)
    return frozenset(a for a in vals if not any(b != a and a % b == 0 for b in vals))


def is_separated(s: AbstractSet[int]) -> bool:
    """True iff every member has a maximal member it does not divide."""
    vals = _check_sizes(s, allow_empty=True)
    mx = max_elements(vals)
    return all(any(b % a != 0 for b in mx) for a in vals)


class SetProduct(NamedTuple):
    values: frozenset
    collision_free: bool


def set_product(a: AbstractSet[int], b: AbstractSet[int]) -> SetProduct:
    """{x*y : x in a, y in b} plus a flag for |result| == |a|*|b|."""
    av = _check_sizes(a)
    bv = _check_sizes(b)
    vals = frozenset(x * y for x in av for y in bv)
    return SetProduct(vals, len(vals) == len(av) * len(bv))


@dataclass(frozen=True)
class DivisibilityDigraph:
    """Proper-divisibility digraph: edge a -> b iff a != b and a | b."""

    vertices: frozenset
    edges: frozenset

    @property
    def vertex_list(self) -> list[int]:
        return sorted(self.vertices)

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def divisibility_digraph(s: AbstractSet[int]) -> DivisibilityDigraph:
    vals = _check_sizes(s, allow_empty=True)
    edges = frozenset((a, b) for a in vals for b in vals if a != b and b % a == 0)
    return DivisibilityDigraph(vals, edges)


def weak_components(dg: DivisibilityDigraph) -> list[frozenset]:
    """Weakly connected components, sorted by least vertex. Empty graph -> []."""
    comp = {v: frozenset({v}) for v in dg.vertices}
    for a, b in dg.edges:
        if comp[a] is not comp[b]:
            merged = comp[a] | comp[b]
            comp.update(dict.fromkeys(merged, merged))
    return sorted(set(comp.values()), key=min)


def to_dot(dg: DivisibilityDigraph, name: str = "gamma") -> str:
    """Render as DOT with ascending node and edge order."""
    lines = [f"digraph {name} {{"]
    for v in dg.vertex_list:
        lines.append(f'    {v} [label="{v}"];')
    for a, b in dg.edge_list:
        lines.append(f"    {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Factorization:
    """A witness N = omega x {1, n} with n > 1 coprime to omega \\ {1}."""

    omega: frozenset
    n: int

    def __post_init__(self):
        if self.n <= 1:
            raise ValueError("n must exceed 1")
        if 1 not in self.omega:
            raise ValueError("omega must contain 1")
        if any(math.gcd(a, self.n) != 1 for a in self.omega if a != 1):
            raise ValueError("omega \\ {1} must be coprime to n")


def find_hypothesis_factorizations(sizes: AbstractSet[int]) -> list[Factorization]:
    """All (omega, n) with sizes = omega x {1, n}, gcd(n, omega \\ {1}) = 1,
    and the divisibility digraph of omega \\ {1} disconnected.

    For fixed n the candidate omega is forced: every member coprime to n must
    lie in omega and no other member may, so the search is one pass over
    n in sizes \\ {1} (ascending; omega is unique per n).
    """
    vals = _check_sizes(sizes)
    if 1 not in vals:
        raise ValueError("a class-size set must contain 1")
    out = []
    for n in sorted(vals - {1}):
        omega = frozenset(a for a in vals if a == 1 or math.gcd(a, n) == 1)
        core = omega - {1}
        if len(core) < 2:
            continue
        prod = set_product(omega, frozenset({1, n}))
        if prod.values != vals or not prod.collision_free:
            continue
        if len(weak_components(divisibility_digraph(core))) < 2:
            continue
        out.append(Factorization(omega, n))
    return out
