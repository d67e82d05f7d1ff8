"""Closed-form answers derived from a group's spec string alone.

Nothing here imports conjlab.  Each family's conjugacy classes are listed
from textbook formulas as (class size, element order) -> number of classes:

- cyclic n: phi(d) classes of size 1 and order d for each d | n;
- dihedral n (order 2n): rotation pairs {r^k, r^-k} of size 2, the central
  rotations, and the reflections (one class of size n for odd n, two of
  size n/2 for even n);
- symmetric n: one class per partition, size n!/z(lambda), order the lcm
  of the parts;
- alternating n: the even partitions, a class splitting into two halves
  exactly when its parts are distinct and odd;
- heisenberg p: p central classes and p^2 - 1 classes of size p, all of
  order p apart from the identity;
- frobenius p,q (order pq): (p-1)/q translation classes of size q and, for
  each d | q with d > 1, phi(d) multiplier classes of size p and order d;
- direct products: sizes multiply and orders take the lcm.

Everything else a checker needs (class-size sets, element orders, p-part
patterns, divisibility components, hypothesis factorizations) is computed
from those lists by brute force.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial, gcd, lcm, prod

ClassList = Counter  # (size, order) -> number of classes


def parse(spec: str) -> tuple[str, tuple]:
    """('direct', (part specs...)) or (family, integer parameters)."""
    kind, _, rest = spec.partition(":")
    if kind == "direct":
        return kind, tuple(rest.split("+"))
    return kind, tuple(int(v) for v in rest.split(","))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _z(parts: tuple) -> int:
    """Centralizer order in S_n of a permutation of the given cycle type."""
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


def class_list(spec: str) -> ClassList:
    kind, params = parse(spec)
    out: ClassList = Counter()
    if kind == "direct":
        acc = Counter({(1, 1): 1})
        for part in params:
            nxt: ClassList = Counter()
            for (s1, o1), c1 in acc.items():
                for (s2, o2), c2 in class_list(part).items():
                    nxt[(s1 * s2, lcm(o1, o2))] += c1 * c2
            acc = nxt
        return acc
    if kind == "cyclic":
        (n,) = params
        for d in _divisors(n):
            out[(1, d)] += _phi(d)
    elif kind == "dihedral":
        (n,) = params
        for d in _divisors(n):
            if d <= 2:
                out[(1, d)] += 1
            else:
                out[(2, d)] += _phi(d) // 2
        if n % 2:
            out[(n, 2)] += 1
        else:
            out[(n // 2, 2)] += 2
    elif kind == "symmetric":
        (n,) = params
        for lam in _partitions(n):
            out[(factorial(n) // _z(lam), lcm(*lam))] += 1
    elif kind == "alternating":
        (n,) = params
        if n <= 2:
            out[(1, 1)] += 1
        for lam in _partitions(n) if n > 2 else ():
            if (n - len(lam)) % 2:
                continue
            size = factorial(n) // _z(lam)
            if len(set(lam)) == len(lam) and all(v % 2 for v in lam):
                out[(size // 2, lcm(*lam))] += 2
            else:
                out[(size, lcm(*lam))] += 1
    elif kind == "heisenberg":
        (p,) = params
        out[(1, 1)] += 1
        out[(1, p)] += p - 1
        out[(p, p)] += p * p - 1
    elif kind == "frobenius":
        p, q = params
        out[(1, 1)] += 1
        out[(q, p)] += (p - 1) // q
        for d in _divisors(q)[1:]:
            out[(p, d)] += _phi(d)
    else:
        raise ValueError(f"no closed form for {spec!r}")
    return +out


def group_order(spec: str) -> int:
    """|G| from the family formula: n, 2n, n!, n!/2, p^3, pq, products."""
    kind, params = parse(spec)
    if kind == "direct":
        return prod(group_order(part) for part in params)
    if kind == "cyclic":
        return params[0]
    if kind == "dihedral":
        return 2 * params[0]
    if kind == "symmetric":
        return factorial(params[0])
    if kind == "alternating":
        return max(factorial(params[0]) // 2, 1)
    if kind == "heisenberg":
        return params[0] ** 3
    if kind == "frobenius":
        return params[0] * params[1]
    raise ValueError(f"no closed form for {spec!r}")


def size_multiplicities(classes: ClassList) -> dict[int, int]:
    """Class size -> number of classes of that size."""
    out: Counter = Counter()
    for (size, _), count in classes.items():
        out[size] += count
    return dict(out)


def element_orders(classes: ClassList) -> set[int]:
    return {order for (_, order) in classes}


def primes_of(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _is_p_power(n: int, p: int) -> bool:
    return p_part(n, p) == n


def p_pattern(classes: ClassList, p: int) -> tuple[str, int | None, tuple]:
    """(kind, exponent, parts) of the p-parts of the class sizes.

    mixed: two or more parts above 1; otherwise uniform, and active when
    some class of p-power order has size divisible by p.
    """
    parts = tuple(sorted({p_part(size, p) for (size, _) in classes}))
    above = [v for v in parts if v > 1]
    if len(above) > 1:
        return "mixed", None, parts
    if not above:
        return "uniform_inert", None, parts
    exponent = 0
    while p**exponent != above[0]:
        exponent += 1
    active = any(
        size % p == 0 and _is_p_power(order, p) for (size, order) in classes
    )
    return ("uniform_active" if active else "uniform_inert"), exponent, parts


def divisibility_components(values: set[int]) -> int:
    """Number of weak components of the proper-divisibility digraph."""
    left, count = set(values), 0
    while left:
        count += 1
        todo = [left.pop()]
        while todo:
            a = todo.pop()
            linked = {b for b in left if a % b == 0 or b % a == 0}
            left -= linked
            todo.extend(linked)
    return count


def hypothesis_factorizations(sizes: set[int]) -> list[tuple[frozenset, int]]:
    """Every (omega, n) with sizes = omega x {1, n} by exhaustive subset search.

    omega contains 1, every member of omega other than 1 is coprime to
    n > 1, the products are pairwise distinct, and omega minus 1 splits
    into at least two divisibility components.
    """
    out = []
    rest = sorted(sizes - {1})
    for n in rest:
        for r in range(2, len(rest) + 1):
            for core in combinations(rest, r):
                if any(gcd(a, n) != 1 for a in core):
                    continue
                omega = frozenset(core) | {1}
                products = [a * b for a in omega for b in (1, n)]
                if len(set(products)) != len(products) or set(products) != sizes:
                    continue
                if divisibility_components(set(core)) < 2:
                    continue
                out.append((omega, n))
    return sorted(out, key=lambda f: f[1])
