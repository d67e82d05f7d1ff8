"""Builtin group families, spec strings, and persistent scan records.

A GroupSpec names a constructible group: a parametrized family member
(cyclic:12, frobenius:5,4), a disjoint-support product of such
(direct:frobenius:5,4+heisenberg:3), or a .grp file (file:groups/x.grp).
The canonical name of a spec is exactly its spec string, so parse and name
round-trip.  builtin_corpus() fixes the group list that scans and the
acceptance suite run over.

build() writes each family's element table in closed form, already in
table order, and gives it to group_from_generators with the family's
generators, which keeps it in place of an enumeration; only .grp files
are enumerated.

ScanRecord pairs a spec with its verification report, and record_to_line
writes it as one JSONL line with sorted keys.  Scans only write records;
nothing in the package reads them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import divisibility_digraph, is_disconnected, is_prime, prime_divisors
from .errors import CapExceeded, InvalidSpec
from .group import (
    _CELL_LIMIT,
    Group,
    _images_dtype,
    default_element_cap,
    direct_product,
    group_from_generators,
)
from .grpio import load_grp
from .perm import Perm
from .theorem import TheoremReport

ENGINE_VERSION = "0.1.0"

# a heisenberg or frobenius prime above this names a group of order at least
# 2**33, far beyond any element table conjlab can hold
_MAX_PRIME_PARAM = 2**32

_SIMPLE_KINDS = {
    "cyclic": 1,
    "dihedral": 1,
    "symmetric": 1,
    "alternating": 1,
    "heisenberg": 1,
    "frobenius": 2,
}


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    params: tuple = ()
    parts: tuple = ()
    path: str = ""

    @property
    def name(self) -> str:
        if self.kind == "direct":
            return "direct:" + "+".join(p.name for p in self.parts)
        if self.kind == "file":
            return f"file:{self.path}"
        return f"{self.kind}:{','.join(str(v) for v in self.params)}"

    def __str__(self) -> str:
        return self.name


def _validate(spec: GroupSpec) -> None:
    kind, params = spec.kind, spec.params
    if kind == "direct":
        if len(spec.parts) < 2:
            raise InvalidSpec("direct product needs at least two parts")
        for part in spec.parts:
            _validate(part)
        return
    if kind == "file":
        if not spec.path:
            raise InvalidSpec("file spec needs a path")
        return
    if kind not in _SIMPLE_KINDS:
        raise InvalidSpec(f"unknown group kind {kind!r}")
    if len(params) != _SIMPLE_KINDS[kind]:
        raise InvalidSpec(
            f"{kind} takes {_SIMPLE_KINDS[kind]} parameter(s), got {len(params)}"
        )
    if any(v < 1 for v in params):
        raise InvalidSpec(f"{spec.name}: parameters must be positive")
    if kind == "dihedral" and params[0] < 3:
        raise InvalidSpec("dihedral needs n >= 3")
    if kind in ("heisenberg", "frobenius") and params[0] > _MAX_PRIME_PARAM:
        # refused before the trial-division primality test, which would spin
        raise InvalidSpec(f"{kind} needs p <= 2**32, got {params[0]}")
    if kind == "heisenberg":
        p = params[0]
        if p == 2 or not is_prime(p):
            raise InvalidSpec("heisenberg needs an odd prime")
    if kind == "frobenius":
        p, q = params
        if not is_prime(p):
            raise InvalidSpec("frobenius needs p prime")
        if q < 2 or (p - 1) % q != 0:
            raise InvalidSpec("frobenius needs q >= 2 dividing p - 1")


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string; the result's name reproduces the input."""
    text = text.strip()
    if not text:
        raise InvalidSpec("empty group spec")
    kind, _, rest = text.partition(":")
    if kind == "file":
        spec = GroupSpec("file", path=rest)
        _validate(spec)
        return spec
    if kind == "direct":
        if not rest:
            raise InvalidSpec("direct product needs parts")
        parts = []
        for chunk in rest.split("+"):
            part = parse_spec(chunk)
            if part.kind == "direct":
                raise InvalidSpec("direct products do not nest")
            parts.append(part)
        spec = GroupSpec("direct", parts=tuple(parts))
        _validate(spec)
        return spec
    if kind not in _SIMPLE_KINDS:
        raise InvalidSpec(f"unknown group kind {kind!r}")
    if not rest:
        raise InvalidSpec(f"{kind} needs parameters")
    try:
        params = tuple(int(v) for v in rest.split(","))
    except ValueError:
        raise InvalidSpec(f"non-integer parameter in {text!r}") from None
    spec = GroupSpec(kind, params=params)
    _validate(spec)
    return spec


# ----- constructors ---------------------------------------------------------
#
# Each family has a generator function, giving the degree and the generator
# Perms from the parameters alone, and a table function, writing the whole
# element table in closed form: every row in the image dtype of its degree,
# the rows in table (lexicographic) order, and no temporary larger than the
# table beyond arrays of one entry per row.


def _windows(row: np.ndarray) -> np.ndarray:
    """Read-only view whose window s is row[s:] + row[:s], for s <= len(row)."""
    return sliding_window_view(np.concatenate([row, row]), len(row))


def _cyclic_gens(n: int) -> tuple[int, list[Perm]]:
    return n, [Perm.from_cycles([tuple(range(n))], n)]


def _cyclic_table(n: int) -> np.ndarray:
    # row j is i -> i + j
    return _windows(np.arange(n, dtype=_images_dtype(n)))[:n].copy()


def _dihedral_gens(n: int) -> tuple[int, list[Perm]]:
    rot = Perm((np.arange(n) + 1) % n)
    flip = Perm((n - np.arange(n)) % n)
    return n, [rot, flip]


def _dihedral_table(n: int) -> np.ndarray:
    # the rotation i -> i + j and the reflection i -> j - i both send 0 to j;
    # the reflection sends 1 to the smaller point unless j is 0 or n - 1
    dtype = _images_dtype(n)
    rotations = _windows(np.arange(n, dtype=dtype))[:n]
    reflections = _windows(np.arange(n - 1, -1, -1, dtype=dtype))[n - 1 :: -1]
    out = np.empty((n, 2, n), dtype=dtype)
    out[:, 0], out[:, 1] = reflections, rotations
    ends = [0, n - 1]
    out[ends, 0], out[ends, 1] = rotations[ends], reflections[ends]
    return out.reshape(2 * n, n)


def _symmetric_gens(n: int) -> tuple[int, list[Perm]]:
    if n < 2:
        return max(n, 1), []
    gens = [Perm.from_cycles([(0, 1)], n)]
    if n > 2:
        gens.append(Perm.from_cycles([tuple(range(n))], n))
    return n, gens


def _alternating_gens(n: int) -> tuple[int, list[Perm]]:
    if n < 3:
        return max(n, 1), []
    gens = [Perm.from_cycles([(0, 1, 2)], n)]
    if n > 3:
        if n % 2 == 1:
            gens.append(Perm.from_cycles([tuple(range(n))], n))
        else:
            gens.append(Perm.from_cycles([tuple(range(1, n))], n))
    return n, gens


def _permutation_table(n: int, even: bool) -> np.ndarray:
    """All permutations of 0..n-1, or only the even ones, in lexicographic order.

    Built up by degree: the permutations starting with f are f followed by
    those of degree m - 1 with every image >= f raised by one.  The leading
    f adds f inversions, so each row's parity is carried along, and the
    even ones of the last degree take only tails of f's parity.
    """
    dtype = _images_dtype(n)
    rows, odd = np.zeros((1, 0), dtype=dtype), np.zeros(1, dtype=bool)
    for m in range(1, n + 1):
        keep = (~odd, odd) if even and m == n else (np.ones_like(odd),) * 2
        sizes = [int(keep[f % 2].sum()) for f in range(m)]
        out = np.empty((sum(sizes), m), dtype=dtype)
        out_odd = np.empty(len(out), dtype=bool)
        start = 0
        for f, size in enumerate(sizes):
            block = out[start : start + size]
            block[:, 0] = f
            block[:, 1:] = rows[keep[f % 2]]
            block[:, 1:] += block[:, 1:] >= f
            out_odd[start : start + size] = odd[keep[f % 2]] ^ bool(f % 2)
            start += size
        rows, odd = out, out_odd
    return rows


def _heisenberg_gens(p: int) -> tuple[int, list[Perm]]:
    # elements are triples (a, b, c) mod p at index a*p^2 + b*p + c, with
    # (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2); generators act by
    # right multiplication on the element list (the regular representation)
    n = p**3
    i = np.arange(n)
    a, rem = np.divmod(i, p * p)
    b, c = np.divmod(rem, p)

    def right_mult(ga: int, gb: int, gc: int) -> Perm:
        return Perm(
            ((a + ga) % p) * p * p + ((b + gb) % p) * p + (c + gc + a * gb) % p
        )

    return n, [right_mult(1, 0, 0), right_mult(0, 1, 0)]


def _heisenberg_table(p: int) -> np.ndarray:
    # row g = (ga, gb, gc) is right multiplication by g; it sends the identity
    # to g, so the rows come in the order of g's index
    n = p**3
    dtype = _images_dtype(n)
    r = np.arange(p)
    shift = (r[:, None] + r) % p  # shift[g, x] = (x + g) % p
    # the two low digits, ((b + gb) % p) * p + (c + gc + a*gb) % p, by (gb, gc, a, b, c)
    low = np.empty((p,) * 5, dtype=dtype)
    low[...] = (shift * p)[:, None, None, :, None]
    central = (r[:, None, None, None] * r[:, None] + r[:, None, None] + r) % p  # (gb, gc, a, c)
    low += central.astype(dtype)[:, :, :, None, :]
    out = np.empty((p,) * 6, dtype=dtype)  # (ga, gb, gc, a, b, c)
    np.add(low, (shift * p * p).astype(dtype)[:, None, None, :, None, None], out=out)
    return out.reshape(n, n)


def _frobenius_multiplier(p: int, q: int) -> int:
    """The smallest x mod p of multiplicative order exactly q (q divides p - 1)."""
    return next(
        x
        for x in range(2, p)
        if pow(x, q, p) == 1 and all(pow(x, q // r, p) != 1 for r in prime_divisors(q))
    )


def _frobenius_gens(p: int, q: int) -> tuple[int, list[Perm]]:
    # translation plus the smallest multiplier of exact order q mod p
    m = _frobenius_multiplier(p, q)
    shift = Perm((np.arange(p) + 1) % p)
    scale = Perm(np.arange(p) * m % p)
    return p, [shift, scale]


def _frobenius_table(p: int, q: int) -> np.ndarray:
    # the rows are the maps x -> u*x + t, u = m^j, sorted by their images of
    # 0 and 1: t, then (u + t) % p.  As u*x + t = u*(x + s) with s = t/u, the
    # row of (u, t) is window s of the row x -> u*x: window s is the row of t = s*u
    m = _frobenius_multiplier(p, q)
    powers = np.array([pow(m, j, p) for j in range(q)], dtype=np.int64)
    t = np.arange(p, dtype=np.int64)
    order = np.argsort((t[:, None] * p + (powers + t[:, None]) % p).ravel())
    position = np.empty(p * q, dtype=np.int64)
    position[order] = np.arange(p * q)
    position = position.reshape(p, q)
    out = np.empty((p * q, p), dtype=_images_dtype(p))
    for j, u in enumerate(powers.tolist()):
        out[position[t * u % p, j]] = _windows((t * u % p).astype(out.dtype))[:p]
    return out


def _order_up_to(spec: GroupSpec, cap: int) -> int | None:
    """Order of the group a family spec names, or None for a .grp file.

    A factorial stops growing once it passes the cap, so a huge symmetric
    or alternating degree costs nothing; any returned value above the cap
    is then only a lower bound.
    """
    if spec.kind == "file":
        return None
    if spec.kind == "direct":
        orders = [_order_up_to(part, cap) for part in spec.parts]
        return None if None in orders else prod(orders)
    if spec.kind in ("cyclic", "frobenius"):
        return prod(spec.params)
    n = spec.params[0]
    if spec.kind == "dihedral":
        return 2 * n
    if spec.kind == "heisenberg":
        return n**3
    # n! for symmetric, n!/2 = 3 * 4 * ... * n for alternating (1 below n = 2)
    order, k = 1, 2 if spec.kind == "symmetric" else 3
    while k <= n and order <= cap:
        order *= k
        k += 1
    return order


_BUILDERS = {
    "cyclic": _cyclic_gens,
    "dihedral": _dihedral_gens,
    "symmetric": _symmetric_gens,
    "alternating": _alternating_gens,
    "heisenberg": _heisenberg_gens,
    "frobenius": _frobenius_gens,
}

_TABLES = {
    "cyclic": _cyclic_table,
    "dihedral": _dihedral_table,
    "symmetric": lambda n: _permutation_table(n, even=False),
    "alternating": lambda n: _permutation_table(n, even=True),
    "heisenberg": _heisenberg_table,
    "frobenius": _frobenius_table,
}


def build(spec: GroupSpec, cap: int | None = None) -> Group:
    """Construct the group a spec names, within the cap.

    A family's table is written in closed form (_TABLES) and handed to
    group_from_generators with the family's generators, which keeps it;
    only a .grp file is enumerated.
    A family whose order, known from its parameters, passes the cap is
    refused before any permutation is made, and one whose order x degree
    table passes _CELL_LIMIT as soon as its generators give the degree,
    before any table is built.  A direct product is measured whole: the
    product of its part orders times the sum of their degrees.
    """
    _validate(spec)
    if cap is None:
        cap = default_element_cap()
    order = _order_up_to(spec, cap)
    if order is not None and order > cap:
        raise CapExceeded(f"{spec.name}: group order passes the element cap of {cap}")
    if spec.kind == "file":
        return load_grp(spec.path, cap=cap)
    if order is None:  # a direct product with a .grp part, measured part by part
        factors = [build(part, cap=cap) for part in spec.parts]
    else:
        parts = spec.parts if spec.kind == "direct" else (spec,)
        made = [_BUILDERS[part.kind](*part.params) for part in parts]
        degree = sum(d for d, _ in made)
        if order * degree > _CELL_LIMIT:
            raise CapExceeded(
                f"{spec.name}: its table of {order} x {degree} cells passes the cell "
                f"limit of {_CELL_LIMIT}"
            )
        factors = [
            group_from_generators(
                d, gens, cap=cap, name=part.name, table=_TABLES[part.kind](*part.params)
            )
            for part, (d, gens) in zip(parts, made)
        ]
    g = factors[0]
    for h in factors[1:]:
        g = direct_product(g, h, cap=cap)
    g.name = spec.name
    return g


# ----- the builtin corpus -----------------------------------------------------

_PRODUCT_FIRST_FACTORS = ("frobenius:5,4", "frobenius:7,3", "alternating:5")
_CYCLIC_PICKS = (2, 3, 7, 11)

# class-size sets of the first factors, frozen from the engine and re-checked
# by the test suite before use
_FIRST_FACTOR_SIZES = {
    "frobenius:5,4": frozenset({1, 4, 5}),
    "frobenius:7,3": frozenset({1, 3, 7}),
    "alternating:5": frozenset({1, 12, 15, 20}),
}
_FIRST_FACTOR_ORDERS = {
    "frobenius:5,4": 20,
    "frobenius:7,3": 21,
    "alternating:5": 60,
}


def builtin_corpus() -> list[GroupSpec]:
    """The fixed spec list that scans and the acceptance suite run over.

    Small families cover cyclic and dihedral groups through order 40, the
    small symmetric/alternating groups, two extraspecial groups and four
    Frobenius groups.  Products pair the nonabelian first factors with
    second factors meeting the coprimality hypothesis: an extraspecial
    group of order p^3 qualifies when p is coprime to every nontrivial
    class size of the first factor (and those sizes are disconnected), and
    cyclic picks qualify when their order is coprime to the factor's order.
    """
    specs = [parse_spec(f"cyclic:{n}") for n in range(1, 41)]
    specs += [parse_spec(f"dihedral:{n}") for n in range(3, 21)]
    specs += [parse_spec(s) for s in ("symmetric:3", "symmetric:4", "symmetric:5")]
    specs += [parse_spec(s) for s in ("alternating:4", "alternating:5")]
    specs += [parse_spec(s) for s in ("heisenberg:3", "heisenberg:7")]
    specs += [
        parse_spec(s)
        for s in ("frobenius:5,4", "frobenius:7,3", "frobenius:7,6", "frobenius:13,3")
    ]
    for first in _PRODUCT_FIRST_FACTORS:
        sizes = _FIRST_FACTOR_SIZES[first] - {1}
        for p in (3, 7):
            if all(gcd(p, a) == 1 for a in sizes) and is_disconnected(
                divisibility_digraph(sizes)
            ):
                specs.append(parse_spec(f"direct:{first}+heisenberg:{p}"))
        for q in _CYCLIC_PICKS:
            if gcd(q, _FIRST_FACTOR_ORDERS[first]) == 1:
                specs.append(parse_spec(f"direct:{first}+cyclic:{q}"))
    return specs


# ----- scan records ------------------------------------------------------------


@dataclass
class ScanRecord:
    """One scanned group: its spec, report (or error), and provenance."""

    spec: str
    report: TheoremReport | None
    engine_version: str = ENGINE_VERSION
    timestamp: str = ""
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "report": self.report.to_dict() if self.report is not None else None,
            "engine_version": self.engine_version,
            "timestamp": self.timestamp,
            "error": self.error,
        }


def record_to_line(rec: ScanRecord) -> str:
    return json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":"))
