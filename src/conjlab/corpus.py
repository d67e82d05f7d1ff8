"""Builtin group families, spec strings, and persistent scan records.

A GroupSpec names a constructible group: a parametrized family member
(cyclic:12, frobenius:5,4), a disjoint-support product of such
(direct:frobenius:5,4+heisenberg:3), or a .grp file (file:groups/x.grp).
A GroupSpec checks itself when it is made, so one that exists can be
built; parse_spec only splits the text.  The canonical name of a spec is
exactly its spec string, so parse and name round-trip.  builtin_corpus()
fixes the group list that scans and the acceptance suite run over.

Each builtin family is one _FAMILIES entry: its arity, its parameter
check, its order, its generators and its element table.  build() writes
the table in closed form, already in table order, and gives it to
group_from_generators with the family's generators, which keeps it in
place of an enumeration; only .grp files are enumerated.

ScanRecord pairs a spec with its verification report, and record_to_line
writes it as one JSONL line with sorted keys.  Scans only write records;
nothing in the package reads them back.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import is_prime, prime_divisors
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
from .theorem import TheoremReport, _jsonable

ENGINE_VERSION = "0.1.0"

# a heisenberg or frobenius prime above this names a group of order at least
# 2**33, far beyond any element table conjlab can hold
_MAX_PRIME_PARAM = 2**32

# int() also takes signs, spaces, underscores and leading zeros, whose
# names would not reproduce the text
_PARAM = re.compile(r"[1-9][0-9]*")


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    params: tuple = ()
    parts: tuple = ()
    path: str = ""

    def __post_init__(self):
        if self.kind == "direct":
            if len(self.parts) < 2:
                raise InvalidSpec("direct product needs at least two parts")
            if not all(isinstance(p, GroupSpec) and p.kind != "direct" for p in self.parts):
                raise InvalidSpec("direct product parts are family or file GroupSpecs")
            return  # each part was checked when it was made
        if self.kind == "file":
            if not self.path:
                raise InvalidSpec("file spec needs a path")
            return
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise InvalidSpec(f"unknown group kind {self.kind!r}")
        if len(self.params) != family.arity:
            raise InvalidSpec(f"{self.name}: {self.kind} takes {family.arity} parameter(s)")
        if any(type(v) is not int or v < 1 for v in self.params):
            raise InvalidSpec(f"{self.name}: parameters must be positive integers")
        if not family.valid(*self.params):
            raise InvalidSpec(f"{self.name}: {self.kind} needs {family.needs}")

    @property
    def name(self) -> str:
        if self.kind == "direct":
            return "direct:" + "+".join(p.name for p in self.parts)
        if self.kind == "file":
            return f"file:{self.path}"
        return f"{self.kind}:{','.join(str(v) for v in self.params)}"

    def __str__(self) -> str:
        return self.name


def parse_spec(text: str) -> GroupSpec:
    """Split a spec string into a GroupSpec, which checks it; the result's
    name reproduces the input."""
    if not text:
        raise InvalidSpec("empty group spec")
    kind, _, rest = text.partition(":")
    if kind == "file":
        return GroupSpec("file", path=rest)
    if kind == "direct":
        return GroupSpec("direct", parts=tuple(parse_spec(c) for c in rest.split("+")))
    values = rest.split(",")
    try:
        if all(_PARAM.fullmatch(v) for v in values):
            return GroupSpec(kind, params=tuple(int(v) for v in values))
    except ValueError:  # more digits than int() converts
        pass
    raise InvalidSpec(f"{text!r}: parameters are positive integers in decimal digits")


# ----- constructors ---------------------------------------------------------
#
# Each family is one _FAMILIES entry.  Its check takes parameters that are
# positive integers of the right arity and says whether they name a group.
# Its order function gives the group order from the parameters alone, and
# may stop once the order passes the cap.  Its generator function gives the
# degree and the generator Perms, and its table function writes the whole
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


def _product_up_to(start: int, n: int, cap: int) -> int:
    """start * (start + 1) * ... * n (1 if start > n), stopped once it passes
    the cap: a huge n costs nothing, and a value past the cap is a lower bound."""
    out, k = 1, start
    while k <= n and out <= cap:
        out, k = out * k, k + 1
    return out


class _Family(NamedTuple):
    """A builtin family.  order(*params, cap) may stop once it passes the
    cap; valid(*params) is what positive parameters must meet besides."""

    arity: int
    order: Callable[..., int]
    gens: Callable[..., tuple[int, list[Perm]]]
    table: Callable[..., np.ndarray]
    valid: Callable[..., bool] = lambda *params: True
    needs: str = ""


_FAMILIES = {
    "cyclic": _Family(1, lambda n, cap: n, _cyclic_gens, _cyclic_table),
    "dihedral": _Family(
        1, lambda n, cap: 2 * n, _dihedral_gens, _dihedral_table, lambda n: n >= 3, "n >= 3"
    ),
    # n! and n!/2 = 3 * 4 * ... * n
    "symmetric": _Family(
        1, partial(_product_up_to, 2), _symmetric_gens, partial(_permutation_table, even=False)
    ),
    "alternating": _Family(
        1, partial(_product_up_to, 3), _alternating_gens, partial(_permutation_table, even=True)
    ),
    # a prime past _MAX_PRIME_PARAM is refused before the trial-division
    # primality test, which would spin
    "heisenberg": _Family(
        1, lambda p, cap: p**3, _heisenberg_gens, _heisenberg_table,
        lambda p: p <= _MAX_PRIME_PARAM and p != 2 and is_prime(p), "an odd prime p <= 2**32",
    ),
    "frobenius": _Family(
        2, lambda p, q, cap: p * q, _frobenius_gens, _frobenius_table,
        lambda p, q: p <= _MAX_PRIME_PARAM and is_prime(p) and q >= 2 and (p - 1) % q == 0,
        "a prime p <= 2**32 and q >= 2 dividing p - 1",
    ),
}


def build(spec: GroupSpec, cap: int | None = None) -> Group:
    """Construct the group a spec names, within the cap.

    A family's table is written in closed form (its _FAMILIES entry) and
    handed to group_from_generators with the family's generators, which
    keeps it; only a .grp file is enumerated.
    A family whose order, known from its parameters, passes the cap is
    refused before any permutation is made, and one whose order x degree
    table passes _CELL_LIMIT as soon as its generators give the degree,
    before any table is built.  A direct product is measured whole: the
    product of its part orders times the sum of their degrees.
    """
    if not isinstance(spec, GroupSpec):
        raise TypeError(f"build takes a GroupSpec, not {type(spec).__name__}; parse_spec makes one")
    if cap is None:
        cap = default_element_cap()
    if spec.kind == "file":
        return load_grp(spec.path, cap=cap)
    parts = spec.parts if spec.kind == "direct" else (spec,)
    if any(part.kind == "file" for part in parts):  # measured part by part
        factors = [build(part, cap=cap) for part in parts]
    else:
        families = [_FAMILIES[part.kind] for part in parts]
        order = prod(f.order(*part.params, cap) for f, part in zip(families, parts))
        if order > cap:
            raise CapExceeded(f"{spec.name}: group order passes the element cap of {cap}")
        made = [f.gens(*part.params) for f, part in zip(families, parts)]
        degree = sum(d for d, _ in made)
        if order * degree > _CELL_LIMIT:
            raise CapExceeded(
                f"{spec.name}: its table of {order} x {degree} cells passes the cell "
                f"limit of {_CELL_LIMIT}"
            )
        factors = [
            group_from_generators(d, gens, cap=cap, name=part.name, table=f.table(*part.params))
            for f, part, (d, gens) in zip(families, parts, made)
        ]
    g = direct_product(*factors, cap=cap) if len(factors) > 1 else factors[0]
    g.name = spec.name
    return g


# ----- the builtin corpus -----------------------------------------------------

def builtin_corpus() -> list[GroupSpec]:
    """The fixed spec list that scans and the acceptance suite run over.

    Small families cover cyclic and dihedral groups through order 40, the
    small symmetric/alternating groups, two extraspecial groups and four
    Frobenius groups.  Products pair a nonabelian first factor with a second
    factor meeting the coprimality hypothesis: an extraspecial group of
    order p^3 qualifies when p is coprime to every nontrivial class size of
    the first factor (and those sizes are disconnected), and a cyclic group
    qualifies when its order is coprime to the first factor's order.
    """
    specs = [f"cyclic:{n}" for n in range(1, 41)]
    specs += [f"dihedral:{n}" for n in range(3, 21)]
    specs += ["symmetric:3", "symmetric:4", "symmetric:5", "alternating:4", "alternating:5"]
    specs += ["heisenberg:3", "heisenberg:7"]
    specs += ["frobenius:5,4", "frobenius:7,3", "frobenius:7,6", "frobenius:13,3"]
    specs += [
        # frobenius:5,4 has order 20 and class sizes {1, 4, 5}
        "direct:frobenius:5,4+heisenberg:3",  # 3 is prime to 4 and 5
        "direct:frobenius:5,4+heisenberg:7",  # 7 is prime to 4 and 5
        "direct:frobenius:5,4+cyclic:3",  # 3 is prime to 20
        "direct:frobenius:5,4+cyclic:7",  # 7 is prime to 20
        "direct:frobenius:5,4+cyclic:11",  # 11 is prime to 20
        # frobenius:7,3 has order 21 and class sizes {1, 3, 7}
        "direct:frobenius:7,3+cyclic:2",  # 2 is prime to 21
        "direct:frobenius:7,3+cyclic:11",  # 11 is prime to 21
        # alternating:5 has order 60 and class sizes {1, 12, 15, 20}
        "direct:alternating:5+heisenberg:7",  # 7 is prime to 12, 15 and 20
        "direct:alternating:5+cyclic:7",  # 7 is prime to 60
        "direct:alternating:5+cyclic:11",  # 11 is prime to 60
    ]
    return [parse_spec(text) for text in specs]


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
        return _jsonable(self)


def record_to_line(rec: ScanRecord) -> str:
    return json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":"))
