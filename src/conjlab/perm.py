"""Immutable permutations on 0..degree-1 with cycle notation.

Composition convention used everywhere in this package: ``p * q`` applies
``p`` first and then ``q``, so ``(p * q)(i) == q(p(i))``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import InvalidPermutation


class Perm:
    """A permutation stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        if n == 0:
            raise InvalidPermutation("degree must be at least 1")
        seen = [False] * n
        for v in imgs:
            if not 0 <= v < n or seen[v]:
                raise InvalidPermutation(f"not a bijection on 0..{n - 1}: {imgs}")
            seen[v] = True
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Perm":
        images = list(range(degree))
        touched = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise InvalidPermutation(f"point {pt} out of range for degree {degree}")
                if pt in touched:
                    raise InvalidPermutation(f"point {pt} appears in two cycles")
                touched.add(pt)
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if len(cyc) > 1:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # self first, then other
        if other.degree != self.degree:
            raise InvalidPermutation("degree mismatch")
        o = other.images
        return Perm(tuple(o[i] for i in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(inv)

    def conjugate(self, g: "Perm") -> "Perm":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by it."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        n = 1
        for cyc in self.cycles():
            n = math.lcm(n, len(cyc))
        return n

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycs)

    @classmethod
    def from_cycle_string(cls, text: str, degree: int) -> "Perm":
        """Parse disjoint-cycle notation like ``(0 1 2)(3 4)``; ``()`` is the identity."""
        s = text.strip()
        if s == "()":
            return cls.identity(degree)
        cycles = []
        pos = 0
        while pos < len(s):
            ch = s[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch != "(":
                raise InvalidPermutation(f"expected '(' at position {pos} in {text!r}")
            end = s.find(")", pos)
            if end < 0:
                raise InvalidPermutation(f"unbalanced parenthesis in {text!r}")
            body = s[pos + 1:end].replace(",", " ").split()
            if not body:
                raise InvalidPermutation(f"empty cycle in {text!r}")
            try:
                cyc = [int(tok) for tok in body]
            except ValueError:
                raise InvalidPermutation(f"non-integer point in {text!r}") from None
            cycles.append(cyc)
            pos = end + 1
        return cls.from_cycles(cycles, degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()}, degree={self.degree})"
