"""Direct products of leaf factors, kept apart from group.py.

A _Product does its index arithmetic in its leaf factors (see the group
module docstring).  When the factors' orders are pairwise coprime (a
coprime product), every subgroup is the product of its projections, so
<S> = <pi_1 S> x ... x <pi_k S>: closures and normal closures then run in
the factors, and only their outer product has the product's order.  A
product that is not coprime closes subgroups by the plain BFS of
Group._closed_mask, stepping through its factors' maps (_FactorStep).

group.py imports this module at its end, so that group._Product resolves.
"""

from __future__ import annotations

from functools import reduce
from math import lcm, prod
from typing import Sequence

import numpy as np

from .group import (
    _INT64_MAX,
    Group,
    _Budget,
    _Cache,
    _cache_put,
    _class_table,
    _images_dtype,
    _key_plan,
)


class _FactorStep:
    """Right multiplication by one member s of a direct product, applied to
    an index array through the factors' right-multiplication maps.

    Only the factors where s is not the identity move a member's digits, so
    a factor's generator costs one factor-sized shift array and no
    product-order map.
    """

    __slots__ = ("moves",)

    def __init__(self, g: Group, s: int):
        # per factor moved: the stride of its digit, its order unless it
        # leads (its digit needs no modulus then), and the index shift
        self.moves = []
        stride = g.order
        for f, d in zip(g._factors, g._digits(s)):
            modulus = f.order if stride < g.order else 0
            stride //= f.order
            if d:
                shift = (f._rmul_map(d) - np.arange(f.order)) * stride
                self.moves.append((stride, modulus, shift))

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        out = idx
        for stride, modulus, shift in self.moves:
            digit = idx // stride if stride > 1 else idx
            out = out + shift[digit % modulus if modulus else digit]
        return out


class _TableOnRead:
    """A direct product's table attribute, held by the class and by no product:
    the first read puts the table and what is read off it (_Product._table)
    in the product's __dict__, which hides this descriptor from then on."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, g, owner=None):
        vars(g).update(g._table())
        return vars(g)[self.name]


class _Product(Group):
    """A direct product of leaf factors (see direct_product), whose table is
    built on the first read of any of the attributes below."""

    _rows = _TableOnRead()
    _base_rows = _TableOnRead()
    _key_plan = _TableOnRead()
    _sorted_keys = _TableOnRead()

    def __init__(self, factors: tuple[Group, ...], name: str):
        self._start(factors)
        self.order, self.degree = prod(f.order for f in factors), sum(f.degree for f in factors)
        self.name = name
        self._shape = [f.order for f in factors]
        self._coprime = lcm(*self._shape) == self.order
        # (factor, generator digits) -> closure mask, and (factor, digit,
        # actor digits) -> the adjoins of its normal closure; read-only
        self._factor_cache: _Cache = _Cache()
        self._base, self._gen_idx, offset, stride = [], [], 0, self.order
        # the class of (x_1, ..., x_k) is the tuple of theirs: sizes multiply, and
        # the least member is the row of the least members, as the table is in this order
        ids, reps, sizes = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.int64)
        for f in factors:
            stride //= f.order
            self._base += [b + offset for b in f._base]
            self._gen_idx += [i * stride for i in f._gen_idx]
            offset += f.degree
            ids_f, reps_f, sizes_f = f.class_table()
            ids = (ids[:, None] * len(reps_f) + ids_f).ravel()
            reps = (reps[:, None] * f.order + reps_f).ravel()
            sizes = (sizes[:, None] * sizes_f).ravel()
        self._classes = _class_table(ids, reps, sizes)

    def _table(self) -> dict:
        """The table (row i: the factors' rows at i's digits, side by side), base rows and keys."""
        dtype = _images_dtype(self.degree)
        rows = np.empty(self._shape + [self.degree], dtype=dtype)
        offset = 0
        for axis, f in enumerate(self._factors):
            shape = [1] * len(self._factors) + [f.degree]
            shape[axis] = f.order
            # cast first, as the shift may pass the factor's dtype
            rows[..., offset : offset + f.degree] = (f._rows.astype(dtype) + offset).reshape(shape)
            offset += f.degree
        rows = rows.reshape(self.order, self.degree)
        rows.flags.writeable = False
        base_rows = rows[:, self._base].astype(np.int64)
        key_plan, sorted_keys = _key_plan(base_rows, self.degree)
        return dict(_rows=rows, _base_rows=base_rows, _key_plan=key_plan, _sorted_keys=sorted_keys)

    # ----- closures ----------------------------------------------------------

    def _closure_step(self, s: int) -> _FactorStep:
        return _FactorStep(self, s)

    def _closed_mask(self, gen_indices: Sequence[int], seed_mask: np.ndarray | None = None) -> np.ndarray:
        """Member mask of <gens>, with a seed subgroup S, as Group._closed_mask.

        In a coprime product it is the outer product of one closure per
        factor: of the generators' digits there, seeded with S's projection
        unless the cached closure of the digits already holds it.  Any other
        product runs the plain BFS.
        """
        if not self._coprime:
            return super()._closed_mask(gen_indices, seed_mask)
        digits = np.unravel_index(np.asarray(gen_indices, dtype=np.int64), self._shape)
        masks = [self._factor_closure(j, col.tolist()) for j, col in enumerate(digits)]
        if seed_mask is not None:
            seed, axes = seed_mask.reshape(self._shape), range(len(self._shape))
            for j, f in enumerate(self._factors):
                part = seed.any(axis=tuple(a for a in axes if a != j))
                if (part & ~masks[j]).any():
                    masks[j] = f._closed_mask(digits[j].tolist(), seed_mask=part)
        return reduce(np.logical_and.outer, masks).ravel()

    def _factor_closure(self, j: int, digits: list[int], mask: np.ndarray | None = None) -> np.ndarray:
        """Read-only mask of the subgroup of factor j that the digits
        generate, cached; a mask given is that subgroup's, to be cached."""
        key = (j, tuple(sorted(set(digits) - {0})))
        cached = self._factor_cache.get(key)
        if cached is None:
            cached = self._factors[j]._closed_mask(key[1]) if mask is None else mask
            cached.flags.writeable = False
            _cache_put(self._factor_cache, key, cached)
        return cached

    def _normal_closure_data(
        self, start: int, budget: _Budget, gens_h: Sequence[int]
    ) -> tuple[np.ndarray, list[int]]:
        """Mask and generators of the normal closure of one element in <gens_h>,
        as Group._normal_closure_data.

        In a coprime product the members are M_1 x ... x M_k and conjugation
        moves each digit in its own factor, so the least escaping conjugate
        is e * stride_j, j the last factor with an escape and e its least
        one there.  The adjoins thus come factor by factor, the last first,
        each factor's the ones of its own loop from the start's digit under
        the actors' digits.  Those are cached, and every use spends one
        budget node per adjoin, as the loop does.
        """
        if not self._coprime:
            return super()._normal_closure_data(start, budget, gens_h)
        actors = np.unravel_index(np.asarray(gens_h, dtype=np.int64), self._shape)
        gens, masks, stride = [int(start)], [], 1
        for j in reversed(range(len(self._factors))):
            d = int(start) // stride % self._shape[j]
            adjoins = self._factor_adjoins(j, d, actors[j].tolist())
            budget.spend(len(adjoins))
            gens += [e * stride for e in adjoins]
            masks.append(self._factor_closure(j, [d, *adjoins]))
            stride *= self._shape[j]
        return reduce(np.logical_and.outer, masks[::-1]).ravel(), gens

    def _factor_adjoins(self, j: int, d: int, actors: list[int]) -> list[int]:
        """What factor j's own normal-closure loop adjoins to digit d under
        the actor digits, cached with the closure it ends at."""
        key = (j, d, tuple(sorted(set(actors) - {0})))
        adjoins = self._factor_cache.get(key)
        if adjoins is None:
            f = self._factors[j]
            mask, gens = f._normal_closure_data(d, _Budget(_INT64_MAX, f.name), key[2])
            adjoins = np.array(gens[1:], dtype=np.int64)
            adjoins.flags.writeable = False
            _cache_put(self._factor_cache, key, adjoins)
            self._factor_closure(j, gens, mask)
        return adjoins.tolist()
