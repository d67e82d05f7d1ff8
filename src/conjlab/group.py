"""Exhaustive finite permutation-group engine.

A Group owns its complete element table: an (order x degree) integer matrix
whose rows are image arrays, sorted lexicographically so that element
identity is row identity and row 0 is always the group identity.  The sort
reads only the first k columns, k the fewest leading points that only the
identity fixes all of: distinct members already differ there.  A table
that already comes in that order (a builtin family's closed form from
corpus.build, a subgroup's rows) is kept as given, without a sort or a
copy; a direct product builds its own, in that order, on first read; and
every table is read-only.  Every query — conjugacy classes, centralizers,
Sylow subgroups, normalizers, normal subgroups, quotients, composition
factors — is answered by direct, reproducible search over that table.
This trades memory for the ability to verify structural claims
exhaustively; the intended scale is group order up to about 10^5.

Composition convention (see perm.py): ``p * q`` applies p first, then q.
Conjugation of x by g is ``g^-1 * x * g`` in that order.  On the table,
``mult(x, s)`` for every row x at once is the fancy index ``s_row[rows]``,
which is what the cached per-generator index maps are built from.

A direct product keeps its leaf factors, never a partial product, and does
its index arithmetic in them: member i is the mixed-radix number of its
factors' indices, so x * s is a_i * s_a in A and b_j * s_b in B.  Its
classes (pairs of its factors' classes), maps, inverses, power chains and
element orders are broadcasts of the factors' own, and its elements and
commuting checks are read in them; only the other readers build its table.
A group closes subgroups by one plain BFS, Group._spread, that starts
from the generators' power chains and steps each frontier by right
multiplication by each generator, through cached maps.  A direct product
whose factors' orders are not pairwise coprime steps through its factors'
maps instead (_FactorStep, no map of the product's order); one whose
orders are (a coprime product, _product.py) has every subgroup the
product of its projections, so it closes subgroups and normal closures
in the factors and takes their outer product.  Cosets, the classes of a
quotient and conjugacy classes are orbits, each named by its least index
by squaring whole index maps until their powers span each map's order
bound, with a pointer jump after each pass (_least_labels); a group with
one generator is cyclic, and each class one member.  A conjugation map inverts
only its generator's row; element orders (one walk of all base points) and
p-element masks are worked out at class representatives and read off per
class.  Generating sets come from one loop, Group._accumulate, that adjoins
each candidate not yet in the closure, and conjugation orbits of index sets
(subgroups with their generators, Sylow centers) from Group._conjugate_sets.
Two members commute iff their two products agree on the base below, which
is how centralizers are computed.

Elements are found through a base (Sims): the points B at which the
stabilizer chain of 0, 1, 2, ... shrinks, read off the same walk that finds
the sort prefix, so that only the identity fixes all of them.  Two members
that agree on B are then equal, so a member is named by its base images alone.
Each row gets an exact int64 key built from its images of B; the sorted
table is already in key order.  A batch of keys is found by binary search,
and a whole-table map (right multiplication, conjugation, inverse) by one
argsort of its keys: sorted, they must equal the table's keys.
A product of members, such as ``s_row[rows[:, B]]`` for a right-multiplication
map, is found from |B| columns instead of ``degree``.  That shortcut is exact
only because every table is closed under multiplication, so each such product
is a member: group_from_generators, direct_product, quotient and
corpus.build's family tables are closed, and Subgroup.as_group validates
its element set first.  Rows that come from outside (index_of, membership
tests, the constructor's generators) are found by base images and then
compared in full.

Every class reader goes through one ClassTable of arrays.  A Group caches
arrays and index lists only, and a product its factors too, which keep
nothing of it: nothing a Group holds points back at it, so its last
reference frees it at once; Subgroups and ConjugacyClasses are views, made
anew on each call that returns them.

Normal subgroups are unions of conjugacy classes, so normal_subgroups keys
each one by its set of class ids, held as an int bitset, and runs a closure
only when its result cannot already be known.  One normal closure serves a
whole rational class: x and x^k with k prime to |x| generate the same
cyclic group.  A join NA of two known normal subgroups has order
|N||A|/|N & A|, the intersection's order being the summed sizes of the
shared classes, so a known subgroup of that order holding both is NA and
no closure runs for it.  The meets of one N with every atom A (the normal
closure of one class) come from one np.add.reduceat over the atoms' class
ids laid end to end.  composition_series runs the same search on each
lower level of the series in these tables, given its classes and generators.
"""

from __future__ import annotations

import os
from functools import reduce
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .arith import is_prime, p_part
from .errors import (
    BudgetExceeded,
    CapExceeded,
    ElementNotInGroup,
    InvalidPermutation,
    NotASubgroup,
    NotNormal,
)
from .perm import Perm

DEFAULT_ELEMENT_CAP = 100_000
DEFAULT_NODE_BUDGET = 1_000_000
CAP_ENV_VAR = "CONJLAB_CAP"

# an element table of more than this many cells (order x degree) is refused,
# whatever the element cap: enumeration, direct_product and quotient check it
_CELL_LIMIT = 50_000_000

# cap, in bytes, on each of a group's five caches: right-multiplication maps,
# conjugation maps, centralizer masks, coset labels and power chains, and on
# a coprime product's factor closures, each bounded separately
_MAP_CACHE_BYTES = 192_000_000

_INT64_MAX = int(np.iinfo(np.int64).max)


def default_element_cap() -> int:
    """Default element cap, honoring the CONJLAB_CAP environment variable."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CapExceeded(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise CapExceeded(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


class _Budget:
    """Counts search nodes and fails hard when the budget runs out.

    progress() is appended to the error message, to say how far the search got.
    """

    def __init__(self, limit: int, what: str, progress: Callable[[], str] = lambda: ""):
        self.limit = int(limit)
        self.used = 0
        self.what = what
        self.progress = progress

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                f"{self.what}: budget of {self.limit} nodes exhausted{self.progress()}"
            )


def _images_dtype(degree: int):
    return np.int16 if degree <= 32000 else np.int32


def _as_image_row(perm, degree: int, dtype) -> np.ndarray:
    if isinstance(perm, Perm):
        if perm.degree != degree:
            raise InvalidPermutation(f"degree mismatch: {perm.degree} != {degree}")
        return np.array(perm.images, dtype=dtype)
    row = np.asarray(perm)
    if row.shape != (degree,):
        raise InvalidPermutation(f"image array has shape {row.shape}, expected ({degree},)")
    if not np.array_equal(np.sort(row), np.arange(degree)):
        raise InvalidPermutation("image array is not a bijection")
    return row.astype(dtype)


def _key_plan(base_rows: np.ndarray, degree: int) -> tuple[list, np.ndarray]:
    """Exact int64 keys of a table's base images, and how to rebuild them.

    A key is the mixed-radix number of a row's base images, in base degree.
    Where the next digit could overflow int64, the key built so far is first
    replaced by its rank among the table's distinct prefixes; the returned
    plan holds, column by column, those sorted prefixes or None.
    """
    plan: list[np.ndarray | None] = []
    key = np.zeros(len(base_rows), dtype=np.int64)
    bound = 1  # every key built so far is below bound
    for col in base_rows.T:
        prefixes = None
        if bound * degree - 1 > _INT64_MAX:
            prefixes = _distinct(key)
            key = np.searchsorted(prefixes, key)
            bound = len(prefixes)
        plan.append(prefixes)
        key = key * degree + col
        bound *= degree
    return plan, key


def _least_labels(n: int, maps: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Least index in the orbit of each of 0..n-1 under the index maps.

    Each map comes with a bound on its order.  Per map, the least label
    over i, m(i), m(m(i)), ... is taken by squaring the step, m -> m(m):
    k minima cover offsets 0..2^k-1, so max((bound-1).bit_length(), 1) of
    them cover a cycle.  After each pass over the maps every label jumps to
    its own label, and the pass repeats until it changes nothing.
    """
    least = np.arange(n, dtype=np.int64)
    while True:
        prev = least
        for step, bound in maps:
            least = np.minimum(least, least[step])
            for _ in range(1, (int(bound) - 1).bit_length()):
                step = step[step]
                least = np.minimum(least, least[step])
        # least[i] lies in i's orbit, so its own label does too
        least = least[least]
        if np.array_equal(prev, least):
            return least


def _ascending(rows: np.ndarray) -> bool:
    """True iff the rows strictly ascend in lexicographic order."""
    tied = np.ones(len(rows) - 1, dtype=bool)  # adjacent pairs equal so far
    for col in rows.T:
        lo, hi = col[:-1][tied], col[1:][tied]
        if np.any(hi < lo):
            return False
        tied[tied] = hi == lo
    return not tied.any()


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending.

    np.unique gives the same, but asked for no return_* array it imports
    numpy.ma on its first call in a process, a module load that costs more
    than the calls here.
    """
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


class _Cache(dict):
    """Cached values, oldest first, with the sum of their nbytes."""

    nbytes = 0


def _cache_put(cache: _Cache, key, value) -> None:
    """Store a value, evicting the oldest entries to stay within _MAP_CACHE_BYTES."""
    while cache and cache.nbytes + value.nbytes > _MAP_CACHE_BYTES:
        cache.nbytes -= cache.pop(next(iter(cache))).nbytes
    if value.nbytes <= _MAP_CACHE_BYTES:
        cache[key] = value
        cache.nbytes += value.nbytes


class ClassTable(NamedTuple):
    """Conjugacy classes, numbered by (size, least member); read-only arrays."""

    ids: np.ndarray  # class id of each member
    reps: np.ndarray  # least member of each class
    sizes: np.ndarray  # size of each class


def _class_table(inverse: np.ndarray, reps: np.ndarray, sizes: np.ndarray) -> ClassTable:
    """Classes numbered by (size, least member); inverse indexes reps and sizes."""
    rank = np.lexsort((reps, sizes))
    table = ClassTable(np.argsort(rank)[inverse], reps[rank], sizes[rank])
    for arr in table:
        arr.flags.writeable = False
    return table


class Group:
    """A finite permutation group with its full element table.

    Do not call the constructor directly; use group_from_generators,
    direct_product, corpus.build or Subgroup.as_group.  The rows must form
    a group: lookups of products by base images rely on it.  Rows that
    already come in table order are kept as given, without a sort or a
    copy, so the table is made read-only, and with it the array passed in.
    A direct product (_Product) is given no rows: it builds its table on first read.
    """

    def __init__(self, rows: np.ndarray, gen_rows: list[np.ndarray | Perm], name: str):
        # walk the stabilizer chain of 0, 1, 2, ...: distinct members differ
        # within the first k points once only the identity fixes 0..k-1, so a
        # sort on those columns sorts the table, and the points where the
        # stabilizer shrinks are a base
        stab, k, base = np.arange(len(rows)), 0, []
        while len(stab) > 1 and k < rows.shape[1]:
            fixers = stab[rows[stab, k] == k]
            if len(fixers) < len(stab):
                base.append(k)
            stab, k = fixers, k + 1
        prefix = rows[:, : max(k, 1)]
        if not _ascending(prefix):
            rows = rows[np.lexsort(prefix.T[::-1])]
        self._rows = np.ascontiguousarray(rows)
        self._rows.flags.writeable = False
        self.order, self.degree = rows.shape
        self.name = name
        ident = np.arange(self.degree, dtype=self._rows.dtype)
        if not np.array_equal(self._rows[0], ident):
            raise InvalidPermutation("identity missing from element table")
        self._base = base
        self._base_rows = self._rows[:, self._base].astype(np.int64)
        # members agreeing before a point outside the base agree there too, so
        # they first differ on the base and the prefix sort is key order
        self._key_plan, self._sorted_keys = _key_plan(self._base_rows, self.degree)
        if np.any(self._sorted_keys[1:] <= self._sorted_keys[:-1]):
            raise InvalidPermutation("element table has duplicate rows or is not a group")
        self._gen_idx = [self.index_of(g) for g in gen_rows]
        self._start(())

    def _start(self, factors: tuple[Group, ...]) -> None:
        """Set the leaf factors (a direct product's; none otherwise) and empty caches."""
        self._factors = factors
        self._inv_idx: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._classes: ClassTable | None = None
        self._rmul_cache: _Cache = _Cache()
        self._conj_cache: _Cache = _Cache()
        self._centralizer_cache: _Cache = _Cache()
        self._quotient_cache: _Cache = _Cache()  # (kernel index bytes, actors) -> coset labels
        self._chain_cache: _Cache = _Cache()  # member index -> its power chain
        self._normals: list[tuple[np.ndarray, list[int]]] | None = None
        self._series: list[tuple[np.ndarray, list[int]]] | None = None
        self._sylows: dict[int, tuple[np.ndarray, list[int]]] = {}

    # ----- basic accessors -------------------------------------------------

    @property
    def generators(self) -> list[Perm]:
        return [self.element(i) for i in self._gen_idx]

    def element(self, i: int) -> Perm:
        if self._factors:  # the factors' rows at i's digits, each shifted past the last
            images: list[int] = []
            for f, d in zip(self._factors, self._digits(i)):
                images += (f._rows[d].astype(np.int64) + len(images)).tolist()
            return Perm(images)
        return Perm(tuple(int(v) for v in self._rows[i]))

    def elements(self) -> Iterator[Perm]:
        for i in range(self.order):
            yield self.element(i)

    def index_of(self, perm: Perm) -> int:
        if isinstance(perm, Perm) and perm.degree != self.degree:
            raise ElementNotInGroup(
                f"degree {perm.degree} element cannot lie in {self.name} (degree {self.degree})"
            )
        row = _as_image_row(perm, self.degree, self._rows.dtype)
        i = int(self._lookup(row[self._base][None, :])[0])
        # a non-member can share its base images with a member
        if i < 0 or not np.array_equal(self._rows[i], row):
            raise ElementNotInGroup(f"{perm!r} is not in {self.name}")
        return i

    def __contains__(self, perm) -> bool:
        try:
            self.index_of(perm)
            return True
        except (ElementNotInGroup, InvalidPermutation):
            return False

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order}, degree={self.degree})"

    # ----- index-level arithmetic -------------------------------------------

    def _keys(self, images: np.ndarray) -> np.ndarray:
        """Exact key of each row of base images; negative where no member has its prefix."""
        key = np.zeros(len(images), dtype=np.int64)
        for col, prefixes in zip(images.T, self._key_plan):
            if prefixes is not None:
                rank = np.minimum(np.searchsorted(prefixes, key), len(prefixes) - 1)
                key = np.where(prefixes[rank] == key, rank, -1)
            key = key * self.degree + col
        return key

    def _lookup(self, images: np.ndarray) -> np.ndarray:
        """Index of the member with each row of base images, or -1 if none, by binary search."""
        key = self._keys(images)
        pos = np.minimum(np.searchsorted(self._sorted_keys, key), self.order - 1)
        return np.where(self._sorted_keys[pos] == key, pos, -1)

    def _indices_of_images(self, images: np.ndarray) -> np.ndarray:
        """Indices of products of members, given by their base images."""
        idx = self._lookup(images)
        if np.any(idx < 0):
            raise ElementNotInGroup("product left the element table (set not closed)")
        return idx

    def _table_map(self, images: np.ndarray) -> np.ndarray:
        """Indices of order-many products of members, given by their base
        images, from one sort of their keys; unless the sorted keys equal the
        table's, a product left the table or repeats a member, and is refused."""
        keys = self._keys(images)
        by_key = np.argsort(keys, kind="stable")  # faster on the sorted runs a map's keys hold
        if not np.array_equal(keys[by_key], self._sorted_keys):
            raise ElementNotInGroup("product left the element table (set not closed)")
        keys[by_key] = np.arange(self.order)  # the keys are read: their array takes the indices
        return keys

    def mult_idx(self, i: int, j: int) -> int:
        # x_i then x_j
        images = self._rows[j][self._base_rows[i]]
        return int(self._indices_of_images(images[None, :])[0])

    def _digits(self, i: int) -> list[int]:
        """Each leaf factor's index of member i of a direct product."""
        digits = []
        for f in reversed(self._factors):
            i, d = divmod(i, f.order)
            digits.append(d)
        return digits[::-1]

    def _from_factors(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Indices of the members whose factor indices run over parts[0] x
        parts[1] x ..., in row order: a direct product's map from its
        factors' maps, one per factor."""
        return np.ravel_multi_index(np.ix_(*parts), [f.order for f in self._factors]).ravel()

    def inverse_indices(self) -> np.ndarray:
        if self._inv_idx is None and self._factors:
            self._inv_idx = self._from_factors([f.inverse_indices() for f in self._factors])
        if self._inv_idx is None:
            # x^-1 sends b to the point x sends to b, one of column b's values
            images = np.empty_like(self._base_rows)
            for j, (b, col) in enumerate(zip(self._base, self._base_rows.T)):
                lo, hi = int(col.min()), int(col.max())
                images[:, j] = np.argmax(self._rows[:, lo : hi + 1] == b, axis=1) + lo
            self._inv_idx = self._table_map(images)
        return self._inv_idx

    def inv_idx(self, i: int) -> int:
        return int(self.inverse_indices()[i])

    def commutator_idx(self, i: int, j: int) -> int:
        """Index of x_i^-1 * x_j^-1 * x_i * x_j."""
        return int(self._commutators([i], [j])[0])

    def _commutators(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Indices of x_i^-1 * x_j^-1 * x_i * x_j for every i in a and j in b,
        row-major over (i, j), in one lookup of their base images."""
        i, j = (m.ravel() for m in np.meshgrid(a, b, indexing="ij"))
        inv = self.inverse_indices()
        # a base point goes through x_i^-1, x_j^-1, x_i and x_j in turn
        images = self._base_rows[inv[i]]
        for step in (inv[j], i, j):
            images = self._rows[step[:, None], images]
        return self._indices_of_images(images)

    def element_orders(self) -> np.ndarray:
        """Order of every element: the lcm of its cycle lengths through the base.

        x^m is the identity exactly when it fixes every base point, that is
        when m is a multiple of the length of each base point's cycle.
        Conjugates have the same order: class representatives walk, all base points at once.
        """
        if self._orders is None and self._factors:  # the lcm of the factors' orders
            parts = np.ix_(*[f.element_orders() for f in self._factors])
            self._orders = reduce(np.lcm, parts).ravel()
        if self._orders is None:
            ids, reps, _ = self.class_table()
            orders = np.ones(len(reps), dtype=np.int64)
            # a (representative, base point b) pair per b it moves; x^m(b) is
            # read off the table flat, at x's row offset plus x^(m-1)(b)
            flat, images = self._rows.ravel(), self._base_rows[reps]
            base = np.array(self._base, dtype=np.int64)
            alive, j = np.nonzero(images != base)
            offsets, pts, targets = reps[alive] * self.degree, images[alive, j], base[j]
            length = 1
            while alive.size:
                length += 1
                pts = flat[offsets + pts]
                back = pts == targets
                if back.any():
                    # two pairs of one representative that close at this length
                    # write the same lcm twice
                    orders[alive[back]] = np.lcm(orders[alive[back]], length)
                    alive, offsets = alive[~back], offsets[~back]
                    pts, targets = pts[~back], targets[~back]
            self._orders = orders[ids]
        return self._orders

    def order_of_idx(self, i: int) -> int:
        return int(self.element_orders()[i])

    def p_element_mask(self, p: int) -> np.ndarray:
        """Elements of p-power order (identity included)."""
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        # element orders are class functions: strip p at the representatives
        ids, reps, _ = self.class_table()
        stripped = self.element_orders()[reps]
        while True:
            m = stripped % p == 0
            if not m.any():
                break
            stripped[m] //= p
        return (stripped == 1)[ids]

    def _product_images(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Base images of x_i * x_j for all i in a and j in b, shape (|a|, |b|, |B|)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # x_i then x_j sends a base point to x_j(x_i(point))
        return self._rows[b[None, :, None], self._base_rows[a][:, None, :]]

    def _commute(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """True iff every member indexed by a commutes with every one indexed by b.

        Both products are members, so x*y = y*x iff they agree on the base;
        all pairs are compared at once.
        """
        if self._factors:  # iff their digits do in each factor; digit 0, the identity, always does
            digits = zip(self._factors, *[zip(*map(self._digits, s)) for s in (a, b)])
            return all(f._commute(x, y) for f, x, y in digits if any(x) and any(y))
        return bool(
            np.array_equal(self._product_images(a, b), self._product_images(b, a).transpose(1, 0, 2))
        )

    def is_abelian(self) -> bool:
        return self._commute(self._gen_idx, self._gen_idx)

    # ----- cached index maps -------------------------------------------------

    def _rmul_map(self, s: int) -> np.ndarray:
        """Map i -> index of (x_i * s), for all i at once."""
        cached = self._rmul_cache.get(s)
        if cached is None:
            if self._factors:
                parts = [f._rmul_map(d) for f, d in zip(self._factors, self._digits(s))]
                cached = self._from_factors(parts)
            else:
                cached = self._table_map(self._rows[s][self._base_rows])
            _cache_put(self._rmul_cache, s, cached)
        return cached

    def _conj_map(self, g: int) -> np.ndarray:
        """Map i -> index of g^-1 * x_i * g, for all i at once."""
        cached = self._conj_cache.get(g)
        if cached is None:
            if self._factors:
                parts = [f._conj_map(d) for f, d in zip(self._factors, self._digits(g))]
                cached = self._from_factors(parts)
            else:
                ginv_base = np.argsort(self._rows[g])[self._base]
                cached = self._table_map(self._rows[g][self._rows[:, ginv_base]])
            _cache_put(self._conj_cache, g, cached)
        return cached

    # ----- closures ----------------------------------------------------------

    def _closure_step(self, s: int) -> np.ndarray:
        """Right multiplication by s as the closure BFS applies it: its index map."""
        return self._rmul_map(s)

    @staticmethod
    def _spread(maps: Sequence, start, seen: np.ndarray) -> list[np.ndarray]:
        """Mark start, and everything it reaches under the index maps, in seen.

        The walk stops at indices seen already holds, so one seen mask can
        be shared by several walks.  Returns the BFS levels: start, then the
        indices each step newly marked, each level unsorted.  start must not
        repeat an index.  Every map is a permutation of the indices, so
        m[frontier] repeats none either, and marking each map's images in
        seen before the next map reads it keeps the maps of one level, and
        the levels, from sharing an index: no level needs a dedupe.
        """
        frontier = np.asarray(start, dtype=np.int64)
        seen[frontier] = True
        levels = [frontier]
        while frontier.size:
            fresh_parts = []
            for m in maps:
                t = m[frontier]
                t = t[~seen[t]]
                if t.size:
                    seen[t] = True
                    fresh_parts.append(t)
            frontier = (
                np.concatenate(fresh_parts) if fresh_parts else np.empty(0, dtype=np.int64)
            )
            levels.append(frontier)
        return levels

    def _closed_mask(self, gen_indices: Sequence[int], seed_mask: np.ndarray | None = None) -> np.ndarray:
        """Member mask of <gens>, optionally seeded with the subgroup that a
        prefix of gens generates.

        One plain BFS marks it, starting from the generators' power chains,
        so a cyclic group is its chain alone.  Each level steps by right
        multiplication by each generator (_closure_step): through the cached
        right-multiplication maps here, through the factors' maps in a direct
        product that is not coprime; a coprime one closes in its factors.
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        if seed_mask is not None:
            mask |= seed_mask
        gens = [int(s) for s in gen_indices]
        for s in gens:
            mask[self._power_indices(s)] = True
        if seed_mask is None and len(gens) == 1:
            return mask
        self._spread([self._closure_step(s) for s in gens], np.flatnonzero(mask), mask)
        return mask

    def _accumulate(self, candidates: Iterable[int]) -> tuple[list[int], np.ndarray]:
        """Generators and member mask of the subgroup the candidates generate.

        Each candidate not yet in the closure of those taken so far is
        adjoined, in the given order.
        """
        gens: list[int] = []
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        for i in candidates:
            i = int(i)
            if not mask[i]:
                gens.append(i)
                mask = self._closed_mask(gens, seed_mask=mask)
        return gens, mask

    def _validate_subgroup(self, h: "Subgroup") -> None:
        if h.parent is not self:
            raise NotASubgroup("subgroup belongs to a different group")
        closure = self._closed_mask(h.ensure_gens())
        if int(closure.sum()) != h.order or not closure[h.indices].all():
            raise NotASubgroup("element set is not closed under the group operation")

    # ----- conjugacy classes --------------------------------------------------

    def class_table(self) -> ClassTable:
        """The conjugacy classes, numbered by (size, least member): computed once
        by the label pass, or handed to a direct product by its factors.  The
        generators generate the table, so with at most one the group is cyclic
        and every class is one member, with no label pass."""
        if self._classes is None and len(self._gen_idx) <= 1:
            each = np.arange(self.order, dtype=np.int64)
            self._classes = _class_table(each, each, np.ones(self.order, dtype=np.int64))
        if self._classes is None:
            self._classes = self._class_pass(self._gen_idx)
        return self._classes

    def _class_pass(self, gens: Sequence[int], members=slice(None)) -> ClassTable:
        """Classes of <gens>, given its member indices, from one label pass over
        the whole table; ids reads 0, the identity's class, off the members."""
        # element_orders reads the classes, so the bounds come from the powers
        maps = [(self._conj_map(a), len(self._power_indices(a))) for a in gens]
        least = _least_labels(self.order, maps)
        reps, inverse, sizes = np.unique(least[members], return_inverse=True, return_counts=True)
        least.fill(0)  # the labels are read: their array takes the ids
        least[members] = inverse
        return _class_table(least, reps, sizes)

    def conjugacy_classes(self) -> list["ConjugacyClass"]:
        """Classes in class_table order, as views made on each call."""
        ids, _, sizes = self.class_table()
        members = np.argsort(ids, kind="stable")  # by class, ascending within
        return [ConjugacyClass(self, m) for m in np.split(members, np.cumsum(sizes)[:-1])]

    def class_id_of_idx(self, i: int) -> int:
        return int(self.class_table().ids[i])

    def class_size_of_idx(self, i: int) -> int:
        return int(self.class_table().sizes[self.class_id_of_idx(i)])

    def centralizer_mask_idx(self, i: int) -> np.ndarray:
        """Read-only mask of members commuting with x_i, computed once while it stays cached."""
        mask = self._centralizer_cache.get(i)
        if mask is None:
            # y commutes with x iff the members x*y and y*x agree on the base
            x = self._rows[i]
            mask = np.ones(self.order, dtype=bool)
            for b, col in zip(self._base, self._base_rows.T):
                mask &= x[col] == self._rows[:, x[b]]
            mask.flags.writeable = False
            _cache_put(self._centralizer_cache, i, mask)
        return mask

    def centralizer(self, x) -> "Subgroup":
        i = int(x) if isinstance(x, (int, np.integer)) else self.index_of(x)
        mask = self.centralizer_mask_idx(i)
        return Subgroup(self, np.flatnonzero(mask))

    def center(self) -> "Subgroup":
        table = self.class_table()
        return Subgroup(self, table.reps[table.sizes == 1])

    # ----- subgroup constructions ----------------------------------------------

    def subgroup_generated(self, seed: Iterable) -> "Subgroup":
        """Smallest subgroup containing the seed elements (Perms or indices)."""
        seed_idx = [int(s) if isinstance(s, (int, np.integer)) else self.index_of(s) for s in seed]
        gens, mask = self._accumulate(seed_idx)
        return Subgroup(self, np.flatnonzero(mask), gens)

    def sylow_subgroup(self, p: int) -> "Subgroup":
        """Sylow p-subgroup grown from the first p-element by normalizer steps,
        computed once per p; each call returns a new Subgroup."""
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if p not in self._sylows:
            self._sylows[p] = self._sylow_data(p)
        indices, gens = self._sylows[p]
        return Subgroup(self, indices, list(gens))

    def _sylow_data(self, p: int) -> tuple[np.ndarray, list[int]]:
        """(indices, generators) of sylow_subgroup(p)."""
        target = p_part(self.order, p)
        if target == 1:
            return np.array([0], dtype=np.int64), []
        cand = self.p_element_mask(p) & (self.element_orders() > 1)
        first = int(np.flatnonzero(cand)[0])
        gens = [first]
        mask = self._closed_mask(gens)
        while int(mask.sum()) < target:
            nmask = self._normalizer_mask(gens, mask)
            pick = nmask & cand & ~mask
            y = int(np.flatnonzero(pick)[0])
            gens.append(y)
            mask = self._closed_mask(gens, seed_mask=mask)
        members = np.flatnonzero(mask)
        if members.size != target:
            raise NotASubgroup(
                f"sylow construction produced order {members.size}, wanted {target}"
            )
        return members, gens

    def _normalizer_mask(self, sub_gens: Sequence[int], sub_mask: np.ndarray) -> np.ndarray:
        """Mask of y with y^-1 s y in the subgroup for each subgroup generator s."""
        out = np.ones(self.order, dtype=bool)
        # y^-1 s y sends b to y(s(y^-1(b)))
        inv_base = self._base_rows[self.inverse_indices()]
        for s in sub_gens:
            conj = np.take_along_axis(self._rows, self._rows[s][inv_base], axis=1)
            out &= sub_mask[self._indices_of_images(conj)]
        return out

    def normalizer(self, h: "Subgroup") -> "Subgroup":
        self._validate_subgroup(h)
        mask = self._normalizer_mask(h.ensure_gens(), h.mask())
        return Subgroup(self, np.flatnonzero(mask))

    def is_normal(self, h: "Subgroup") -> bool:
        if h.parent is not self:
            raise NotASubgroup("subgroup belongs to a different group")
        mask = h.mask()
        return all(
            bool(mask[self._conj_map(g)[h.indices]].all()) for g in self._gen_idx
        )

    def _conjugate_sets(
        self, start: np.ndarray, carry: np.ndarray | None = None
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Orbit of a sorted index set under conjugation, in BFS discovery order.

        Each orbit member comes paired with the image of carry under the
        conjugation that first reached it (None when carry is None).
        """
        orbit = [(start, carry)]
        keys = {start.tobytes()}
        for cur, extra in orbit:
            for g in self._gen_idx:
                cmap = self._conj_map(g)
                img = np.sort(cmap[cur])
                k = img.tobytes()
                if k not in keys:
                    keys.add(k)
                    orbit.append((img, None if extra is None else np.sort(cmap[extra])))
        return orbit

    def subgroup_conjugates(self, h: "Subgroup") -> list["Subgroup"]:
        """Conjugates of h in BFS discovery order, each with h's generators conjugated."""
        if h.parent is not self:
            raise NotASubgroup("subgroup belongs to a different group")
        gens = np.asarray(h.ensure_gens(), dtype=np.int64)
        return [Subgroup(self, idx, c.tolist()) for idx, c in self._conjugate_sets(h.indices, gens)]

    # ----- normal subgroups -----------------------------------------------------

    def _normal_closure_data(
        self, start: int, budget: _Budget, gens_h: Sequence[int]
    ) -> tuple[np.ndarray, list[int]]:
        """Mask and generators of the normal closure of one element in <gens_h>.

        Grows <gens> and, while some conjugate of a member escapes, adjoins the
        least escaping conjugate; the generator list stays logarithmic.  A
        coprime direct product runs this loop in its factors, to the same
        generators and spends.
        """
        gens = [int(start)]
        mask = self._closed_mask(gens)
        cmaps = [self._conj_map(g) for g in gens_h]
        while True:
            members = np.flatnonzero(mask)
            worst = None
            for cm in cmaps:
                t = cm[members]
                bad = t[~mask[t]]
                if bad.size:
                    m = int(bad.min())
                    worst = m if worst is None else min(worst, m)
            if worst is None:
                return mask, gens
            budget.spend()
            gens.append(worst)
            mask = self._closed_mask(gens, seed_mask=mask)

    def _power_indices(self, i: int) -> np.ndarray:
        """Indices of x^0, ..., x^(n-1), n = |x| for x = x_i, kept in
        _chain_cache: closures and rational classes ask for the same chains
        again and again.

        A direct product reads them off its factors' chains, as (a, b)^e =
        (a^e, b^e); any other group looks up _power_images.
        """
        chain = self._chain_cache.get(i)
        if chain is None:
            if self._factors:
                parts = [f._power_indices(d) for f, d in zip(self._factors, self._digits(i))]
                k = np.arange(reduce(np.lcm, [len(c) for c in parts]))
                chain = np.ravel_multi_index(
                    [c[k % len(c)] for c in parts], [f.order for f in self._factors]
                )
            else:
                chain = self._indices_of_images(self._power_images(i))
            _cache_put(self._chain_cache, i, chain)
        return chain

    def _power_images(self, i: int) -> np.ndarray:
        """Base images of x^0, ..., x^(n-1), n = |x| for x = x_i.

        Each round doubles their count, x^(m + 2^j) sending b to x^(2^j)(x^m(b)),
        until a power fixes the whole base: the first one to do so is x^n.
        """
        base = np.array(self._base, dtype=np.int64)
        powers = base[None, :]
        step = self._rows[i].astype(np.int64)
        while True:
            more = step[powers]
            back = np.flatnonzero((more == base).all(axis=1))
            if back.size:
                return np.concatenate([powers, more[: back[0]]])
            powers = np.concatenate([powers, more])
            step = step[step]

    def _rational_class_ids(self, i: int, ids: np.ndarray) -> np.ndarray:
        """Class ids, read in ids, of x^k for 1 <= k < |x| with gcd(k, |x|) = 1.

        Those powers generate the same cyclic group as x = x_i, so they have
        the same normal closure.
        """
        powers = self._power_indices(i)
        n = len(powers)
        coprime = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        return _distinct(ids[powers[coprime]])

    def normal_subgroups(self, budget: int = DEFAULT_NODE_BUDGET) -> list["Subgroup"]:
        """All normal subgroups, ordered by (order, element index list).

        Every normal subgroup is a union of conjugacy classes and equals the
        join of the normal closures of the classes it contains, so the search
        finds one closure per class and then join-closes the collection (the
        product NA of two normal subgroups is again one).  Each subgroup is
        keyed by its set of class ids, an int bitset.

        Only closures whose result is not yet known run.  x and x^k with k
        prime to |x| have the same closure, so one closure serves a whole
        rational class.  NA has order |N||A|/|N & A|, and a known subgroup of
        that order holding both N and A is NA; one reduceat per N gives
        |N & A| for every atom A.  Budget: one node per
        non-identity class and per attempted join, whether or not a closure
        runs, plus one per generator a running normal closure adjoins.
        Exhaustion raises BudgetExceeded, never truncates.
        """
        if self._normals is None:
            self._normals = self._normal_search(budget, self.class_table(), self._gen_idx, self.name)
        return [Subgroup(self, idx, list(gens)) for idx, gens in self._normals]

    def _normal_search(self, budget: int, classes: ClassTable, gens_h: Sequence[int], name: str):
        """(indices, gens) of each normal subgroup of <gens_h>, in normal_subgroups order."""
        ids, reps, sizes = classes
        closed = 0  # non-identity classes whose normal closure is known
        # subgroup key (class-id bitset) -> (mask, generators, class mask)
        entries: dict[int, tuple[np.ndarray, list[int], np.ndarray]] = {}
        counter = _Budget(
            budget,
            f"normal_subgroups({name})",
            lambda: f"; {closed} of {len(sizes) - 1} classes closed, "
            f"{len(entries)} normal subgroups found",
        )
        by_order: dict[int, list[int]] = {}

        def add(mask: np.ndarray, gens: list[int]) -> tuple[int, bool]:
            present = np.zeros(len(sizes), dtype=bool)
            present[ids[mask]] = True
            k = int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")
            if k in entries:
                return k, False
            entries[k] = (mask, gens, present)
            by_order.setdefault(int(sizes[present].sum()), []).append(k)
            return k, True

        triv = np.zeros(self.order, dtype=bool)
        triv[0] = True
        add(triv, [])

        atom_keys: list[int] = []
        known: set[int] = set()  # ids of classes whose closure is an atom already
        for cid, rep in enumerate(reps.tolist()):
            if rep == 0:
                continue
            counter.spend()
            if cid not in known:
                mask, gens = self._normal_closure_data(rep, counter, gens_h)
                k, _ = add(mask, gens)
                if k not in atom_keys:
                    atom_keys.append(k)
                known.update(self._rational_class_ids(rep, ids).tolist())
            closed += 1

        # the atoms' class ids end to end (none for a trivial group); no
        # reduceat segment is empty, as every atom holds the identity class
        parts = [np.flatnonzero(entries[ak][2]) for ak in atom_keys]
        cat = np.concatenate([np.empty(0, dtype=np.int64), *parts])
        starts = np.cumsum([0] + [len(c) for c in parts])[:-1]
        cat_sizes = sizes[cat]
        atom_orders = np.add.reduceat(cat_sizes, starts)

        queue = list(entries)
        for nk in queue:  # the loop also visits keys appended while it runs
            nmask, ngens, nclasses = entries[nk]
            meets = np.add.reduceat(cat_sizes * nclasses[cat], starts)
            targets = (int(sizes[nclasses].sum()) * atom_orders // meets).tolist()
            inside = (meets == atom_orders).tolist()
            for ak, target, within in zip(atom_keys, targets, inside):
                if within:
                    continue  # atom already inside
                counter.spend()
                amask, agens, _ = entries[ak]
                both = nk | ak
                if any(k & both == both for k in by_order.get(target, ())):
                    continue  # NA is known already
                gens = list(dict.fromkeys(ngens + agens))
                jmask = self._closed_mask(gens, seed_mask=nmask)
                k, new = add(jmask, gens)
                if new:
                    queue.append(k)

        subs = []
        for k in list(entries):
            mask, gens, _ = entries.pop(k)  # each mask is freed once read
            subs.append((np.flatnonzero(mask), gens))
        # equal orders give equal lengths, so big-endian bytes sort like tuples
        subs.sort(key=lambda s: (len(s[0]), s[0].astype(">i8").tobytes()))
        return subs

    def has_normal_p_complement(self, p: int) -> bool:
        """True iff the p'-order elements form a (then normal) subgroup."""
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        target = self.order // p_part(self.order, p)
        pprime = self.element_orders() % p != 0
        if int(pprime.sum()) != target:
            return False
        _, mask = self._accumulate(np.flatnonzero(pprime))
        return int(mask.sum()) == target

    # ----- cosets and quotients ---------------------------------------------

    def coset_labels(self, k: "Subgroup", actors: Sequence[int] = ()) -> np.ndarray:
        """Least member of each member's orbit under x -> x*s, s a generator
        of k, and x -> a^-1 * x * a, a an actor.

        With no actors, two members share a label iff they share a coset xK.
        With actors that generate a group H normalizing k, the orbit of x is
        the union of the cosets in the class of xK in H/K, so the count of a
        label over |K| is that class size.  The labels are computed once per
        kernel and actor list.  The array is read-only.
        """
        if k.parent is not self:
            raise NotASubgroup("subgroup belongs to a different group")
        key = (k.indices.tobytes(), tuple(int(a) for a in actors))
        least = self._quotient_cache.get(key)
        if least is None:
            orders = self.element_orders()
            maps = [(self._rmul_map(s), orders[s]) for s in k.ensure_gens()]
            maps += [(self._conj_map(a), orders[a]) for a in actors]
            least = _least_labels(self.order, maps)
            least.flags.writeable = False
            _cache_put(self._quotient_cache, key, least)
        return least

    def quotient(self, k: "Subgroup") -> tuple["Group", "QuotientMap"]:
        """Coset-action quotient and the projection map.

        The quotient acts on the left cosets of k, numbered by least member;
        generators project to the coset permutations they induce.  Each call
        checks k and builds a new quotient group.
        """
        self._validate_subgroup(k)
        if not self.is_normal(k):
            raise NotNormal(f"subgroup of order {k.order} is not normal in {self.name}")
        q_order = self.order // k.order
        if q_order * q_order > _CELL_LIMIT:
            raise CapExceeded(
                f"coset action table for index {q_order} would exceed the cell limit"
            )
        rep_arr, coset_id = np.unique(self.coset_labels(k), return_inverse=True)
        rep_base = self._base_rows[rep_arr]
        qgens = [
            Perm(coset_id[self._indices_of_images(self._rows[g][rep_base])])
            for g in self._gen_idx
        ]
        q = group_from_generators(
            q_order, qgens, cap=max(q_order, 1), name=f"{self.name}/{k.order}"
        )
        if q.order != q_order:
            raise NotNormal("coset action has wrong order; subgroup not normal")
        return q, QuotientMap(self, k, q, coset_id, rep_arr)

    # ----- composition factors --------------------------------------------------

    def composition_factors(self, budget: int = DEFAULT_NODE_BUDGET) -> list[tuple[int, bool]]:
        """(order, is_abelian) pairs along composition_series, bottom up.

        A factor H/L is abelian iff L holds the commutators of H's generators
        (L is normal in H, so it then holds all of [H, H]); the factor
        multiset is choice-independent (Jordan-Hoelder).
        """
        series = self.composition_series(budget)
        factors = []
        for low, high in zip(series, series[1:]):
            gens = high.ensure_gens()
            abelian = bool(low.mask()[self._commutators(gens, gens)].all())
            factors.append((high.order // low.order, abelian))
        return factors

    def composition_series(self, budget: int = DEFAULT_NODE_BUDGET) -> list["Subgroup"]:
        """Subgroup chain from trivial to the whole group with simple steps.

        Below each level comes the first of its largest proper normal
        subgroups in normal_subgroups order, found by _normal_search on the
        level's classes and generators in this group's own tables.  Computed
        once per group; each call returns new Subgroups.
        """
        if self._series is None:
            self.normal_subgroups(budget)
            idx, gens = np.arange(self.order, dtype=np.int64), list(self._gen_idx)
            series, name, normals = [(idx, gens)], self.name, self._normals
            while len(idx) > 1:
                idx, gens = next(s for s in normals if len(s[0]) == len(normals[-2][0]))
                series.append((idx, gens))
                if len(idx) > 1:
                    name = f"{name}|sub{len(idx)}"
                    normals = self._normal_search(budget, self._class_pass(gens, idx), gens, name)
            self._series = series[::-1]
        return [Subgroup(self, idx, list(gens)) for idx, gens in self._series]


class ConjugacyClass:
    """One conjugacy class, stored as sorted member indices."""

    __slots__ = ("parent", "indices")

    def __init__(self, parent: Group, indices: np.ndarray):
        self.parent = parent
        self.indices = indices

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def representative(self) -> Perm:
        return self.parent.element(int(self.indices[0]))

    def members(self) -> Iterator[Perm]:
        for i in self.indices:
            yield self.parent.element(int(i))

    def __repr__(self) -> str:
        return f"ConjugacyClass(size={self.size}, rep={self.representative.cycle_string()})"


class Subgroup:
    """A subgroup of a parent Group, stored as sorted member indices."""

    def __init__(self, parent: Group, indices: np.ndarray, gens: list[int] | None = None):
        self.parent = parent
        self.indices = np.sort(np.asarray(indices, dtype=np.int64))
        self._gens = gens
        self._mask: np.ndarray | None = None

    @property
    def order(self) -> int:
        return len(self.indices)

    def mask(self) -> np.ndarray:
        if self._mask is None:
            m = np.zeros(self.parent.order, dtype=bool)
            m[self.indices] = True
            self._mask = m
        return self._mask

    def ensure_gens(self) -> list[int]:
        if self._gens is None:
            self._gens = self.parent._accumulate(self.indices)[0]
        return self._gens

    def generators(self) -> list[Perm]:
        return [self.parent.element(i) for i in self.ensure_gens()]

    def elements(self) -> Iterator[Perm]:
        for i in self.indices:
            yield self.parent.element(int(i))

    def as_group(self) -> Group:
        # the new table must be closed: its lookups rely on it
        self.parent._validate_subgroup(self)
        rows = self.parent._rows[self.indices]
        gen_rows = [self.parent._rows[i] for i in self.ensure_gens()]
        return Group(rows, gen_rows, f"{self.parent.name}|sub{self.order}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and np.array_equal(other.indices, self.indices)
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


class QuotientMap:
    """Projection G -> G/K for the coset-action quotient."""

    def __init__(self, parent: Group, kernel: Subgroup, quotient: Group,
                 coset_id: np.ndarray, coset_reps: np.ndarray):
        self.parent = parent
        self.kernel = kernel
        self.quotient = quotient
        self.coset_id = coset_id
        self.coset_reps = coset_reps
        self._coset_elem: np.ndarray | None = None

    def _coset_to_element(self) -> np.ndarray:
        # The projection factors through cosets; tabulate coset -> quotient
        # index.  The coset of rep x acts as c -> coset of (rep_c * x), and
        # its images of the quotient's base cosets are enough to find it.
        if self._coset_elem is None:
            g = self.parent
            q = self.quotient
            nq, nb = len(self.coset_reps), len(q._base)
            cols = g._base_rows[self.coset_reps[q._base]].ravel()
            prods = g._rows[self.coset_reps][:, cols].reshape(nq * nb, len(g._base))
            qimages = self.coset_id[g._indices_of_images(prods)].reshape(nq, nb)
            self._coset_elem = q._indices_of_images(qimages)
        return self._coset_elem

    def image_idx(self, i: int) -> int:
        return int(self._coset_to_element()[self.coset_id[i]])


# ----- module-level constructors -------------------------------------------------


def group_from_generators(
    degree: int,
    generators: Iterable,
    cap: int | None = None,
    name: str = "group",
    table: np.ndarray | None = None,
) -> Group:
    """Enumerate the group generated by the given permutations.

    Breadth-first right-multiplication closure from the identity; raises
    CapExceeded as soon as the element count would pass the cap, or the
    table would pass _CELL_LIMIT cells.  A table given by the caller, the
    whole group written in closed form, is held to the same limits and
    kept in place of the enumeration.
    """
    if cap is None:
        cap = default_element_cap()
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    dtype = _images_dtype(degree)
    gen_rows = [_as_image_row(g, degree, dtype) for g in generators]
    limit = min(cap, _CELL_LIMIT // degree)
    if limit == cap:
        refusal = f"{name}: enumeration passed the element cap of {cap}"
    else:
        refusal = (
            f"{name}: enumeration passed {limit} elements, the most a degree-{degree} "
            f"table may hold under the cell limit of {_CELL_LIMIT}"
        )
    if table is not None:
        if len(table) > limit:
            raise CapExceeded(refusal)
        return Group(table, gen_rows, name)
    # each member is kept as the bytes of its image row, in discovery order
    width = degree * np.dtype(dtype).itemsize
    frontier = [np.arange(degree, dtype=dtype).tobytes()]
    seen = dict.fromkeys(frontier)
    while frontier:
        fresh: list[bytes] = []
        # intp indices: numpy gathers with int16 ones about 3x slower
        cur = np.frombuffer(b"".join(frontier), dtype=dtype).reshape(-1, degree).astype(np.intp)
        for g in gen_rows:
            prod = g[cur].tobytes()
            for pos in range(0, len(prod), width):
                key = prod[pos : pos + width]
                if key not in seen:
                    if len(seen) >= limit:
                        raise CapExceeded(refusal)
                    seen[key] = None
                    fresh.append(key)
        frontier = fresh
    rows = np.frombuffer(b"".join(seen), dtype=dtype).reshape(-1, degree)
    return Group(rows, gen_rows, name)


def direct_product(*groups: Group, cap: int | None = None, name: str | None = None) -> Group:
    """External direct product of two or more groups, acting on the disjoint
    union of their point sets.

    Row i_1 ... i_k, the mixed-radix number in the groups' orders, is
    (x_1, ..., x_k).  The product keeps the leaf factors (a product among
    the groups gives its own leaves), which never point back at it, and
    builds its table from them on first read; no partial product is built.
    """
    if len(groups) < 2:
        raise ValueError("a direct product needs at least two groups")
    for g in groups:
        if not isinstance(g, Group):
            raise TypeError(
                f"direct_product takes Groups, not {type(g).__name__}; "
                "the element cap is the keyword-only argument cap="
            )
    if cap is None:
        cap = default_element_cap()
    order = prod(g.order for g in groups)
    if order > cap:
        raise CapExceeded(f"direct product order {order} passes the element cap {cap}")
    degree = sum(g.degree for g in groups)
    if order * degree > _CELL_LIMIT:
        raise CapExceeded(
            f"direct product table of {order} x {degree} cells passes the cell "
            f"limit of {_CELL_LIMIT}"
        )
    label = name if name is not None else " x ".join(g.name for g in groups)
    return _Product(tuple(f for g in groups for f in g._factors or (g,)), label)


def is_internal_direct_product(g: Group, a: Subgroup, b: Subgroup) -> bool:
    """True iff a and b are normal, intersect trivially and cover g by order.

    Those three conditions force g = ab with a and b commuting elementwise;
    the commuting consequence is checked on generators, and NotASubgroup is
    raised if it fails.
    """
    for s in (a, b):
        if s.parent is not g:
            raise NotASubgroup("subgroup belongs to a different group")
    if a.order * b.order != g.order:
        return False
    if len(np.intersect1d(a.indices, b.indices, assume_unique=True)) != 1:
        return False
    if not (g.is_normal(a) and g.is_normal(b)):
        return False
    if not g._commute(a.ensure_gens(), b.ensure_gens()):
        raise NotASubgroup("direct factors fail to commute; engine invariant broken")
    return True


# last: _product subclasses Group, and direct_product makes its _Product
from ._product import _Product  # noqa: E402
