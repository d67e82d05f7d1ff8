"""Class-size invariants of a finite group.

Everything here is derived from the multiset of conjugacy class sizes and
from Sylow structure: the class-size set, centralizer indices, the largest
p-part occurring among class sizes, the classification of how a prime's
powers show up across class sizes, the orbit of Sylow centers, and the
commuting-Sylow criterion that ties class sizes to subgroup structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import IntSet, is_prime, p_part
from .errors import EngineFault, NotASubgroup
from .group import Group, Subgroup

# How the p-parts of the class sizes behave:
#   mixed          two or more distinct p-parts above 1
#   uniform_active one p-part above 1, witnessed by some p-element's class
#   uniform_inert  at most one p-part above 1, no p-element's class shows it
KIND_MIXED = "mixed"
KIND_UNIFORM_ACTIVE = "uniform_active"
KIND_UNIFORM_INERT = "uniform_inert"


@dataclass(frozen=True)
class ClassSizeSet:
    """Distinct conjugacy class sizes, with multiplicities kept for diagnostics."""

    sizes: IntSet
    multiplicities: tuple[tuple[int, int], ...]  # (size, count), ascending

    def sorted_sizes(self) -> list[int]:
        return sorted(self.sizes)


@dataclass(frozen=True)
class PPartClassification:
    """How the powers of one prime appear across the class sizes.

    parts lists the distinct p-parts of the class sizes, ascending (always
    starting at 1).  exponent is set when exactly one part above 1 occurs,
    in which case that part is p**exponent; a mixed pattern has no exponent.
    """

    p: int
    kind: str
    exponent: int | None
    parts: tuple[int, ...]


def class_size_set(g: Group) -> ClassSizeSet:
    sizes, counts = (a.tolist() for a in np.unique(g.class_table().sizes, return_counts=True))
    for size in sizes:
        if g.order % size != 0:
            raise EngineFault(f"class size {size} does not divide |G| = {g.order}")
    if 1 not in sizes:
        raise EngineFault("identity class missing")
    return ClassSizeSet(sizes=frozenset(sizes), multiplicities=tuple(zip(sizes, counts)))


def centralizer_index(g: Group, within: Subgroup | None, x) -> int:
    """|N| / |C_N(x)| for a subgroup N; the whole group when within is None.

    By orbit-stabilizer this is the size of x's orbit under conjugation by
    N.  x must lie in g but not necessarily in N.
    """
    if within is not None and within.parent is not g:
        raise NotASubgroup("subgroup belongs to a different group")
    i = int(x) if isinstance(x, (int, np.integer)) else g.index_of(x)
    cmask = g.centralizer_mask_idx(i)
    if within is None:
        total, hits = g.order, int(cmask.sum())
    else:
        total, hits = within.order, int(cmask[within.indices].sum())
    if hits == 0 or total % hits != 0:
        raise EngineFault("centralizer size does not divide the subgroup order")
    return total // hits


def max_class_p_part(g: Group, p: int) -> int:
    """Largest p-part occurring among the class sizes; divides |G|_p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    best = max(p_part(size, p) for size in set(g.class_table().sizes.tolist()))
    if p_part(g.order, p) % best != 0:
        raise EngineFault("class-size p-part exceeds the group order p-part")
    return best


def _class_size_per_element(g: Group) -> np.ndarray:
    table = g.class_table()
    return table.sizes[table.ids]


def classify_p_parts(g: Group, p: int) -> PPartClassification:
    """Classify the p-part pattern of the class sizes.

    With at most one p-part above 1 the pattern is uniform; it is active
    when some p-element's own class realizes the nontrivial part, inert
    otherwise (in particular when every class size is prime to p).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    css = class_size_set(g)
    parts = tuple(sorted({p_part(s, p) for s in css.sizes}))
    non_one = [v for v in parts if v > 1]
    if len(non_one) > 1:
        return PPartClassification(p, KIND_MIXED, None, parts)
    if not non_one:
        return PPartClassification(p, KIND_UNIFORM_INERT, None, parts)
    exponent = 0
    v = non_one[0]
    while v > 1:
        v //= p
        exponent += 1
    sizes = _class_size_per_element(g)
    pmask = g.p_element_mask(p)
    active = bool((sizes[pmask] % p == 0).any())
    kind = KIND_UNIFORM_ACTIVE if active else KIND_UNIFORM_INERT
    return PPartClassification(p, kind, exponent, parts)


def sylow_center_orbit(g: Group, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(subgroup indices, center indices) for every Sylow p-subgroup.

    One Sylow subgroup P is computed directly, with Z(P) read off G's
    centralizer masks at P's generators; the rest are its conjugates, and
    conjugation carries centers to centers.
    """
    syl = g.sylow_subgroup(p)
    center = syl.mask()
    for s in syl.ensure_gens():
        center = center & g.centralizer_mask_idx(s)
    return g._conjugate_sets(syl.indices, np.flatnonzero(center))


# ----- commuting Sylow pairs --------------------------------------------------


def sylow_commute_criterion(g: Group, p: int, q: int) -> tuple[bool, bool]:
    """Class-size side and subgroup side of the commuting-Sylow criterion.

    class_side: no q-element has class size divisible by p and no p-element
    has class size divisible by q.  subgroup_side: some Sylow p-subgroup
    commutes elementwise with some Sylow q-subgroup, tested for one fixed P
    against every Q: if P^x commutes with Q, P commutes with Q^(x^-1).  The
    two sides are expected to coincide; callers assert it.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError(f"p and q must be prime, got {p}, {q}")
    if p == q:
        raise ValueError("p and q must be distinct")
    sizes = _class_size_per_element(g)
    p_elems = g.p_element_mask(p)
    q_elems = g.p_element_mask(q)
    class_side = not bool((sizes[q_elems] % p == 0).any()) and not bool(
        (sizes[p_elems] % q == 0).any()
    )
    p_gens = g.sylow_subgroup(p).ensure_gens()
    # elementwise commuting follows from generator pairs commuting
    subgroup_side = any(
        g._commute(p_gens, b.ensure_gens()) for b in g.subgroup_conjugates(g.sylow_subgroup(q))
    )
    return class_side, subgroup_side
