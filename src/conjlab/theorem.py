"""End-to-end verification of the class-size direct-product criterion.

verify_main_theorem() takes one group and decides among three verdicts: the class-size
set admits no qualifying factorization (HypothesisNotMet); every qualifying
factorization is realized by an internal direct product rediscovered from
the normal-subgroup lattice (VerifiedDecomposition); or some factorization
provably has no realization after an exhaustive search (COUNTEREXAMPLE,
never expected on real groups).  A budget failure raises instead of
guessing.

run_lemma_suite() independently spot-checks the supporting structural
facts the argument leans on.  Every lemma is one case source, one
predicate and one failure label, and _check is the one place that turns
them into a pass or fail LemmaResult.  Cases are int64 arrays with one case
per row, and a predicate decides a whole batch, one bool per row;
_check_each lifts the scalar predicates of the few-case lemmas (primes,
prime pairs).  The checks that quantify over elements or normal subgroups
go through _drive, which picks the cases: every case when the case count
fits the sample budget, and exactly that many seeded draws otherwise.
Draws still go through rng.randrange one case at a time, in a fixed order;
they are decided _CHUNK at a time, so memory stays bounded for any budget
and where a chunk ends moves no result.  The public
check_noncentral_misses_class reuses its lemma's predicate.  The
coprime-action splitting check has its own witness type since it
quantifies over group actions rather than a single group.

Each centralizer mask, coset labelling and composition series is computed
once per group: Group memoises centralizer_mask_idx per element,
coset_labels per kernel and actor list, and composition_series.  Class ids,
representatives and sizes come from Group.class_table.  No lemma builds a
quotient group.  G/K is read through Group.coset_labels: with no actors the
labels name the cosets xK, and with G's generators as actors a label's
count over |K| is the class size of xK in G/K, kept per kernel by the lemma
that reads it, for one run.  These memos sit below the functions a test may
patch to break a fact, and never in a lemma body.  The mask memo is inside
Group.centralizer_mask_idx, so a patch that wraps that method sees every
call.  _misses_a_class reads its masks at class representatives inside the
function itself, so a patch of _misses_a_class replaces the whole
predicate.  class_size_divisibility reads |x^K| and the class size of xK
from (kernel, class) tables (_ClassDivisors), which hold because both are
class functions of x, and series_class_divisibility reads the factor class
size at each position of a series step from one labelling per step, with
the step's top as actors.  The two quotient-centralizer lemmas get no such
table, though their predicates are class functions as well.  They read the
mask of the element in each case, not of its class representative, so they
also check centralizer_mask_idx at elements that no other lemma reads;
C(xK) is decided coset by coset, with one lookup of y^-1 x y for each coset
yK that C(x) meets.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from math import gcd, prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .arith import Factorization, find_hypothesis_factorizations, p_part, prime_divisors
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidPermutation,
    NotAbelian,
    NotCoprime,
)
from .group import (
    DEFAULT_NODE_BUDGET,
    Group,
    Subgroup,
    group_from_generators,
    is_internal_direct_product,
)
from .invariants import (
    KIND_UNIFORM_ACTIVE,
    KIND_UNIFORM_INERT,
    ClassSizeSet,
    PPartClassification,
    _class_size_per_element,
    centralizer_index,
    class_size_set,
    classify_p_parts,
    sylow_center_orbit,
    sylow_commute_criterion,
)
from .perm import Perm

DEFAULT_LEMMA_SAMPLES = 10_000

VERDICT_HYPOTHESIS_NOT_MET = "HypothesisNotMet"
VERDICT_VERIFIED = "VerifiedDecomposition"
VERDICT_COUNTEREXAMPLE = "COUNTEREXAMPLE"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIPPED = "skipped"

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"


@dataclass(frozen=True)
class LemmaResult:
    status: str
    checked: int
    mode: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "checked": self.checked,
            "mode": self.mode,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Decomposition:
    """One rediscovered internal direct product realizing a factorization."""

    omega: frozenset
    n: int
    a_order: int
    b_order: int
    a_class_sizes: tuple
    b_class_sizes: tuple
    a_generators: tuple
    b_generators: tuple

    def to_dict(self) -> dict:
        return {
            "omega": sorted(self.omega),
            "n": self.n,
            "a_order": self.a_order,
            "b_order": self.b_order,
            "a_class_sizes": list(self.a_class_sizes),
            "b_class_sizes": list(self.b_class_sizes),
            "a_generators": list(self.a_generators),
            "b_generators": list(self.b_generators),
        }


@dataclass
class TheoremReport:
    group_name: str
    group_order: int
    n_of_g: ClassSizeSet
    factorizations: tuple
    decompositions: tuple
    verdict: str
    lemma_results: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "group_name": self.group_name,
            "group_order": self.group_order,
            "n_of_g": {
                "sizes": sorted(self.n_of_g.sizes),
                "multiplicities": [list(mc) for mc in self.n_of_g.multiplicities],
            },
            "factorizations": [
                {"omega": sorted(f.omega), "n": f.n} for f in self.factorizations
            ],
            "decompositions": [d.to_dict() for d in self.decompositions],
            "verdict": self.verdict,
            "lemma_results": {
                name: res.to_dict() for name, res in self.lemma_results.items()
            },
            "timings": dict(self.timings),
        }


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


def _sub_class_sizes(g: Group, sub: Subgroup, cache: dict) -> frozenset:
    key = sub.indices.tobytes()
    if key not in cache:
        if sub.order == 1:
            cache[key] = frozenset({1})
        elif sub.order == g.order:
            cache[key] = class_size_set(g).sizes
        else:
            cache[key] = class_size_set(sub.as_group()).sizes
    return cache[key]


def _describe(g: Group, fac: Factorization, a: Subgroup, b: Subgroup, cache: dict) -> Decomposition:
    return Decomposition(
        omega=fac.omega,
        n=fac.n,
        a_order=a.order,
        b_order=b.order,
        a_class_sizes=tuple(sorted(_sub_class_sizes(g, a, cache))),
        b_class_sizes=tuple(sorted(_sub_class_sizes(g, b, cache))),
        a_generators=tuple(p.cycle_string() for p in a.generators()),
        b_generators=tuple(p.cycle_string() for p in b.generators()),
    )


def verify_main_theorem(
    g: Group,
    normal_budget: int = DEFAULT_NODE_BUDGET,
    all_pairs: bool = False,
    lemma_seed: int | None = None,
    lemma_samples: int = DEFAULT_LEMMA_SAMPLES,
) -> TheoremReport:
    """Full verification pass over one group.

    The decomposition search runs over the complete normal-subgroup list,
    candidate second factors ascending by order.  It first pairs each
    normal subgroup B with its normal complements A (|A||B| = |G| and
    A & B = 1), by order, and builds a subgroup table to read class sizes
    only for subgroups in such a pair.  By default the first realization
    per factorization is reported, all of them with all_pairs.  The lemma
    suite runs only when lemma_seed is given.
    """
    timings: dict = {}
    t = _now_ms()
    css = class_size_set(g)
    timings["classes"] = int(_now_ms() - t)

    t = _now_ms()
    facs = find_hypothesis_factorizations(css.sizes)
    timings["factorize"] = int(_now_ms() - t)

    decomps: list[Decomposition] = []
    if not facs:
        verdict = VERDICT_HYPOTHESIS_NOT_MET
    else:
        t = _now_ms()
        normals = g.normal_subgroups(normal_budget)
        timings["normal_subgroups"] = int(_now_ms() - t)

        t = _now_ms()
        sizes_cache: dict = {}
        # each b with its normal complements a, both in normals order: |a||b|
        # is |G| and only the identity lies in both
        by_order: dict[int, list[Subgroup]] = {}
        for a in normals:
            by_order.setdefault(a.order, []).append(a)
        paired: list[tuple[Subgroup, list[Subgroup]]] = []
        for b in normals:
            bmask = b.mask()
            complements = [
                a for a in by_order.get(g.order // b.order, ()) if int(bmask[a.indices].sum()) == 1
            ]
            if complements:
                paired.append((b, complements))
        all_realized = True
        for fac in facs:
            target_b = frozenset({1, fac.n})
            found: list[Decomposition] = []
            for b, complements in paired:
                if _sub_class_sizes(g, b, sizes_cache) != target_b:
                    continue
                for a in complements:
                    if _sub_class_sizes(g, a, sizes_cache) != fac.omega:
                        continue
                    if not is_internal_direct_product(g, a, b):
                        continue
                    found.append(_describe(g, fac, a, b, sizes_cache))
                    if not all_pairs:
                        break
                if found and not all_pairs:
                    break
            decomps.extend(found)
            # the paper's conclusion: n is a prime power wherever G decomposes
            if not found or len(prime_divisors(fac.n)) != 1:
                all_realized = False
        timings["decomposition_search"] = int(_now_ms() - t)
        verdict = VERDICT_VERIFIED if all_realized else VERDICT_COUNTEREXAMPLE

    lemma_results: dict = {}
    if lemma_seed is not None:
        t = _now_ms()
        lemma_results = run_lemma_suite(
            g, seed=lemma_seed, sample_budget=lemma_samples, normal_budget=normal_budget
        )
        timings["lemma_suite"] = int(_now_ms() - t)

    return TheoremReport(
        group_name=g.name,
        group_order=g.order,
        n_of_g=css,
        factorizations=tuple(facs),
        decompositions=tuple(decomps),
        verdict=verdict,
        lemma_results=lemma_results,
        timings=timings,
    )


# ----- standalone structural checks ------------------------------------------


def check_noncentral_misses_class(g: Group) -> bool:
    """Every non-central element fails to commute into some whole class."""
    return bool(_misses_a_class(g, np.flatnonzero(~g.center().mask())).all())


def _sylow_centers_central(g: Group, p: int) -> list[bool]:
    """Per Sylow p-subgroup: is its center inside the center of g?"""
    zmask = g.center().mask()
    return [bool(zmask[cen].all()) for _, cen in sylow_center_orbit(g, p)]


def _misses_a_class(g: Group, xs: np.ndarray) -> np.ndarray:
    """Per index i in xs: does the centralizer of x_i miss some whole class?

    Conjugating x_i conjugates its centralizer, which meets each class as
    often as before, so the answer is read at x_i's class representative,
    once for each class that xs reaches.
    """
    ids, reps, _ = g.class_table()
    cids = ids[xs]
    misses = np.zeros(len(reps), dtype=bool)
    for c in np.unique(cids).tolist():
        hits = np.bincount(ids[g.centralizer_mask_idx(int(reps[c]))], minlength=len(reps))
        misses[c] = (hits == 0).any()
    return misses[cids]


# ----- lemma suite -------------------------------------------------------------

# cases decided at a time; the sampled path holds no more draws than this,
# so memory stays bounded for any sample budget
_CHUNK = 4096


def _check(
    batches: Iterable[np.ndarray],
    holds: Callable[[np.ndarray], np.ndarray],
    label: str,
    mode: str = MODE_EXHAUSTIVE,
) -> LemmaResult:
    """Decide every case; the one place a pass or fail LemmaResult is made.

    batches yields int64 arrays with one case per row.  They are decided
    _CHUNK rows at a time: holds(cases) returns one bool per row, and a
    failing case is reported as label.format(*row).
    """
    fails, checked = [], 0
    for batch in batches:
        for start in range(0, len(batch), _CHUNK):
            cases = batch[start : start + _CHUNK]
            checked += len(cases)
            bad = cases[~holds(cases)][: 5 - len(fails)]
            fails.extend(label.format(*case) for case in bad.tolist())
    if fails:
        return LemmaResult(STATUS_FAIL, checked, mode, f"violations: {', '.join(fails)}")
    return LemmaResult(STATUS_PASS, checked, mode)


def _check_each(cases: Iterable[tuple], holds: Callable[..., bool], label: str) -> LemmaResult:
    """_check a few integer cases with a predicate of one case, holds(*case)."""
    return _check(
        [np.array(list(cases), dtype=np.int64)],
        lambda batch: np.array([holds(*case) for case in batch.tolist()], dtype=bool),
        label,
    )


def _drive(
    total: int,
    samples: int,
    exhaustive: Iterable[np.ndarray],
    draw: Callable[[], tuple | None],
    holds: Callable[[np.ndarray], np.ndarray],
    label: str,
) -> LemmaResult:
    """_check every case when the total fits in samples, else samples draws.

    exhaustive yields the case arrays.  draw() returns one seeded case, or
    None for a draw that checks nothing; draws are taken _CHUNK at a time,
    in rng order, and each chunk is decided before the next is drawn.
    """
    if total <= samples:
        return _check(exhaustive, holds, label)
    return _check(_drawn(draw, samples), holds, label, MODE_SAMPLED)


def _drawn(draw: Callable[[], tuple | None], samples: int) -> Iterator[np.ndarray]:
    for start in range(0, samples, _CHUNK):
        cases = (draw() for _ in range(min(_CHUNK, samples - start)))
        yield np.array([case for case in cases if case is not None], dtype=np.int64)


def _with(first: int, seconds: np.ndarray) -> np.ndarray:
    """The cases (first, s) for s in seconds, one per row."""
    return np.column_stack([np.full(len(seconds), first, dtype=np.int64), seconds])


def _primes_of_kind(g: Group, kind: str) -> Iterable[PPartClassification]:
    """p-part classifications of the given kind, in prime_divisors order."""
    for p in prime_divisors(g.order):
        cls = classify_p_parts(g, p)
        if cls.kind == kind:
            yield cls


def _centralizers_of_products_split(g: Group) -> Callable[[np.ndarray], np.ndarray]:
    """C(xy) = C(x) & C(y) per commuting pair (x, y): the predicate of both
    centralizer-product lemmas.

    C(xy) always holds C(x) & C(y) then, so the two are equal iff their
    orders are, and |C(xy)| is |G| over the class size of xy.  The products
    of a batch are looked up at once; each intersection is counted on its own.
    """
    sizes = _class_size_per_element(g)

    def holds(cases: np.ndarray) -> np.ndarray:
        out = np.ones(len(cases), dtype=bool)  # an identity factor: nothing to split
        live = np.flatnonzero((cases != 0).all(axis=1))
        x, y = cases[live].T
        # x then y sends a base point b to y(x(b))
        xy = g._indices_of_images(g._rows[y[:, None], g._base_rows[x]])
        both = [
            np.count_nonzero(g.centralizer_mask_idx(i) & g.centralizer_mask_idx(j))
            for i, j in zip(x.tolist(), y.tolist())
        ]
        out[live] = np.array(both, dtype=np.int64) * sizes[xy] == g.order
        return out

    return holds


def _lemma_normal_p_complement(g, rng, samples, nbudget) -> LemmaResult:
    active = ((cls.p,) for cls in _primes_of_kind(g, KIND_UNIFORM_ACTIVE))
    return _check_each(active, g.has_normal_p_complement, "p={}")


def _lemma_sylow_center_in_center(g, rng, samples, nbudget) -> LemmaResult:
    cases = (
        (cls.p, central)
        for cls in _primes_of_kind(g, KIND_UNIFORM_ACTIVE)
        for central in _sylow_centers_central(g, cls.p)
    )
    return _check_each(cases, lambda p, central: central, "p={}")


def _degenerate(g: Group, normals: Sequence[Subgroup], cases: np.ndarray) -> np.ndarray:
    """Per (k, x): K = 1, K = G or x = 1, where G -> G/K and x say nothing."""
    korders = np.array([s.order for s in normals], dtype=np.int64)[cases[:, 0]]
    return (korders == 1) | (korders == g.order) | (cases[:, 1] == 0)


def _class_sizes_over(g: Group, k: Subgroup, actors: Sequence[int]) -> np.ndarray:
    """Per member x: the class size of xK in H/K, H = <actors>, K = k normal in H."""
    labels = g.coset_labels(k, actors)
    return np.bincount(labels, minlength=g.order)[labels] // k.order


class _ClassDivisors:
    """Per (k, x): |x^K| and the class size of xK in G/K divide |x^G|, K = normals[k].

    Both divisors are class functions of x, so they are read from (kernel,
    class) tables, filled for the pairs the cases reach and 0 elsewhere:
    in_kernel holds |K| / |C_K(rep)| at each class representative, and
    in_quotient, filled a kernel at a time, the class size of rep K in G/K.
    A kernel's row is filled only once one of its cases passes the |x^K|
    test, in the order such cases come.
    """

    def __init__(self, g: Group, normals: Sequence[Subgroup]):
        self.g, self.normals = g, normals
        self.sizes = _class_size_per_element(g)
        self.ids, self.reps, _ = g.class_table()
        self.in_kernel = np.zeros((len(normals), len(self.reps)), dtype=np.int64)
        self.in_quotient = np.zeros_like(self.in_kernel)

    def __call__(self, cases: np.ndarray) -> np.ndarray:
        g, sizes = self.g, self.sizes
        out = np.ones(len(cases), dtype=bool)
        live = np.flatnonzero(~_degenerate(g, self.normals, cases))
        k, x = cases[live].T
        c = self.ids[x]
        unread = np.column_stack([k, c])[self.in_kernel[k, c] == 0]
        for kk, cc in np.unique(unread, axis=0).tolist():
            self.in_kernel[kk, cc] = centralizer_index(g, self.normals[kk], int(self.reps[cc]))
        ok = sizes[x] % self.in_kernel[k, c] == 0
        passed = k[ok]
        _, first = np.unique(passed, return_index=True)
        for kk in passed[np.sort(first)].tolist():
            if self.in_quotient[kk, 0] == 0:
                self.in_quotient[kk] = _class_sizes_over(g, self.normals[kk], g._gen_idx)[self.reps]
        ok[ok] = sizes[x[ok]] % self.in_quotient[passed, c[ok]] == 0
        out[live] = ok
        return out


def _lemma_class_size_divisibility(g, rng, samples, nbudget) -> LemmaResult:
    # class of x inside a normal subgroup, and class of the image in the
    # quotient, both divide the class of x
    normals = g.normal_subgroups(nbudget)
    n = len(normals)
    return _drive(
        n * g.order,
        samples,
        (_with(k, np.arange(g.order)) for k in range(n)),
        lambda: (rng.randrange(n), rng.randrange(g.order)),
        _ClassDivisors(g, normals),
        "K#{},x#{}",
    )


def _factor_class_sizes(g: Group, series: Sequence[Subgroup]) -> list[np.ndarray]:
    """Per step low < high of the series: the class size in high/low of each
    member's image, by position in high."""
    return [
        _class_sizes_over(g, low, high.ensure_gens())[high.indices]
        for low, high in zip(series, series[1:])
    ]


def _lemma_series_class_divisibility(g, rng, samples, nbudget) -> LemmaResult:
    # class size in a composition factor divides the class size in the group
    series = g.composition_series(nbudget)
    highs = series[1:]
    if not highs:
        return LemmaResult(STATUS_PASS, 0, MODE_EXHAUSTIVE, "trivial group")
    sizes = _class_size_per_element(g)
    # case (step, pos) is entry starts[step] + pos of the joined arrays
    starts = np.cumsum([0] + [high.order for high in highs])
    members = np.concatenate([high.indices for high in highs])
    in_factor = np.concatenate(_factor_class_sizes(g, series))

    def holds(cases: np.ndarray) -> np.ndarray:
        at = starts[cases[:, 0]] + cases[:, 1]
        return sizes[members[at]] % in_factor[at] == 0

    def draw():
        si = rng.randrange(len(highs))
        return si, rng.randrange(highs[si].order)

    return _drive(
        int(starts[-1]),
        samples,
        (_with(si, np.arange(high.order)) for si, high in enumerate(highs)),
        draw,
        holds,
        "step{},pos{}",
    )


def _lemma_coprime_centralizer_product(g, rng, samples, nbudget) -> LemmaResult:
    # commuting elements of coprime order: C(xy) = C(x) & C(y)
    orders = g.element_orders()
    _, reps, sizes = g.class_table()

    @functools.cache
    def coprime_to(order: int) -> np.ndarray:
        return np.gcd(orders, order) == 1

    def coprime_partners(x: int) -> np.ndarray:
        # members of C(x) of order prime to x's; the identity is always one
        return np.flatnonzero(g.centralizer_mask_idx(x) & coprime_to(int(orders[x])))

    def draw():
        # draw y from C(x) so every draw yields a commuting pair
        x = rng.randrange(g.order)
        coprime = coprime_partners(x)
        return x, int(coprime[rng.randrange(coprime.size)])

    return _drive(
        int((g.order // sizes).sum()),
        samples,
        (_with(x, coprime_partners(x)) for x in reps.tolist()),
        draw,
        _centralizers_of_products_split(g),
        "x#{},y#{}",
    )


# base-image cells one lookup of conjugates holds, unless one case needs more
_LOOKUP_CELLS = 1 << 20


def _quotient_centralizers(
    g: Group, normals: Sequence[Subgroup], subset_only: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """Per (k, x): the image of C(x) in G/K lies in C(xK), and with subset_only
    false equals it, K = normals[k].

    yK centralizes xK iff y^-1 x y lies in xK, for every member y of yK or
    for none, so it is tested at the label of each coset that C(x) meets.
    The image, a subset of C(xK), is all of it iff it has |G/K| / |xK^(G/K)|
    cosets.  Each case reads the mask of its own x, not of x's class
    representative.
    """
    in_quotient: dict = {}  # kernel -> class size of xK in G/K per member x

    def holds(cases: np.ndarray) -> np.ndarray:
        out = np.ones(len(cases), dtype=bool)  # degenerate: an isomorphism or a point
        live = np.flatnonzero(~_degenerate(g, normals, cases))
        for k in np.unique(cases[live, 0]).tolist():
            rows, labels = live[cases[live, 0] == k], g.coset_labels(normals[k])
            step = max(1, _LOOKUP_CELLS * normals[k].order // (g.order * len(g._base)))
            for chunk in np.split(rows, range(step, len(rows), step)):
                met = [
                    np.flatnonzero(np.bincount(labels[g.centralizer_mask_idx(x)], minlength=g.order))
                    for x in cases[chunk, 1].tolist()
                ]
                counts = np.array([len(ys) for ys in met], dtype=np.int64)
                owner, y = np.repeat(chunk, counts), np.concatenate(met)
                x = cases[owner, 1]
                # y^-1 x y sends b to y(x(y^-1(b)))
                images = g._rows[y[:, None], g._rows[x[:, None], g._base_rows[g.inverse_indices()[y]]]]
                out[owner[labels[g._indices_of_images(images)] != labels[x]]] = False
                if not subset_only:
                    if k not in in_quotient:
                        in_quotient[k] = _class_sizes_over(g, normals[k], g._gen_idx)
                    sizes = in_quotient[k][cases[chunk, 1]]
                    out[chunk] &= counts * sizes * normals[k].order == g.order
        return out

    return holds


def _lemma_coprime_quotient_centralizer(g, rng, samples, nbudget) -> LemmaResult:
    # element order coprime to |K|: centralizer image equals image centralizer
    normals = g.normal_subgroups(nbudget)
    orders = g.element_orders()
    reps = g.class_table().reps

    def draw():
        k, x = rng.randrange(len(normals)), rng.randrange(g.order)
        return (k, x) if gcd(int(orders[x]), normals[k].order) == 1 else None

    return _drive(
        len(normals) * len(reps),
        samples,
        (
            _with(k, reps[np.gcd(orders[reps], sub.order) == 1])
            for k, sub in enumerate(normals)
        ),
        draw,
        _quotient_centralizers(g, normals, subset_only=False),
        "K#{},x#{}",
    )


def _lemma_centralizer_image_in_quotient(g, rng, samples, nbudget) -> LemmaResult:
    # always: image of the centralizer lands inside the image's centralizer
    normals = g.normal_subgroups(nbudget)
    reps = g.class_table().reps
    return _drive(
        len(normals) * len(reps),
        samples,
        (_with(k, reps) for k in range(len(normals))),
        lambda: (rng.randrange(len(normals)), rng.randrange(g.order)),
        _quotient_centralizers(g, normals, subset_only=True),
        "K#{},x#{}",
    )


def _lemma_noncentral_misses_class(g, rng, samples, nbudget) -> LemmaResult:
    # non-central elements fail to commute into at least one whole class
    noncentral = np.flatnonzero(~g.center().mask())
    return _drive(
        len(noncentral),
        samples,
        [noncentral[:, None]],
        lambda: (int(noncentral[rng.randrange(len(noncentral))]),),
        lambda cases: _misses_a_class(g, cases[:, 0]),
        "x#{}",
    )


def _lemma_commuting_sylow_criterion(g, rng, samples, nbudget) -> LemmaResult:
    cases = (
        (p, q, *sylow_commute_criterion(g, p, q))
        for p, q in itertools.combinations(prime_divisors(g.order), 2)
    )
    return _check_each(
        cases, lambda p, q, by_class, by_subgroup: by_class == by_subgroup, "(p,q)=({},{})"
    )


def _lemma_abelian_sylow_when_inert(g, rng, samples, nbudget) -> LemmaResult:
    def abelian(p: int) -> bool:
        gens = g.sylow_subgroup(p).ensure_gens()
        return g._commute(gens, gens)

    inert = (
        (cls.p,) for cls in _primes_of_kind(g, KIND_UNIFORM_INERT) if cls.exponent is not None
    )
    return _check_each(inert, abelian, "p={}")


def _lemma_single_nonabelian_factor(g, rng, samples, nbudget) -> LemmaResult:
    inert = [cls.p for cls in _primes_of_kind(g, KIND_UNIFORM_INERT)]
    factors = g.composition_factors(nbudget) if inert else []
    hits = (
        (p, sum(1 for order, abelian in factors if not abelian and order % p == 0))
        for p in inert
    )
    return _check_each(hits, lambda p, n: n <= 1, "p={}:{}")


def _lemma_split_sylow_centralizer(g, rng, samples, nbudget) -> LemmaResult:
    # normal Sylow split as a product of two normal subgroups: centralizers
    # of products intersect
    normals = g.normal_subgroups(nbudget)
    cases = []
    for p in prime_divisors(g.order):
        target = p_part(g.order, p)
        syl = [n for n in normals if n.order == target]
        if not syl:
            continue
        pmask = syl[0].mask()
        inside = [
            n for n in normals if target % n.order == 0 and pmask[n.indices].all()
        ]
        for i, a in enumerate(inside):
            for b in inside[i:]:
                if a.order * b.order != target:
                    continue
                if len(np.intersect1d(a.indices, b.indices)) != 1:
                    continue
                cases.append((a, b))
    if not cases:
        return LemmaResult(STATUS_PASS, 0, MODE_EXHAUSTIVE, "no normal Sylow split")

    def draw():
        a, b = cases[rng.randrange(len(cases))]
        return (
            int(a.indices[rng.randrange(a.order)]),
            int(b.indices[rng.randrange(b.order)]),
        )

    return _drive(
        sum(a.order * b.order for a, b in cases),
        samples,
        (
            np.column_stack([np.repeat(a.indices, b.order), np.tile(b.indices, a.order)])
            for a, b in cases
        ),
        draw,
        _centralizers_of_products_split(g),
        "a#{},b#{}",
    )


_LEMMA_CHECKS: dict[str, Callable] = {
    "normal_p_complement": _lemma_normal_p_complement,
    "sylow_center_in_center": _lemma_sylow_center_in_center,
    "class_size_divisibility": _lemma_class_size_divisibility,
    "series_class_divisibility": _lemma_series_class_divisibility,
    "coprime_centralizer_product": _lemma_coprime_centralizer_product,
    "coprime_quotient_centralizer": _lemma_coprime_quotient_centralizer,
    "centralizer_image_in_quotient": _lemma_centralizer_image_in_quotient,
    "noncentral_misses_class": _lemma_noncentral_misses_class,
    "commuting_sylow_criterion": _lemma_commuting_sylow_criterion,
    "abelian_sylow_when_inert": _lemma_abelian_sylow_when_inert,
    "single_nonabelian_factor": _lemma_single_nonabelian_factor,
    "split_sylow_centralizer": _lemma_split_sylow_centralizer,
}

LEMMA_NAMES = tuple(_LEMMA_CHECKS)


def run_lemma_suite(
    g: Group,
    seed: int = 0,
    sample_budget: int = DEFAULT_LEMMA_SAMPLES,
    normal_budget: int = DEFAULT_NODE_BUDGET,
    names: Iterable[str] | None = None,
) -> dict[str, LemmaResult]:
    """Run every lemma check; deterministic for a fixed (group, seed, budget).

    Each check goes exhaustive when its case count fits the sample budget
    and falls back to exactly sample_budget seeded draws otherwise.  A check
    that cannot run within its resource limits reports skipped, never a
    silent pass.  `names` restricts the run to a subset of LEMMA_NAMES; the
    per-check rng seeding is unchanged, so a subset run reproduces exactly
    the results the full suite would give for those checks.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be positive")
    selected = LEMMA_NAMES if names is None else tuple(names)
    unknown = [n for n in selected if n not in _LEMMA_CHECKS]
    if unknown:
        raise ValueError(f"unknown lemma check: {', '.join(unknown)}")
    out: dict[str, LemmaResult] = {}
    for name in selected:
        rng = random.Random(f"{seed}:{name}")
        try:
            out[name] = _LEMMA_CHECKS[name](g, rng, sample_budget, normal_budget)
        except (BudgetExceeded, CapExceeded) as exc:
            out[name] = LemmaResult(STATUS_SKIPPED, 0, MODE_EXHAUSTIVE, str(exc))
    return out


# ----- coprime action splitting -------------------------------------------------


@dataclass
class CoprimeActionWitness:
    """An abelian group with a coprime group of automorphisms acting on it.

    Actors are permutations of the base group's element indices.  The fixed
    subgroup collects the points every actor fixes; the commutator subgroup
    is generated by x^-1 * a(x) over all elements x and actor generators a.
    """

    name: str
    base: Group
    actor_gens: tuple
    actor_order: int
    fixed: Subgroup
    commutator: Subgroup


def coprime_action_witness(
    base: Group, actor_gens: Sequence[Perm], name: str = "witness"
) -> CoprimeActionWitness:
    if not base.is_abelian():
        raise NotAbelian(f"{name}: base group is not abelian")
    n = base.order
    mult = np.column_stack([base._rmul_map(j) for j in range(n)])
    arows = []
    for a in actor_gens:
        if a.degree != n:
            raise InvalidPermutation(
                f"{name}: actor degree {a.degree} != group order {n}"
            )
        arow = np.array(a.images, dtype=np.int64)
        if not np.array_equal(arow[mult], mult[arow][:, arow]):
            raise InvalidPermutation(f"{name}: actor is not an automorphism")
        arows.append(arow)
    actors = group_from_generators(max(n, 1), list(actor_gens), cap=n * n + 1, name=f"{name}|actors")
    if gcd(actors.order, n) != 1:
        raise NotCoprime(
            f"{name}: actor group order {actors.order} shares a prime with {n}"
        )
    fixed_mask = np.ones(n, dtype=bool)
    for arow in arows:
        fixed_mask &= arow == np.arange(n)
    fixed = Subgroup(base, np.flatnonzero(fixed_mask))
    inv = base.inverse_indices()
    seed: set[int] = set()
    for arow in arows:
        seed.update(int(v) for v in mult[inv, arow])
    commutator = base.subgroup_generated(sorted(seed))
    return CoprimeActionWitness(
        name=name,
        base=base,
        actor_gens=tuple(actor_gens),
        actor_order=actors.order,
        fixed=fixed,
        commutator=commutator,
    )


def check_coprime_action_split(w: CoprimeActionWitness) -> bool:
    """The base should split as fixed points times commutator."""
    return is_internal_direct_product(w.base, w.fixed, w.commutator)


def _cyclic_product(moduli: Sequence[int], name: str) -> Group:
    degree = sum(moduli)
    starts = itertools.accumulate(moduli, initial=0)
    gens = [Perm.from_cycles([tuple(range(s, s + m))], degree) for s, m in zip(starts, moduli)]
    return group_from_generators(degree, gens, cap=prod(moduli) + 1, name=name)


def _matrix_witness(name: str, moduli: Sequence[int], matrices: Sequence) -> CoprimeActionWitness:
    """Witness whose actors act linearly on the exponent vectors of the base.

    The base's member with exponent vector v is its ravel_multi_index(v)-th,
    so column j of the unravelled indices is the vector of member j.
    """
    vecs = np.indices(moduli).reshape(len(moduli), -1)
    mods = np.array(moduli)[:, None]
    actor_gens = [
        Perm(np.ravel_multi_index(np.array(mat) @ vecs % mods, moduli).tolist())
        for mat in matrices
    ]
    return coprime_action_witness(_cyclic_product(moduli, name), actor_gens, name)


def _inv(k: int):
    return [[-1 if i == j else 0 for j in range(k)] for i in range(k)]


# (name, moduli of the cyclic factors, actor matrices) of each builtin witness
_WITNESS_SPECS = [
    ("inversion-c3", (3,), [_inv(1)]),
    ("inversion-c5", (5,), [_inv(1)]),
    ("inversion-c7", (7,), [_inv(1)]),
    ("inversion-c9", (9,), [_inv(1)]),
    ("inversion-c11", (11,), [_inv(1)]),
    ("inversion-c15", (15,), [_inv(1)]),
    ("inversion-c21", (21,), [_inv(1)]),
    ("inversion-c3c3", (3, 3), [_inv(2)]),
    ("inversion-c3c9", (3, 9), [_inv(2)]),
    ("inversion-c5c5", (5, 5), [_inv(2)]),
    ("swap-c3c3", (3, 3), [[[0, 1], [1, 0]]]),
    ("swap-c5c5", (5, 5), [[[0, 1], [1, 0]]]),
    ("half-inversion-c3c3", (3, 3), [[[-1, 0], [0, 1]]]),
    ("half-inversion-c5c5", (5, 5), [[[-1, 0], [0, 1]]]),
    ("triple-c7", (7,), [[[2]]]),
    ("triple-c13", (13,), [[[3]]]),
    ("quadruple-c15", (15,), [[[2]]]),
    ("triangle-c2c2", (2, 2), [[[0, 1], [1, 1]]]),
    ("fano-c2c2c2", (2, 2, 2), [[[0, 1, 0], [0, 0, 1], [1, 1, 0]]]),
    ("diag-c7c7", (7, 7), [[[2, 0], [0, 4]]]),
    ("trivial-c6", (6,), []),
    ("trivial-c2c4", (2, 4), []),
]


def builtin_witnesses() -> list[CoprimeActionWitness]:
    """Fixed collection of coprime-action witnesses across action flavors."""
    return [_matrix_witness(name, moduli, mats) for name, moduli, mats in _WITNESS_SPECS]
