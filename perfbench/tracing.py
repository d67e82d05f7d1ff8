"""Span recording around conjlab's public functions, from outside the package.

install() replaces the public functions of the arith, corpus, group,
invariants, theorem and cli modules (and the public methods of Group,
Subgroup and QuotientMap) with wrappers that record one span per call:
name, start, end and the span that was open when the call began.  Every
module-level binding of a wrapped function is replaced, so calls made
through `from .group import ...` names are traced too.  The returned undo
function puts the originals back.

A span's self time is its duration minus the part of it that its child
spans cover.  Element-level accessors (one element, one product, one
lookup) are left unwrapped: they run in microseconds inside inner loops,
so a span each would cost more than the work it measures; their time
counts toward the calling span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("arith", "corpus", "group", "invariants", "theorem", "cli")

UNWRAPPED = {
    "arith": {"is_prime", "p_part", "prime_divisors"},
    "group": {
        "element",
        "elements",
        "index_of",
        "mult_idx",
        "inv_idx",
        "commutator_idx",
        "conj_idx",
        "order_of_idx",
        "class_id_of_idx",
        "class_size_of_idx",
        "Subgroup.mask",
        "Subgroup.contains_idx",
        "Subgroup.elements",
        "QuotientMap.image_idx",
        "QuotientMap.image",
    },
}

# classes of the group layer whose public methods are wrapped; Group's
# methods are named group.<method>, the others group.<Class>.<method>
TRACED_CLASSES = ("Group", "Subgroup", "QuotientMap")


class SpanRecorder:
    """Spans held in memory as parallel lists; indices are span ids."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (used to build span trees by hand)."""
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return sid

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered, reach = 0.0, start
            for c in sorted(children.get(sid, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[c], reach), min(self.ends[c], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for name, st in zip(self.names, self.self_times()):
            calls[name] += 1
            self_s[name] += st
        return {name: (calls[name], self_s[name]) for name in calls}


class _Distinct:
    """Counts distinct (object, argument) pairs without keeping objects alive."""

    def __init__(self):
        self._serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next = itertools.count()  # never reused, unlike id() or len()
        self._seen: set = set()

    def add(self, obj, arg) -> bool:
        if obj not in self._serial:
            self._serial[obj] = next(self._next)
        serial = self._serial[obj]
        key = (serial, arg)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def _digest(indices) -> bytes:
    return hashlib.blake2b(indices.tobytes(), digest_size=16).digest()


def _observers(rec: SpanRecorder) -> dict:
    """Counters kept beside the spans: span name -> fn(args, result).

    Each engine call site passes these arguments positionally."""
    quotients, centralizers, lattices = _Distinct(), _Distinct(), _Distinct()

    def quotient(args, result):
        if quotients.add(args[0], _digest(args[1].indices)):
            rec.counts["group.quotient.distinct"] += 1

    def centralizer(args, result):
        if centralizers.add(args[0], int(args[1])):
            rec.counts["group.centralizer_mask_idx.distinct"] += 1

    def normals(args, result):
        if lattices.add(args[0], None):
            rec.counts["group.normal_subgroups.found"] += len(result)

    def lemmas(args, result):
        rec.counts["theorem.lemma.checked"] += sum(r.checked for r in result.values())

    return {
        "group.quotient": quotient,
        "group.centralizer_mask_idx": centralizer,
        "group.normal_subgroups": normals,
        "theorem.run_lemma_suite": lemmas,
    }


COUNTERS = (
    "group.quotient.distinct",
    "group.centralizer_mask_idx.distinct",
    "group.normal_subgroups.found",
    "theorem.lemma.checked",
)


def layer_metrics(rec: SpanRecorder, names: list[str]) -> dict[str, float]:
    """Values for metric names of the forms <counter>, <span>.calls,
    <span>.self_s and <layer>.self_s (summed self time of a whole layer).
    Names starting with trace. are left to the caller."""
    totals = rec.totals()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, (_, self_s) in totals.items():
        layer_self[span.split(".", 1)[0]] += self_s
    out: dict[str, float] = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name.startswith("trace."):
            continue
        if name in COUNTERS:
            out[name] = rec.counts.get(name, 0)
        elif kind == "calls":
            out[name] = totals.get(base, (0, 0.0))[0]
        elif base in layer_self:
            out[name] = layer_self[base]
        else:
            out[name] = totals.get(base, (0, 0.0))[1]
    out["trace.spans"] = len(rec.names)
    return out


def _lemma_span_name(kwargs) -> str:
    # a single-name subset call is one lemma check; name the span after it
    names = kwargs.get("names")
    if names is not None and len(names) == 1:
        return f"theorem.lemma.{names[0]}"
    return "theorem.run_lemma_suite"


def _wrap(fn, name: str, rec: SpanRecorder, observe=None):
    lemma_suite = name == "theorem.run_lemma_suite"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(_lemma_span_name(kwargs) if lemma_suite else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if observe is not None:
            observe(args, result)
        return result

    return traced


def _targets():
    """(owner, attribute, function, span name) for every function to wrap."""
    import conjlab  # noqa: F401  (loads every layer module)

    out = []
    for layer in LAYERS:
        module = sys.modules[f"conjlab.{layer}"]
        skip = UNWRAPPED.get(layer, set())
        for attr, obj in vars(module).items():
            if attr.startswith("_") or attr in skip:
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((module, attr, obj, f"{layer}.{attr}"))
        if layer != "group":
            continue
        for cls_name in TRACED_CLASSES:
            cls = getattr(module, cls_name)
            prefix = "group." if cls_name == "Group" else f"group.{cls_name}."
            for attr, obj in vars(cls).items():
                label = attr if cls_name == "Group" else f"{cls_name}.{attr}"
                if attr.startswith("_") or label in skip or not inspect.isfunction(obj):
                    continue
                out.append((cls, attr, obj, prefix + attr))
    return out


def install(rec: SpanRecorder):
    """Wrap every target; returns a function that restores the originals."""
    observers = _observers(rec)
    replaced = []
    modules = [m for n, m in sys.modules.items() if n == "conjlab" or n.startswith("conjlab.")]
    for owner, attr, fn, name in _targets():
        wrapper = _wrap(fn, name, rec, observers.get(name))
        if inspect.isclass(owner):
            replaced.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is fn:
                    replaced.append((module, bound, fn))
                    setattr(module, bound, wrapper)

    def undo():
        for owner, attr, fn in reversed(replaced):
            setattr(owner, attr, fn)

    return undo
