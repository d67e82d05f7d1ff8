"""The three benchmark workloads.

A workload is built from its seed (input generation, part of set-up).  A
round calls every timed unit once; run.py times each call.  `answers`
turns a round's raw results into one answer per operation, outside the
timed part, and `check` compares one answer with the independent
expectations in checks.py.  For verify-lemmas and class-sizes a unit is
one operation; scan-builtin has a single unit, the scan command, whose
output holds one operation per group.  A traced round does the same work
with the layers split into spans; its answers must equal the untraced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

import checks
import conjlab
from conjlab import cli

# Engine calls go through the module attributes (conjlab.build, cli.main)
# so that the wrappers tracing.install() puts there see them.

# conjlab's default --lemma-samples, pinned so the workload stays fixed
DEFAULT_LEMMA_SAMPLES = 10_000


class ScanBuiltin:
    """`conjlab scan --corpus builtin --no-lemmas --jobs 1`, one op per group.

    The seed is passed as --seed; with the lemma suite off it moves no work.
    """

    name = "scan-builtin"

    def __init__(self, seed: int):
        self.argv = ["scan", "--corpus", "builtin", "--no-lemmas", "--jobs", "1", "--seed", str(seed)]
        self.ops = [spec.name for spec in conjlab.builtin_corpus()]
        self.units = ["scan"]

    def call(self, unit: str, traced: bool) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"scan exited with {code}")
        return buf.getvalue()

    def answers(self, raws: dict) -> dict:
        raw = raws["scan"]
        if isinstance(raw, Exception):
            return dict.fromkeys(self.ops, raw)
        records = [json.loads(line) for line in raw.splitlines()]
        by_spec = {rec["spec"]: rec for rec in records}
        if len(by_spec) != len(records) or [r["spec"] for r in records] != sorted(by_spec):
            raise RuntimeError("scan records are duplicated or not sorted by spec")
        return {spec: by_spec.get(spec) for spec in self.ops}

    def check(self, spec: str, answer) -> list[str]:
        return checks.check_scan_record(spec, answer)


class VerifyLemmas:
    """verify_main_theorem with the lemma suite, one op per (group, budget).

    The order-540 product runs twice: at 300 draws per check most checks
    take the sampled path, at the default budget most are exhaustive, so a
    change that helps one path and costs the other shows.  The two
    HypothesisNotMet groups run at the default budget, where every check
    is exhaustive.

    The lemma sampling seed is fixed: with a seed-chosen one, the sampled
    work alone moved the order-540 ops by up to 25% from run to run.  The
    benchmark seed shuffles the order.

    A traced round verifies without lemmas, makes sure the normal-subgroup
    lattice is computed, then calls run_lemma_suite(names=[name]) once per
    lemma so each check gets its own span; run_lemma_suite promises that
    such subset calls reproduce the full suite exactly.
    """

    name = "verify-lemmas"
    GROUPS = (
        ("direct:frobenius:5,4+heisenberg:3", 300),
        ("direct:frobenius:5,4+heisenberg:3", DEFAULT_LEMMA_SAMPLES),
        ("direct:alternating:5+cyclic:11", DEFAULT_LEMMA_SAMPLES),
        ("symmetric:5", DEFAULT_LEMMA_SAMPLES),
    )

    LEMMA_SEED = 0  # conjlab's default --seed

    def __init__(self, seed: int):
        self.ops = [f"{spec}@{budget}" for spec, budget in self.GROUPS]
        random.Random(seed).shuffle(self.ops)
        self.units = self.ops

    def call(self, op: str, traced: bool) -> dict:
        spec, budget = op.rsplit("@", 1)
        budget = int(budget)
        g = conjlab.build(conjlab.parse_spec(spec))
        if not traced:
            report = conjlab.verify_main_theorem(g, lemma_seed=self.LEMMA_SEED, lemma_samples=budget)
            return report.to_dict()
        report = conjlab.verify_main_theorem(g)
        g.normal_subgroups()
        data = report.to_dict()
        for name in checks.LEMMA_NAMES:
            res = conjlab.run_lemma_suite(g, seed=self.LEMMA_SEED, sample_budget=budget, names=[name])
            data["lemma_results"][name] = res[name].to_dict()
        return data

    def answers(self, raws: dict) -> dict:
        return {
            op: raw if isinstance(raw, Exception) else dict(raw, timings={})
            for op, raw in raws.items()
        }

    def check(self, op: str, answer) -> list[str]:
        spec, budget = op.rsplit("@", 1)
        return checks.check_report(spec, answer, int(budget))


class ClassSizes:
    """What `conjlab analyze` computes, one op per group; no lattice, no lemmas.

    The groups vary degree against order: S_8 (order 40320, degree 8), the
    regular Heisenberg group of order 2197 (degree 2197), S_5 x H_7 (order
    41160, degree 348), the Frobenius group of order 10100 and D_500 (order
    1000, element orders up to 500).  The inputs do not depend on the seed.
    """

    name = "class-sizes"
    GROUPS = (
        "symmetric:8",
        "heisenberg:13",
        "direct:symmetric:5+heisenberg:7",
        "frobenius:101,100",
        "dihedral:500",
    )

    def __init__(self, seed: int):
        # a fixed order: the first round's peak RSS depends on which groups
        # left freed heap behind before the largest table is built
        self.ops = list(self.GROUPS)
        self.units = self.ops

    @staticmethod
    def call(spec: str, traced: bool) -> dict:
        g = conjlab.build(conjlab.parse_spec(spec))
        css = conjlab.class_size_set(g)
        primes = sorted(conjlab.prime_divisors(g.order))
        patterns = {p: conjlab.classify_p_parts(g, p) for p in primes}
        return {
            "order": g.order,
            "multiplicities": [list(mc) for mc in css.multiplicities],
            "components": len(conjlab.weak_components(conjlab.divisibility_digraph(css.sizes - {1}))),
            "patterns": {p: (c.kind, c.exponent, c.parts) for p, c in patterns.items()},
            "max_parts": {p: conjlab.max_class_p_part(g, p) for p in primes},
            "element_orders": np.unique(g.element_orders()).tolist(),
        }

    def answers(self, raws: dict) -> dict:
        return raws

    def check(self, spec: str, answer) -> list[str]:
        return checks.check_class_size_answer(spec, answer)


WORKLOADS = {w.name: w for w in (ScanBuiltin, VerifyLemmas, ClassSizes)}
