"""Command-line front end.

Four subcommands: analyze (class-size invariants of one group), verify
(decomposition verdict plus lemma suite), scan (verify a whole corpus to
JSONL), and gamma (divisibility digraph of an integer set).

Exit codes are a stable contract: 0 for success (including the
HypothesisNotMet and VerifiedDecomposition verdicts), 2 for usage, parse,
IO, cap, or budget errors and engine faults, 3 for a COUNTEREXAMPLE verdict.
A scan records a group's cap, budget or memory error and goes on.  Once it has
written every record it exits 2 if any of them holds an engine fault, else
3 if any holds a COUNTEREXAMPLE verdict.

Scan output is deterministic for a fixed seed regardless of --jobs: records
are sorted by spec name and canonicalized (timings zeroed, timestamp pinned
to the epoch) so repeated scans are byte-identical.  --out is opened before
any group is built, and each record is written and flushed as it finishes,
in spec order, so an interrupted scan leaves a byte prefix of the full
output.  Wall-clock timings are reported by verify_main_theorem, which does
not make that promise.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .arith import (
    divisibility_digraph,
    is_separated,
    max_elements,
    min_elements,
    prime_divisors,
    to_dot,
    weak_components,
)
from .corpus import (
    ScanRecord,
    build,
    builtin_corpus,
    parse_spec,
    record_to_line,
)
from .errors import ConjlabError
from .group import DEFAULT_NODE_BUDGET, Group, default_element_cap
from .invariants import class_size_set, classify_p_parts, max_class_p_part
from .theorem import (
    DEFAULT_LEMMA_SAMPLES,
    VERDICT_COUNTEREXAMPLE,
    verify_main_theorem,
)

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_COUNTEREXAMPLE = 3

_CANON_TIMESTAMP = "1970-01-01T00:00:00Z"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        help="element cap for enumeration (default 100000, env CONJLAB_CAP)",
    )
    p.add_argument(
        "--normal-budget",
        type=_positive_int,
        default=DEFAULT_NODE_BUDGET,
        help="node budget for normal-subgroup search",
    )


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="conjlab",
        description="conjugacy class-size analysis and direct-product verification",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print class-size invariants of one group")
    p.add_argument("group", help="group spec (e.g. frobenius:5,4) or .grp file path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None, help="write output to a file")
    _add_budget_flags(p)

    p = sub.add_parser("verify", help="verify the decomposition on one group")
    p.add_argument("group", help="group spec or .grp file path")
    p.add_argument("--json", action="store_true", help="print the full JSON report")
    p.add_argument("--out", default=None, help="write the JSON report to a file")
    p.add_argument("--all-pairs", action="store_true", help="list every decomposition")
    p.add_argument("--no-lemmas", action="store_true", help="skip the lemma suite")
    p.add_argument("--seed", type=int, default=0, help="lemma sampling seed")
    p.add_argument(
        "--lemma-samples",
        type=_positive_int,
        default=DEFAULT_LEMMA_SAMPLES,
        help="per-lemma case budget before sampling",
    )
    _add_budget_flags(p)

    p = sub.add_parser("scan", help="verify every group of a corpus to JSONL")
    p.add_argument(
        "--corpus",
        default="builtin",
        help="'builtin' or a directory of .grp files",
    )
    p.add_argument("--out", default=None, help="JSONL output path (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--seed", type=int, default=0, help="base seed for lemma sampling")
    p.add_argument("--no-lemmas", action="store_true", help="skip lemma suites")
    p.add_argument(
        "--lemma-samples",
        type=_positive_int,
        default=DEFAULT_LEMMA_SAMPLES,
        help="per-lemma case budget before sampling",
    )
    _add_budget_flags(p)

    p = sub.add_parser("gamma", help="divisibility digraph of an integer set")
    p.add_argument("--set", required=True, help="comma-separated positive integers")
    p.add_argument("--dot", default=None, help="write the digraph as DOT to a path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return top


def _load_group(text: str, cap: int | None) -> Group:
    # a bare .grp path is a file spec even when missing, so the read names it
    if text.endswith(".grp") and text.partition(":")[0] not in ("file", "direct"):
        spec = parse_spec(f"file:{text}")
    else:
        spec = parse_spec(text)
    return build(spec, cap=cap)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


# ----- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    g = _load_group(args.group, args.cap)
    css = class_size_set(g)
    core = css.sizes - {1}
    comps = weak_components(divisibility_digraph(core))
    primes = sorted(prime_divisors(g.order))
    patterns = {p: classify_p_parts(g, p) for p in primes}
    data = {
        "name": g.name,
        "order": g.order,
        "degree": g.degree,
        "n_of_g": {
            "sizes": sorted(css.sizes),
            "multiplicities": [list(mc) for mc in css.multiplicities],
        },
        "mu": sorted(max_elements(core)),
        "nu": sorted(min_elements(core)),
        "separated": is_separated(core),
        "gamma_components": [sorted(c) for c in comps],
        "max_class_p_parts": {str(p): max_class_p_part(g, p) for p in primes},
        "p_part_patterns": {
            str(p): {
                "kind": c.kind,
                "exponent": c.exponent,
                "parts": list(c.parts),
            }
            for p, c in patterns.items()
        },
    }
    if args.json:
        _emit(json.dumps(data, indent=2, sort_keys=True), args.out)
        return EXIT_OK
    lines = [
        f"group      {g.name} (order {g.order}, degree {g.degree})",
        "class sizes "
        + ", ".join(f"{s}x{c}" for s, c in css.multiplicities),
        f"mu         {data['mu']}",
        f"nu         {data['nu']}",
        f"separated  {data['separated']}",
        f"gamma      {len(comps)} component(s): "
        + "; ".join(str(sorted(c)) for c in comps),
    ]
    for p in primes:
        c = patterns[p]
        expo = f", exponent {c.exponent}" if c.exponent is not None else ""
        lines.append(
            f"p={p:<8} max class part {data['max_class_p_parts'][str(p)]}, "
            f"pattern {c.kind}{expo}"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ----- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    g = _load_group(args.group, args.cap)
    report = verify_main_theorem(
        g,
        normal_budget=args.normal_budget,
        all_pairs=args.all_pairs,
        lemma_seed=None if args.no_lemmas else args.seed,
        lemma_samples=args.lemma_samples,
    )
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out is not None:
        _emit(payload, args.out)
    if args.json:
        _emit(payload, None)
    else:
        lines = [f"group   {report.group_name} (order {report.group_order})"]
        lines.append(f"N(G)    {sorted(report.n_of_g.sizes)}")
        for fac in report.factorizations:
            lines.append(f"factorization omega={sorted(fac.omega)} n={fac.n}")
        for dec in report.decompositions:
            lines.append(
                f"decomposition |A|={dec.a_order} N(A)={list(dec.a_class_sizes)} "
                f"|B|={dec.b_order} N(B)={list(dec.b_class_sizes)}"
            )
        for name, res in report.lemma_results.items():
            lines.append(
                f"lemma {name}: {res.status} ({res.checked} cases, {res.mode})"
            )
        lines.append(f"verdict {report.verdict}")
        _emit("\n".join(lines), None)
    return EXIT_COUNTEREXAMPLE if report.verdict == VERDICT_COUNTEREXAMPLE else EXIT_OK


# ----- scan ---------------------------------------------------------------------


def _group_seed(base_seed: int, spec_name: str) -> int:
    return zlib.crc32(f"{base_seed}:{spec_name}".encode()) & 0x7FFFFFFF


def _scan_one(task: tuple) -> str:
    """Worker: verify one spec and return its canonical JSONL line."""
    spec_name, base_seed, cap, normal_budget, lemma_samples, no_lemmas = task
    try:
        g = build(parse_spec(spec_name), cap=cap)
        report = verify_main_theorem(
            g,
            normal_budget=normal_budget,
            lemma_seed=None if no_lemmas else _group_seed(base_seed, spec_name),
            lemma_samples=lemma_samples,
        )
        report.timings = {}
        rec = ScanRecord(spec=spec_name, report=report, timestamp=_CANON_TIMESTAMP)
    except (ConjlabError, MemoryError) as exc:
        rec = ScanRecord(
            spec=spec_name,
            report=None,
            timestamp=_CANON_TIMESTAMP,
            error=f"{type(exc).__name__}: {exc}",
        )
    return record_to_line(rec)


def _corpus_spec_names(corpus: str) -> list[str]:
    if corpus == "builtin":
        return [s.name for s in builtin_corpus()]
    if not os.path.isdir(corpus):
        raise ConjlabError(f"corpus {corpus!r} is neither 'builtin' nor a directory")
    names = sorted(f for f in os.listdir(corpus) if f.endswith(".grp"))
    if not names:
        raise ConjlabError(f"no .grp files in {corpus!r}")
    return [f"file:{os.path.join(corpus, f)}" for f in names]


def cmd_scan(args) -> int:
    if args.jobs < 1:
        raise ConjlabError("--jobs must be at least 1")
    tasks = [
        (
            name,
            args.seed,
            args.cap,
            args.normal_budget,
            args.lemma_samples,
            args.no_lemmas,
        )
        for name in sorted(_corpus_spec_names(args.corpus))
    ]
    counts: dict[str, int] = {}
    faults = 0
    with contextlib.ExitStack() as stack:
        if args.out is None:
            out = sys.stdout
        else:
            out = stack.enter_context(open(args.out, "w", encoding="utf-8"))
        # the pool starts all its workers at once, so it gets no more than tasks
        workers = min(args.jobs, len(tasks))
        if workers == 1:
            lines = map(_scan_one, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            lines = pool.map(_scan_one, tasks)
        try:
            # both maps yield in task order, so the output is always a sorted prefix
            for line in lines:
                out.write(line + "\n")
                out.flush()
                rec = json.loads(line)
                key = rec["report"]["verdict"] if rec["report"] else "error"
                counts[key] = counts.get(key, 0) + 1
                faults += rec["error"].startswith("EngineFault:")
        except BrokenProcessPool as exc:
            written = sum(counts.values())
            raise ConjlabError(
                f"worker pool died after {written} of {len(tasks)} records were written: {exc}"
            ) from None
    if args.out is not None:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        sys.stdout.write(f"scanned {len(tasks)} groups: {summary}\n")
    if faults:
        sys.stderr.write(f"error: engine fault recorded for {faults} group(s)\n")
        return EXIT_ERROR
    if VERDICT_COUNTEREXAMPLE in counts:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# ----- gamma --------------------------------------------------------------------


def cmd_gamma(args) -> int:
    try:
        values = frozenset(int(v) for v in args.set.split(","))
    except ValueError:
        raise ConjlabError(f"--set expects comma-separated integers, got {args.set!r}")
    if any(v < 1 for v in values):
        raise ConjlabError(f"--set members must be positive integers, got {args.set!r}")
    dg = divisibility_digraph(values)
    comps = weak_components(dg)
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(dg))
    if args.json:
        data = {
            "set": sorted(values),
            "edges": [list(e) for e in dg.edge_list],
            "components": [sorted(c) for c in comps],
            "count": len(comps),
        }
        sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"components: {len(comps)}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "cap", None) is None and hasattr(args, "cap"):
        try:
            args.cap = default_element_cap()
        except ConjlabError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_ERROR
    handler = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "scan": cmd_scan,
        "gamma": cmd_gamma,
    }[args.command]
    try:
        return handler(args)
    except (ConjlabError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
