"""conjlab benchmark: one workload per process, one thread, JSON result last.

    python3 perfbench/run.py --workload scan-builtin --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload repeats whole rounds, each
calling every timed unit once, while another round as long as the last
one still fits in --seconds (at least one round).  wall_s and cpu_s are
the median over the run's rounds of the round's wall-clock and process
CPU time.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 each
round is one untraced pass followed by one traced pass; the per-layer
metrics come from the traced passes (lower median over rounds) and the tracing
overhead is the difference between the two passes' median times.
Every answer is checked after the timed part; an operation whose answer
fails a check, or whose call raised, counts as failed, and answers that
differ between rounds or between traced and untraced passes make the run
incorrect.  Details go to perfbench/out/, spans of a traced run as JSON
lines beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# set-up is timed this many times in fresh interpreters; the median is reported
SETUP_PROBES = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load(name: str, seed: int):
    """Import the engine and generate the workload's inputs (the set-up)."""
    if not (ROOT / "src" / "conjlab" / "__init__.py").is_file():
        raise ImportError(f"no conjlab sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import conjlab
    import workloads

    if Path(conjlab.__file__).resolve().parent != ROOT / "src" / "conjlab":
        raise ImportError(f"conjlab imported from {conjlab.__file__}, not this checkout")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](seed)


def _setup_seconds(args) -> float:
    """Median wall time of interpreter start, imports and input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _pass(wl, traced: bool) -> tuple[dict, dict]:
    """Call every unit once: raw results (or the exception) and (wall, cpu)."""
    raws, times = {}, {}
    for unit in wl.units:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            raws[unit] = wl.call(unit, traced)
        except Exception as exc:  # recorded and counted as a failed operation
            raws[unit] = exc
        times[unit] = (time.perf_counter() - wall, time.process_time() - cpu)
    return raws, times


def _median_total(passes: list[dict], which: int) -> float:
    """Median over passes of the pass's summed unit times."""
    return statistics.median(sum(t[which] for t in p.values()) for p in passes)


def _check(wl, raws: dict) -> tuple[dict, int, list[str]]:
    """Answers per operation, how many operations failed, and why."""
    try:
        answers = wl.answers(raws)
    except Exception as exc:  # unreadable output fails every operation
        answers = dict.fromkeys(wl.ops, exc)
    failed, problems = 0, []
    for op in wl.ops:
        ans = answers.get(op)
        if isinstance(ans, Exception):
            found = [f"{type(ans).__name__}: {ans}"]
        else:
            try:
                found = wl.check(op, ans)
            except Exception as exc:  # a malformed answer fails its check
                found = [f"check raised {type(exc).__name__}: {exc}"]
        failed += bool(found)
        problems += [f"{op}: {p}" for p in found]
    return answers, failed, problems


def _comparable(answers: dict) -> dict:
    return {k: repr(v) if isinstance(v, Exception) else v for k, v in answers.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        wl = _load(args.workload, args.seed)
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the engine or the benchmark: {exc}\n")
        return 2
    if args.setup_probe:
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = _setup_seconds(args)

    plain, traced, raws_seen, recorders = [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        raws, times = _pass(wl, traced=False)
        plain.append(times)
        raws_seen.append(raws)
        if peak_rss_mb is None:
            # later rounds reuse freed heap unevenly, so only the first
            # round gives a peak that does not depend on the round count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            rec = tracing.SpanRecorder()
            undo = tracing.install(rec)
            try:
                raws, times = _pass(wl, traced=True)
            finally:
                undo()
            traced.append(times)
            raws_seen.append(raws)
            recorders.append(rec)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break  # another round of the same length would overrun --seconds

    attempted = failed = 0
    correct = True
    problems: list[str] = []
    first = None
    for raws in raws_seen:
        answers, n_failed, found = _check(wl, raws)
        attempted += len(wl.ops)
        failed += n_failed
        problems += found
        if first is None:
            first = _comparable(answers)
        elif _comparable(answers) != first:
            correct = False
            problems.append("answers differ between rounds")
    for line in problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        rows = [tracing.layer_metrics(rec, names) for rec in recorders]
        values = {n: statistics.median_low(r[n] for r in rows) for n in rows[0]}
        plain_s, traced_s = _median_total(plain, 0), _median_total(traced, 0)
        values["trace.overhead_s"] = traced_s - plain_s
        values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
        _write_spans(args, recorders)
    else:
        values = {
            "wall_s": _median_total(plain, 0),
            "cpu_s": _median_total(plain, 1),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        untraced_passes=plain,
        traced_passes=traced,
        problems=problems,
    )
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def _write_spans(args, recorders) -> None:
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(recorders):
            for span in rec.spans():
                fh.write(json.dumps(dict(span, round=i)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
