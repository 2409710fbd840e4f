"""End-to-end benchmark of matchgames: parse -> solve -> render, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload game-n5 --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from the seed, runs the workload in a fresh
worker process (which also times the fixed cost of importing the package in
fresh processes, ``setup_s``), checks every distinct output against answers
computed independently of matchgames, runs the checkers' self-test, and
prints one JSON line last: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans around each module's functions) with
``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_TIMEOUT_S = 150
# Request timings are reported at the speed at which worker.reference_loop()
# takes this long (it took 1.5-1.9 ms per run on the machine the bounds were
# set on).
REFERENCE_NS = 1_500_000


def run_worker(workload, work: Path, seconds: float, trace: bool, trace_path: Path) -> dict:
    manifest = work / "manifest.json"
    result = work / "result.pickle"
    manifest.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "requests": [r.manifest() for r in workload.requests],
                "warmup": workload.warmup,
                "seconds": seconds,
                "trace": trace,
                "trace_path": str(trace_path),
            }
        )
    )
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest), str(result)],
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    with open(result, "rb") as fh:
        return pickle.load(fh)


def self_test_key(check) -> tuple:
    return type(check).__name__, getattr(check, "mode", None), getattr(check, "tiebreak", False)


def verify(workload, result: dict, formats) -> tuple[list[str], int, int]:
    """Check each distinct output, then make sure each checker flags corruption.

    Returns (problems, outputs checked, corruptions flagged).
    """
    from checks import CheckFailure, RoundTripCheck

    roundtrip = RoundTripCheck(formats)
    requests = workload.requests
    problems = [f"{requests[i].label}: output changed between cycles" for i in result["mismatched"]]
    problems += [
        f"{requests[i].label}: failed {count}x with {what}"
        for (i, what), count in sorted(result["errors"].items())
        if what != requests[i].known_fault
    ]
    samples: dict[tuple, tuple[object, object]] = {}
    checked = 0
    for request, out in zip(requests, result["first_outputs"]):
        if request.check is None:
            continue
        if out is None:
            problems.append(f"{request.label}: no output to check")
            continue
        checks = [request.check] + ([roundtrip] if request.mode == "machine" else [])
        for check in checks:
            try:
                check.check(out)
            except CheckFailure as exc:
                problems.append(f"{request.label}: {exc}")
                continue
            samples.setdefault(self_test_key(check), (check, out))
        checked += 1
    flagged = 0
    for check, out in samples.values():
        try:
            corruptions = list(check.corruptions(out))
        except CheckFailure as exc:
            problems.append(f"self-test: cannot corrupt a {type(check).__name__} sample: {exc}")
            continue
        for label, bad in corruptions:
            try:
                check.check(bad)
            except CheckFailure:
                flagged += 1
            else:
                problems.append(f"self-test: {type(check).__name__} missed a corrupted {label}")
    return problems, checked, flagged


def quantile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timing_metrics(result: dict) -> tuple[dict, list[float], dict]:
    """The gated timing metrics, the latencies they come from, and the figures as timed.

    ``ops_per_s`` and ``latency_p50_ms`` are at reference speed: each send's
    time is multiplied by REFERENCE_NS over the reference loop's time around
    it (see worker.py), which takes out the host's drift in speed.
    ``setup_s`` is the plain median of the import times.
    """
    run = result["run"]
    scaled = [ns * REFERENCE_NS / ref for ns, ref in zip(run["send_ns"], run["send_reference_ns"])]
    latencies = sorted(ns / 1e6 for ns, ok in zip(scaled, run["send_ok"]) if ok)
    gated = {
        "setup_s": metric(statistics.median(result["setup_times"]), "s"),
        "ops_per_s": metric(len(latencies) / (sum(scaled) / 1e9), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
    }
    timed = [ns / 1e6 for ns, ok in zip(run["send_ns"], run["send_ok"]) if ok]
    as_timed = {
        "ops_per_s": len(timed) / (run["elapsed_ns"] / 1e9),
        "latency_p50_ms": statistics.median(timed),
        "reference_ms": statistics.median(run["send_reference_ns"]) / 1e6,
    }
    return gated, latencies, as_timed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matchgames" / "__init__.py").is_file():
        print(f"perfbench: no matchgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchgames
    from matchgames import cli, formats

    if Path(matchgames.__file__).resolve().parent != SRC / "matchgames":
        print(f"perfbench: imported matchgames from {matchgames.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = workloads.build(args.workload, args.seed, work, cli)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        result = run_worker(workload, work, args.seconds, bool(args.trace), trace_path)
        problems, checked, flagged = verify(workload, result, formats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = result["run"]
    attempted, failed = result["attempted"], result["failed"]
    sends = " (each sent untraced and traced)" if args.trace else ""
    print(
        f"{args.workload} seed {args.seed}: {attempted} requests in {run['cycles']} cycles of "
        f"{len(workload.requests)}{sends}, {failed} failed"
    )
    for line in workload.make_up:
        print(f"  input {line}")
    for (i, what), count in sorted(result["errors"].items()):
        print(f"  failed {count}x {workload.requests[i].label}: {what}")
    print(f"  checked {checked} distinct outputs; self-test flagged {flagged} corrupted outputs")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")

    if args.trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in result["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    else:
        timing, latencies, as_timed = timing_metrics(result)
        metrics = {**timing, "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB")}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        p90, beyond = quantile(latencies, 0.9)
        if beyond >= 10:
            print(f"  latency_p90_ms = {p90:.6g} ms ({len(latencies)} samples, {beyond} beyond; not a gated metric)")
        else:
            print(f"  latency_p90_ms not reported: {beyond} of {len(latencies)} samples lie beyond it")
        print(
            "  as timed, before scaling to reference speed: "
            + ", ".join(f"{name} = {value:.6g}" for name, value in as_timed.items())
        )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
