"""The workload process: one closed-loop client with one request in flight.

Started fresh by ``run.py`` for every run, so its peak memory is the
workload's own.  Reads a manifest of requests, sends warm-up requests
untimed, then runs whole cycles of the requests until the timed loop has
run for the given seconds, each request through ``matchgames.cli.main``
in-process (or ``formats.parse_report`` for report-parsing requests).

Untraced, the worker also times fresh-process imports of the package
(``setup_s``) in small batches before, during and after the loop, with the
loop's clock stopped, so they sample the machine over the whole run.  It
also times a fixed pure-Python reference loop, outside the program, every
quarter second of the timed loop; each request's time is later scaled by the
reference loop's time around it (see ``run.py``).
Traced, it sends every request twice in a row, once traced and once not,
in alternating order; the median of the per-pair time ratios gives the
tracing overhead.

Usage: python3 perfbench/worker.py MANIFEST.json RESULT.pickle
"""

from __future__ import annotations

import io
import json
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

NOT_SEEN = object()
# Import probes: a batch before the loop, one at each of PROBE_MARKS - 1
# evenly spaced points of the loop's timed seconds, and one after it.
PROBE_MARKS = 16
PROBES_PER_BATCH = 2
# Reference-loop bursts: one every BURST_EVERY_NS of the timed loop, each the
# median of BURST_LOOPS timings of reference_loop().
BURST_EVERY_NS = 250_000_000
BURST_LOOPS = 7
# Operand pairs of the reference loop: small rationals, like the payoffs of
# the workloads, so every product and sum has a small denominator.
_REFERENCE_PAIRS = tuple((Fraction(k % 41 - 20, k % 7 + 1), Fraction(k % 13 + 1, k % 5 + 2)) for k in range(60))

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import matchgames, matchgames.cli
print(time.perf_counter() - start)
"""


def reference_loop() -> Fraction:
    """Fixed interpreter work, about 1.7 ms, that shares no code with matchgames.

    Rational arithmetic and integer gcds, as in much of the program's own
    work.  Every object it makes dies at once, so it triggers no garbage
    collection and its time does not depend on what the program left on the
    heap.
    """
    best = Fraction(0)
    for _ in range(3):
        for a, b in _REFERENCE_PAIRS:
            value = a * b - a / b
            if value > best:
                best = value
    return best


def reference_burst() -> float:
    """Median wall time (ns) of a few back-to-back reference loops."""
    times = []
    for _ in range(BURST_LOOPS):
        start = time.perf_counter_ns()
        reference_loop()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark (VmHWM, which starts afresh at exec)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class ImportProbe:
    """Wall times of ``import matchgames, matchgames.cli``, each in a fresh process."""

    def __init__(self, src: str) -> None:
        self.argv = [sys.executable, "-I", "-c", IMPORT_PROBE.format(src=src)]
        self.times: list[float] = []

    def once(self) -> float:
        done = subprocess.run(self.argv, check=True, capture_output=True, text=True, timeout=60)
        return float(done.stdout)

    def batch(self) -> None:
        self.times.extend(self.once() for _ in range(PROBES_PER_BATCH))


class Client:
    def __init__(self, requests: list[dict], cli, formats) -> None:
        self.requests = requests
        self.cli, self.formats = cli, formats
        self.reports = [Path(r["report"]).read_text() if r["report"] else None for r in requests]
        self.first = [NOT_SEEN] * len(requests)
        self.mismatched: set[int] = set()
        self.errors: dict[tuple[int, str], int] = {}
        self.attempted = self.failed = 0

    def send(self, index: int):
        """One request: (completed as expected, output, latency ns)."""
        request = self.requests[index]
        report = self.reports[index]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter_ns()
            try:
                if report is not None:
                    out, code = self.formats.parse_report(report), 0
                else:
                    code = self.cli.main(request["argv"])
            except Exception as exc:  # a traceback: count it as failed, keep the run going
                elapsed = time.perf_counter_ns() - start
                self._error(index, type(exc).__name__)
                return False, None, elapsed
            elapsed = time.perf_counter_ns() - start
        if code != request["expect_exit"]:
            self._error(index, f"exit {code}")
            return False, None, elapsed
        return True, (out if report is not None else stdout.getvalue()), elapsed

    def _error(self, index: int, what: str) -> None:
        self.errors[index, what] = self.errors.get((index, what), 0) + 1

    def timed_send(self, index: int) -> tuple[bool, int]:
        """``send``, counted, with its output compared against the first one."""
        ok, out, elapsed = self.send(index)
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif self.first[index] is NOT_SEEN:
            self.first[index] = out
        elif out != self.first[index]:
            self.mismatched.add(index)
        return ok, elapsed

    def cycles(self, seconds: float, probe: ImportProbe) -> dict:
        """Whole cycles of every request until the loop has been timed for ``seconds``.

        Reference bursts and import probes run between requests, with the
        loop's clock stopped: a burst whenever a quarter second of loop time
        has passed since the last one, and an import batch at evenly spaced
        marks of the timed seconds.  Every send is returned with its time,
        whether it completed, and the median of the two bursts before it and
        the two after it.
        """
        sends: list[tuple[int, bool, int]] = []  # (ns, completed, index of the burst before it)
        budget = int(seconds * 1e9)
        elapsed = cycles = 0
        marks = [budget * k // PROBE_MARKS for k in range(1, PROBE_MARKS)]
        next_burst = BURST_EVERY_NS
        probe.batch()
        bursts = [reference_burst()]
        start = time.perf_counter_ns()
        while True:
            for index in range(len(self.requests)):
                ok, ns = self.timed_send(index)
                sends.append((ns, ok, len(bursts) - 1))
                now = elapsed + time.perf_counter_ns() - start
                if now >= next_burst or (marks and now >= marks[0]):
                    elapsed = now
                    bursts.append(reference_burst())
                    next_burst = elapsed + BURST_EVERY_NS
                    if marks and elapsed >= marks[0]:
                        while marks and elapsed >= marks[0]:
                            marks.pop(0)
                        probe.batch()
                    start = time.perf_counter_ns()
            cycles += 1
            if elapsed + time.perf_counter_ns() - start >= budget:
                break
        elapsed += time.perf_counter_ns() - start
        bursts.append(reference_burst())
        probe.batch()
        return {
            "cycles": cycles,
            "elapsed_ns": elapsed,
            "send_ns": [ns for ns, _, _ in sends],
            "send_ok": [ok for _, ok, _ in sends],
            "send_reference_ns": [statistics.median(bursts[max(0, b - 1) : b + 3]) for _, _, b in sends],
        }

    def traced_cycles(self, seconds: float, tracer) -> dict:
        """Whole cycles in which each request is sent untraced and traced, in alternating order."""
        ratios: list[float] = []
        traced_ops = cycles = 0
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while True:
            for index in range(len(self.requests)):
                pair = {}
                for traced in (False, True) if (cycles + index) % 2 == 0 else (True, False):
                    if traced:
                        tracer.request = traced_ops
                        traced_ops += 1
                        tracer.install()
                    try:
                        pair[traced] = self.timed_send(index)
                    finally:
                        tracer.uninstall()
                if pair[True][0] and pair[False][0]:
                    ratios.append(pair[True][1] / pair[False][1])
            cycles += 1
            if time.perf_counter_ns() >= deadline:
                break
        return {"cycles": cycles, "traced_ops": traced_ops, "overhead_pct": 100.0 * (statistics.median(ratios) - 1.0)}


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, manifest["src"])
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from matchgames import cli, formats

    client = Client(manifest["requests"], cli, formats)
    for i in range(manifest["warmup"]):
        client.send(i % len(client.requests))
    client.errors.clear()

    result: dict = {}
    if manifest["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        run = client.traced_cycles(manifest["seconds"], tracer)
        result["layers"] = layer_metrics(tracer, run["traced_ops"], run["cycles"])
        result["layers"]["trace.overhead_pct"] = (run["overhead_pct"], "%")
        tracer.write(manifest["trace_path"])
    else:
        probe = ImportProbe(manifest["src"])
        probe.once()  # the first import writes the bytecode caches
        run = client.cycles(manifest["seconds"], probe)
        result["setup_times"] = probe.times
    result["peak_rss_kb"] = peak_rss_kb()
    result["run"] = run
    result["attempted"], result["failed"] = client.attempted, client.failed
    result["first_outputs"] = [None if out is NOT_SEEN else out for out in client.first]
    result["mismatched"] = sorted(client.mismatched)
    result["errors"] = client.errors
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
