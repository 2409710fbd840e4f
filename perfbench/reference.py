"""Reference figures quoted in perfbench/README.md; not benchmark metrics.

Usage (from the repository root): python3 perfbench/reference.py

Prints three figures:
- the float speed of scipy's ``linear_sum_assignment`` on an n = 200 market
  side like the benchmark's integer one (what an inexact solver costs);
- the wall time of ``python -m matchgames pipeline`` on the bundled data, as a
  subprocess (interpreter start-up included);
- one run of ``matchgames game`` on an n = 8 tie-heavy market (entries 0..3),
  the table size cap, as a subprocess.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def timed(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=env, cwd=ROOT, timeout=600)
    return time.perf_counter() - start


def main() -> int:
    rng = random.Random("reference/1")

    costs = np.array([[rng.randint(0, 100) for _ in range(200)] for _ in range(200)], dtype=float)
    times = []
    for _ in range(21):
        start = time.perf_counter()
        linear_sum_assignment(costs, maximize=True)
        times.append(time.perf_counter() - start)
    print(f"scipy linear_sum_assignment, n=200 ints 0..100, float64: median {statistics.median(times) * 1e3:.3f} ms of 21")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    data = ROOT / "demos" / "data"
    pipeline = [sys.executable, "-m", "matchgames", "pipeline", "--market", str(data / "job_market.json"),
                "--union-game", str(data / "union_game.json")]
    timed(pipeline, env)
    walls = [timed(pipeline, env) for _ in range(11)]
    print(f"python -m matchgames pipeline on the bundled data: median {statistics.median(walls) * 1e3:.1f} ms wall of 11")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    market = out / f"reference-n8-ties-{os.getpid()}.json"
    market.write_text(json.dumps(inputs.random_market(8, inputs.int_cell(rng, 0, 3))))
    report = out / f"reference-n8-report-{os.getpid()}.json"
    try:
        wall = timed([sys.executable, "-m", "matchgames", "game", "--market", str(market), "--output", "machine",
                      "--out", str(report)], env)
        members = len(json.loads(report.read_text())["payload"]["compromise"]["members"])
    finally:
        market.unlink()
        report.unlink(missing_ok=True)
    print(f"matchgames game, n=8 tie-heavy market ({members} compromise members): {wall:.1f} s wall, one run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
