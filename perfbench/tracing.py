"""Spans around matchgames' public functions, recorded from outside the package.

``Tracer.install`` replaces each target function, in every matchgames module
namespace that holds it, with a wrapper that records a span: its name, start,
end, parent span and the request it belongs to.  Calls made inside the
package go through module globals, so nested calls (``cmd_game`` ->
``compromise_set`` -> ``ideal_point``) are caught as child spans.  The
program's source is not touched; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

TARGETS = {
    "formats": ("parse_market", "parse_bimatrix", "render_report", "parse_report"),
    "assignment": ("solve_hungarian",),
    "core": ("all_matchings",),
    "situations": (
        "build_table",
        "ideal_point",
        "compromise_set",
        "least_satisfied",
        "enumerate_equilibria",
        "verify_nash",
    ),
    "bargaining": ("bargain", "nash_solution", "feasible_hull"),
    "commands": ("cmd_assign", "cmd_game", "cmd_bargain", "cmd_pipeline"),
    "cli": ("main",),
}


class Tracer:
    FIELDS = ("parent", "request", "name", "start_ns", "end_ns")

    def __init__(self) -> None:
        # One row of FIELDS per span, flat in an int array: the span id is the
        # row number and the name an index into self.names.  Unlike a list of
        # tuples, the array adds nothing for the garbage collector to scan.
        self.spans = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn, args, kwargs):
        width = len(self.FIELDS)
        sid = len(self.spans) // width
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        self.spans.extend((self._stack[-1] if self._stack else -1, self.request, name_id, 0, 0))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid * width + 3] = start
            self.spans[sid * width + 4] = end

    def rows(self):
        """(span id, parent id or -1, request index, name, start ns, end ns) per span."""
        width = len(self.FIELDS)
        for sid in range(len(self.spans) // width):
            parent, request, name_id, start, end = self.spans[sid * width : (sid + 1) * width]
            yield sid, parent, request, self.names[name_id], start, end

    def _wrap(self, qualname: str, fn):
        count = self.counts
        if qualname == "formats.render_report":
            machine = sys.modules["matchgames.formats"].RenderMode.MACHINE

            @functools.wraps(fn)
            def render(report, mode=machine):
                name = "formats.render_machine" if mode is machine else "formats.render_text"
                out = self._record(name, fn, (report, mode), {})
                count["formats.report_bytes"] += len(out.encode("utf-8"))
                return out

            return render

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._record(qualname, fn, args, kwargs)
            count[qualname] += 1
            if qualname == "formats.parse_market":
                count["formats.cells_parsed"] += 2 * out.n * out.n
            elif qualname == "formats.parse_bimatrix":
                count["formats.cells_parsed"] += 2 * out.game.rows * out.game.cols
            elif qualname == "situations.build_table":
                count["situations.table_rows"] += len(out.rows)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "matchgames" or name.startswith("matchgames.")]
        for module_name, names in TARGETS.items():
            owner = sys.modules[f"matchgames.{module_name}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns (minus child spans)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.rows():
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for sid, _, _, name, start, end in self.rows():
            entry = out[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start_ns", "end_ns"], "spans": list(self.rows())}, fh)


def layer_metrics(tracer: Tracer, ops: int, cycles: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: times in ms per operation, counts per cycle."""
    spans = tracer.summary()

    def ms(*names: str, field: str = "total_ns") -> tuple[float, str]:
        return sum(spans[n][field] for n in names if n in spans) / ops / 1e6, "ms"

    def per_cycle(name: str) -> tuple[float, str]:
        total = tracer.counts.get(name, 0)
        return (total // cycles if total % cycles == 0 else total / cycles), "count"

    bytes_per_cycle, _ = per_cycle("formats.report_bytes")
    return {
        "assignment.solve_hungarian_ms": ms("assignment.solve_hungarian"),
        "assignment.solves": per_cycle("assignment.solve_hungarian"),
        "formats.parse_input_ms": ms("formats.parse_market", "formats.parse_bimatrix"),
        "formats.cells_parsed": per_cycle("formats.cells_parsed"),
        "formats.render_machine_ms": ms("formats.render_machine"),
        "formats.render_text_ms": ms("formats.render_text"),
        "formats.report_bytes": (bytes_per_cycle, "bytes"),
        "formats.parse_report_ms": ms("formats.parse_report"),
        "core.all_matchings_ms": ms("core.all_matchings"),
        "situations.build_table_ms": ms("situations.build_table"),
        "situations.table_rows": per_cycle("situations.table_rows"),
        "situations.ideal_point_ms": ms("situations.ideal_point"),
        "situations.ideal_point_calls": per_cycle("situations.ideal_point"),
        "situations.compromise_set_ms": ms("situations.compromise_set"),
        "situations.least_satisfied_ms": ms("situations.least_satisfied"),
        "situations.least_satisfied_calls": per_cycle("situations.least_satisfied"),
        "situations.enumerate_equilibria_ms": ms("situations.enumerate_equilibria"),
        "situations.verify_nash_calls": per_cycle("situations.verify_nash"),
        "bargaining.bargain_ms": ms("bargaining.bargain"),
        "bargaining.feasible_hull_ms": ms("bargaining.feasible_hull"),
        "commands.self_ms": ms(*(f"commands.{n}" for n in TARGETS["commands"]), field="self_ns"),
        "cli.self_ms": ms("cli.main", field="self_ns"),
    }
