"""Correctness checkers for the benchmark's outputs.

Every expected value is computed here from the input files, without calling
matchgames: optimal values through scipy's ``linear_sum_assignment`` on an
integer scaling of our own, situation tables through numpy indexing, maximin
values and Pareto optimality through ``scipy.optimize.linprog``.  The one
exception is the round-trip check, which is a property of matchgames'
own ``parse_report`` / ``render_report`` pair.

Each checker accepts the request's output (machine JSON or text) and raises
``CheckFailure`` on any disagreement.  ``corruptions`` yields damaged copies
of a real output; the self-test requires every one of them to be flagged.
"""

from __future__ import annotations

import copy
import json
import math
import re
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

LP_TOLERANCE = 1e-9
# matchgames enumerates equilibria only up to this market size.
EQUILIBRIUM_CAP = 5
# Keys whose string values are labels or words, never rationals.
WORD_KEYS = {"row_labels", "col_labels", "workers", "enterprises", "side", "objective", "reason"}


class CheckFailure(Exception):
    """An output disagrees with the independently computed answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def num(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckFailure(f"{value!r} is not an encoded rational")
    try:
        return Fraction(value)
    except ValueError as exc:
        raise CheckFailure(f"{value!r} is not an encoded rational") from exc


def fmt(value) -> str:
    """A value as the text renderer prints it."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return ", ".join(fmt(v) for v in value)
    return str(value)


def decode(value, key: str | None = None):
    """Our own decoding of a machine payload: rationals by position, not by look."""
    if isinstance(value, dict):
        return {k: decode(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v, key) for v in value]
    if isinstance(value, str) and key not in WORD_KEYS:
        return num(value)
    return value


def matrix(rows) -> list[list[Fraction]]:
    return [[num(v) for v in row] for row in rows]


def integer_scaling(*grids: list[list[Fraction]]) -> tuple[list[np.ndarray], int]:
    """Scale grids by one common denominator; int64 arrays exact in float64."""
    den = 1
    for grid in grids:
        for row in grid:
            for v in row:
                den = den * v.denominator // math.gcd(den, v.denominator)
    arrays = [np.array([[int(v * den) for v in row] for row in grid], dtype=np.int64) for grid in grids]
    for arr in arrays:
        expect(int(np.abs(arr).max()) * len(arr) < 2**53, "entries too large to check exactly")
    return arrays, den


def text_fields(text: str, command: str) -> dict[str, str]:
    """``key: value`` lines of a text report, keyed by their dotted path."""
    lines = text.splitlines()
    expect(bool(lines) and lines[0] == f"== {command} ==", f"text report does not start with == {command} ==")
    fields: dict[str, str] = {}
    stack: list[tuple[int, str]] = []
    for line in lines[1:]:
        if line.startswith("note: "):
            continue
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        match = re.fullmatch(r"(\w+):(?: (.*))?", body)
        if match is None:
            continue
        while stack and stack[-1][0] >= indent:
            stack.pop()
        path = ".".join([k for _, k in stack] + [match.group(1)])
        if match.group(2) is None:
            stack.append((indent, match.group(1)))
        else:
            fields[path] = match.group(2)
    return fields


def machine_payload(output: str, command: str) -> dict:
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"machine report is not JSON: {exc}") from exc
    expect(doc.get("command") == command, f"report command is {doc.get('command')!r}, expected {command!r}")
    return decode(doc["payload"], "payload")


def edit_text(text: str, prefix: str, replacement: str) -> str:
    """Replace the first line starting with ``prefix`` (after indentation)."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.lstrip(" ").startswith(prefix):
            indent = line[: len(line) - len(line.lstrip(" "))]
            lines[i] = indent + replacement
            return "\n".join(lines)
    raise CheckFailure(f"no line starting with {prefix!r} to corrupt")


# --- assignment -------------------------------------------------------------


class SideMatrix:
    """One side's utility matrix of a market, read and scaled once."""

    def __init__(self, market: dict, side: str):
        self.side = side
        self.grid = matrix(market["A"] if side == "workers" else market["B"])
        if side == "workers":
            self.row_labels, self.col_labels = market["workers"], market["enterprises"]
        else:
            self.row_labels, self.col_labels = market["enterprises"], market["workers"]
        (self.scaled,), self.den = integer_scaling(self.grid)


class Assignment:
    """Expected answer of one side's assignment problem."""

    def __init__(self, side: SideMatrix, objective: str):
        self.side, self.objective = side.side, objective
        self.grid, self.scaled, self.den = side.grid, side.scaled, side.den
        self.row_labels, self.col_labels = side.row_labels, side.col_labels
        self.maximize = objective == "maximize"
        rows, cols = linear_sum_assignment(self.scaled.astype(float), maximize=self.maximize)
        self.optimum = Fraction(int(self.scaled[rows, cols].sum()), self.den)

    def check_payload(self, p: dict) -> None:
        n = len(self.grid)
        expect(p["side"] == self.side and p["objective"] == self.objective, "side/objective echoed wrongly")
        expect(p["row_labels"] == self.row_labels and p["col_labels"] == self.col_labels, "labels differ")
        image = p["matching"]
        expect(sorted(image) == list(range(n)), "matching is not a permutation")
        expect(
            p["assignment_grid"] == [[1 if j == image[i] else 0 for j in range(n)] for i in range(n)],
            "assignment_grid disagrees with the matching",
        )
        total = sum((self.grid[i][j] for i, j in enumerate(image)), Fraction(0))
        expect(p["total"] == total, f"total {p['total']} is not the matching's value {total}")
        expect(total == self.optimum, f"total {total} is not the optimum {self.optimum}")

    def check_text(self, fields: dict[str, str], prefix: str = "") -> None:
        n = len(self.grid)
        image = [int(x) for x in fields[prefix + "matching"].split(", ")]
        expect(sorted(image) == list(range(n)), "text matching is not a permutation")
        total = sum((self.grid[i][j] for i, j in enumerate(image)), Fraction(0))
        expect(total == self.optimum, f"text matching value {total} is not the optimum {self.optimum}")
        for key, value in (
            ("side", self.side),
            ("objective", self.objective),
            ("row_labels", fmt(self.row_labels)),
            ("col_labels", fmt(self.col_labels)),
            ("total", fmt(total)),
        ):
            expect(fields.get(prefix + key) == value, f"text {prefix + key} is {fields.get(prefix + key)!r}")

    def lexmin_matching(self) -> list[int]:
        """Lex-smallest optimal image, by a row-by-row forced-assignment scan."""
        cost = -self.scaled if self.maximize else self.scaled
        n = len(cost)
        target = -self.optimum * self.den if self.maximize else self.optimum * self.den
        free_cols = list(range(n))
        fixed = 0
        image = []
        for i in range(n):
            for j in free_cols:
                rest_cols = [c for c in free_cols if c != j]
                rest = 0
                if rest_cols:
                    sub = cost[np.ix_(range(i + 1, n), rest_cols)]
                    r, c = linear_sum_assignment(sub.astype(float))
                    rest = int(sub[r, c].sum())
                if fixed + int(cost[i, j]) + rest == target:
                    image.append(j)
                    fixed += int(cost[i, j])
                    free_cols.remove(j)
                    break
            else:
                raise CheckFailure(f"no column of row {i} completes an optimal matching")
        return image


class AssignCheck:
    def __init__(self, side: SideMatrix, objective: str, mode: str, tiebreak: bool = False):
        self.side, self.objective, self.mode = side, objective, mode
        self.tiebreak = tiebreak
        self._expected: Assignment | None = None
        self._lexmin: list[int] | None = None

    @property
    def expected(self) -> Assignment:
        if self._expected is None:
            self._expected = Assignment(self.side, self.objective)
        return self._expected

    def _image(self, output: str) -> list[int]:
        if self.mode == "machine":
            return machine_payload(output, "assign")["matching"]
        return [int(x) for x in text_fields(output, "assign")["matching"].split(", ")]

    def check(self, output: str) -> None:
        if self.mode == "machine":
            self.expected.check_payload(machine_payload(output, "assign"))
        else:
            self.expected.check_text(text_fields(output, "assign"))
        if self.tiebreak:
            if self._lexmin is None:
                self._lexmin = self.expected.lexmin_matching()
            expect(self._image(output) == self._lexmin, "optimal matching is not the lex-smallest one")

    def corruptions(self, output: str):
        if self.mode == "text":
            total = text_fields(output, "assign")["total"]
            yield "total", edit_text(output, "total:", f"total: {fmt(num(total) + 1)}")
            worse = self.swapped(self._image(output), same_cost=False)
            yield "matching", edit_text(output, "matching:", "matching: " + fmt(worse))
        else:
            doc = json.loads(output)
            p = doc["payload"]
            bad = copy.deepcopy(doc)
            bad["payload"]["total"] = fmt(num(p["total"]) + 1)
            yield "total", json.dumps(bad)
            bad = copy.deepcopy(doc)
            bad["payload"]["assignment_grid"][0] = [1 - x for x in p["assignment_grid"][0]]
            yield "grid", json.dumps(bad)
        if self.tiebreak:
            other = self.swapped(self._image(output), same_cost=True)
            if self.mode == "machine":
                bad = copy.deepcopy(doc)
                bad["payload"]["matching"] = other
                bad["payload"]["assignment_grid"] = [
                    [1 if j == other[i] else 0 for j in range(len(other))] for i in range(len(other))
                ]
                yield "tie-break", json.dumps(bad)
            else:
                yield "tie-break", edit_text(output, "matching:", "matching: " + fmt(other))

    def swapped(self, image: list[int], same_cost: bool) -> list[int]:
        """The image with two rows' partners exchanged, keeping or changing its value.

        From an optimal image, a swap at equal cost gives another optimal
        matching and a swap at changed cost a worse one.
        """
        s = self.expected.scaled
        for i in range(len(image)):
            for k in range(i + 1, len(image)):
                delta = s[i, image[k]] + s[k, image[i]] - s[i, image[i]] - s[k, image[k]]
                if (delta == 0) == same_cost:
                    other = list(image)
                    other[i], other[k] = image[k], image[i]
                    return other
        raise CheckFailure(f"no swap {'keeps' if same_cost else 'changes'} the matching's value")


# --- matching game ------------------------------------------------------------


class GameCheck:
    """Situation table, ideal point, compromise set, least satisfied, equilibria."""

    def __init__(self, market: dict, mode: str):
        self.market, self.mode = market, mode
        self._expected: dict | None = None

    @property
    def expected(self) -> dict:
        if self._expected is None:
            self._expected = self._solve()
        return self._expected

    def _solve(self) -> dict:
        (a, b), den = integer_scaling(matrix(self.market["A"]), matrix(self.market["B"]))
        n = len(a)
        perms = np.array(list(permutations(range(n))), dtype=np.int64)
        players = np.arange(n)
        profile = np.hstack([a[players, perms], b[perms, players]])
        ideal = np.concatenate([a.max(axis=1), b.max(axis=0)])
        expect(bool((profile.max(axis=0) == ideal).all()), "ideal point is not attained")  # self-consistency
        regret = ideal - profile
        worst = regret.max(axis=1)
        best = int(worst.min())
        members = np.flatnonzero(worst == best)
        least = []
        for row in members:
            player = int(np.argmax(regret[row]))  # first maximum: lowest index wins ties
            least.append((perms[row].tolist(), player, Fraction(int(profile[row, player]), den)))
        if n > EQUILIBRIUM_CAP:
            equilibria = None
        elif n == 1:
            equilibria = len(perms)
        else:
            equilibria = int((profile >= 0).all(axis=1).sum())
        return {
            "n": n,
            "den": den,
            "perms": perms,
            "profile": profile,
            "ideal": [Fraction(int(v), den) for v in ideal],
            "optimal_regret": Fraction(best, den),
            "worst": worst,
            "members": [perms[r].tolist() for r in members],
            "least": least,
            "equilibria": equilibria,
        }

    def check(self, output: str) -> None:
        if self.mode == "machine":
            self.check_payload(machine_payload(output, "game"))
        else:
            self.check_text(output)

    def check_payload(self, p: dict) -> None:
        e = self.expected
        n, den = e["n"], e["den"]
        expect(p["n"] == n, "n differs")
        expect(p["workers"] == self.market["workers"] and p["enterprises"] == self.market["enterprises"], "labels differ")
        situations = p["situations"]
        expect(len(situations) == len(e["perms"]), "situation count differs")
        images = np.array([s["image"] for s in situations], dtype=np.int64)
        expect(bool((images == e["perms"]).all()), "situations are not every permutation in lexicographic order")
        payoffs = np.array([[int(v * den) for v in s["payoffs"]] for s in situations], dtype=np.int64)
        expect(bool((payoffs == e["profile"]).all()), "situation payoffs differ from A[i][p(i)], B[p(k)][k]")
        expect(p["ideal_point"] == e["ideal"], "ideal point is not row maxima of A then column maxima of B")
        c = p["compromise"]
        expect(c["optimal_regret"] == e["optimal_regret"], "optimal regret differs")
        expect(c["members"] == e["members"], "compromise members differ")
        worst = np.array([int(v * den) for v in c["max_regret_by_situation"]], dtype=np.int64)
        expect(bool((worst == e["worst"]).all()), "max regret by situation differs")
        least = [(x["situation"], x["player"], x["payoff"]) for x in p["least_satisfied"]]
        expect(least == e["least"], "least-satisfied players differ")
        q = p["equilibria"]
        expect(q["situation_count"] == len(e["perms"]), "equilibria.situation_count differs")
        if e["equilibria"] is None:
            expect(q["enumerated"] is False, "equilibria enumerated above the cap")
        else:
            expect(q["enumerated"] is True, "equilibria not enumerated")
            expect(q["equilibrium_count"] == e["equilibria"], "equilibrium count differs")
            expect(q["all_situations_equilibria"] == (e["equilibria"] == len(e["perms"])), "all_situations_equilibria differs")

    def check_text(self, output: str) -> None:
        e = self.expected
        f = text_fields(output, "game")
        wanted = {
            "n": str(e["n"]),
            "workers": fmt(self.market["workers"]),
            "enterprises": fmt(self.market["enterprises"]),
            "ideal_point": fmt(e["ideal"]),
            "compromise.optimal_regret": fmt(e["optimal_regret"]),
            "compromise.max_regret_by_situation": fmt([Fraction(int(v), e["den"]) for v in e["worst"]]),
            "equilibria.situation_count": str(len(e["perms"])),
        }
        if e["equilibria"] is not None:
            wanted["equilibria.equilibrium_count"] = str(e["equilibria"])
        for key, value in wanted.items():
            expect(f.get(key) == value, f"text {key} is {f.get(key)!r}")
        rows = re.findall(r"^  - image: \((.*)\); payoffs: \((.*)\)$", output, re.M)
        expect(len(rows) == len(e["perms"]), "text situation count differs")
        den = e["den"]
        for (image, payoffs), perm, profile in zip(rows, e["perms"], e["profile"]):
            expect(image == fmt(perm.tolist()), "text situations out of lexicographic order")
            expect(payoffs == fmt([Fraction(int(v), den) for v in profile]), f"text payoffs of ({image}) differ")
        least = re.findall(r"^  - situation: \((.*)\); player: (\d+); payoff: (.*)$", output, re.M)
        expect(least == [(fmt(s), str(pl), fmt(pay)) for s, pl, pay in e["least"]], "text least-satisfied lines differ")

    def corruptions(self, output: str):
        if self.mode == "text":
            f = text_fields(output, "game")
            yield "ideal", edit_text(output, "ideal_point:", "ideal_point: " + f["ideal_point"].replace(", ", ", 1", 1))
            yield "regret", edit_text(output, "optimal_regret:", f"optimal_regret: {fmt(num(f['compromise.optimal_regret']) + 1)}")
            line = re.search(r"^  - situation: .*; player: (\d+);", output, re.M)
            yield "least", output.replace(f"; player: {line.group(1)};", f"; player: {int(line.group(1)) + 1};", 1)
            return
        doc = json.loads(output)
        p = doc["payload"]

        def damaged(edit):
            bad = copy.deepcopy(doc)
            edit(bad["payload"])
            return json.dumps(bad)

        yield "payoff", damaged(lambda q: q["situations"][-1]["payoffs"].__setitem__(0, fmt(num(p["situations"][-1]["payoffs"][0]) + 1)))
        yield "order", damaged(lambda q: q["situations"].reverse())
        yield "ideal", damaged(lambda q: q["ideal_point"].__setitem__(-1, fmt(num(p["ideal_point"][-1]) + 1)))
        yield "members", damaged(lambda q: q["compromise"]["members"].pop())
        yield "least", damaged(lambda q: q["least_satisfied"][0].__setitem__("player", p["least_satisfied"][0]["player"] + 1))
        if p["equilibria"]["enumerated"]:
            yield "equilibria", damaged(lambda q: q["equilibria"].__setitem__("equilibrium_count", p["equilibria"]["equilibrium_count"] + 1))


# --- bargaining ---------------------------------------------------------------


def lp_maximin(own: list[list[float]]) -> float:
    """Value of max_x min_c sum_r x_r own[r][c] over mixed row strategies x."""
    rows, cols = len(own), len(own[0])
    # Variables: x_1..x_rows, v.  Minimise -v.
    c = [0.0] * rows + [-1.0]
    a_ub = [[-own[r][col] for r in range(rows)] + [1.0] for col in range(cols)]
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=[0.0] * cols,
        A_eq=[[1.0] * rows + [0.0]],
        b_eq=[1.0],
        bounds=[(0, None)] * rows + [(None, None)],
        method="highs",
    )
    expect(result.status == 0, f"maximin LP failed: {result.message}")
    return -result.fun


def lp_pareto_gain(points: list[tuple[Fraction, Fraction]], s: tuple[Fraction, Fraction]) -> float | None:
    """Largest z1 + z2 - s1 - s2 over feasible z >= s; None when no such z exists."""
    k = len(points)
    result = linprog(
        [-float(p[0] + p[1]) for p in points],
        A_ub=[[-float(p[0]) for p in points], [-float(p[1]) for p in points]],
        b_ub=[-float(s[0]), -float(s[1])],
        A_eq=[[1.0] * k],
        b_eq=[1.0],
        bounds=[(0, None)] * k,
        method="highs",
    )
    if result.status == 2:
        return None
    expect(result.status == 0, f"frontier LP failed: {result.message}")
    return -result.fun - float(s[0] + s[1])


class Bargain:
    """Expected facts about one arbitration."""

    def __init__(self, game: dict, override: tuple[str, str] | None):
        self.game = game
        self.override = None if override is None else (num(override[0]), num(override[1]))
        self.grid = [[(num(c[0]), num(c[1])) for c in row] for row in game["payoffs"]]
        self.points = [pt for row in self.grid for pt in row]
        if self.override is None:
            expect(len(self.grid) == 2 and len(self.grid[0]) == 2, "maximin on a non-2x2 game")
            self.own = {
                "player1": [[pt[0] for pt in row] for row in self.grid],
                "player2": [[self.grid[r][c][1] for r in range(2)] for c in range(2)],
            }
            self.lp = {player: lp_maximin([[float(k) for k in row] for row in table]) for player, table in self.own.items()}

    def check_maximin(self, player: str, value: Fraction, strategy: list | None = None) -> None:
        expect(abs(float(value) - self.lp[player]) <= LP_TOLERANCE, f"{player} maximin {value} differs from linprog {self.lp[player]}")
        if strategy is not None:
            table = self.own[player]
            expect(all(w >= 0 for w in strategy) and sum(strategy) == 1, f"{player} strategy is not a distribution")
            guaranteed = min(sum(strategy[r] * table[r][c] for r in range(2)) for c in range(2))
            expect(guaranteed == value, f"{player} strategy guarantees {guaranteed}, not {value}")

    def check_solution(self, d: tuple, s: tuple, product: Fraction) -> None:
        expect(s[0] >= d[0] and s[1] >= d[1], "solution is not individually rational")
        expect(product == (s[0] - d[0]) * (s[1] - d[1]), "nash_product is not the solution's product of gains")
        gain = lp_pareto_gain(self.points, s)
        expect(gain is not None and gain <= LP_TOLERANCE, "solution does not lie on the Pareto frontier")
        for q in self.points:
            if q[0] >= d[0] and q[1] >= d[1]:
                expect((q[0] - d[0]) * (q[1] - d[1]) <= product, f"outcome {q} has a larger Nash product")

    def check_payload(self, p: dict) -> None:
        expect(p["row_labels"] == self.game["row_labels"] and p["col_labels"] == self.game["col_labels"], "labels differ")
        d = tuple(p["disagreement"])
        if self.override is None:
            for player in ("player1", "player2"):
                self.check_maximin(player, p["maximin"][player]["value"], p["maximin"][player]["strategy"])
            expect(d == (p["maximin"]["player1"]["value"], p["maximin"]["player2"]["value"]), "disagreement is not the maximin pair")
        else:
            expect(p["maximin"] is None, "maximin reported under an override")
            expect(d == self.override, "disagreement is not the override")
        self.check_solution(d, tuple(p["solution"]), p["nash_product"])

    def check_text(self, fields: dict[str, str], prefix: str = "") -> None:
        expect(fields.get(prefix + "row_labels") == fmt(self.game["row_labels"]), "text row labels differ")
        d = tuple(num(x) for x in fields[prefix + "disagreement"].split(", "))
        if self.override is None:
            for i, player in enumerate(("player1", "player2")):
                value = num(fields[f"{prefix}maximin.{player}.value"])
                self.check_maximin(player, value)
                expect(value == d[i], "text disagreement is not the maximin pair")
        else:
            expect(d == self.override, "text disagreement is not the override")
        s = tuple(num(x) for x in fields[prefix + "solution"].split(", "))
        self.check_solution(d, s, num(fields[prefix + "nash_product"]))


class BargainCheck:
    def __init__(self, game: dict, override: tuple[str, str] | None, mode: str):
        self.expected = Bargain(game, override)
        self.mode = mode

    def check(self, output: str) -> None:
        if self.mode == "machine":
            self.expected.check_payload(machine_payload(output, "bargain"))
        else:
            self.expected.check_text(text_fields(output, "bargain"))

    def corruptions(self, output: str):
        if self.mode == "text":
            f = text_fields(output, "bargain")
            yield "product", edit_text(output, "nash_product:", f"nash_product: {fmt(num(f['nash_product']) * 2 + 1)}")
            beyond = [num(x) + 1 for x in f["solution"].split(", ")]
            yield "solution", edit_text(output, "solution:", "solution: " + fmt(beyond))
            return
        doc = json.loads(output)
        p = doc["payload"]
        bad = copy.deepcopy(doc)
        bad["payload"]["solution"] = [fmt(num(x) + 1) for x in p["solution"]]
        yield "solution", json.dumps(bad)
        if p["maximin"] is not None:
            bad = copy.deepcopy(doc)
            bad["payload"]["maximin"]["player1"]["value"] = fmt(num(p["maximin"]["player1"]["value"]) + Fraction(1, 1000))
            yield "maximin", json.dumps(bad)


# --- pipeline -----------------------------------------------------------------


class PipelineCheck:
    def __init__(self, market: dict, game: dict, mode: str):
        self.market, self.mode = market, mode
        self.workers = Assignment(SideMatrix(market, "workers"), "maximize")
        self.enterprises = Assignment(SideMatrix(market, "enterprises"), "maximize")
        self.bargain = Bargain(game, None)

    @staticmethod
    def mismatch(x: list[int], y: list[int]) -> list[int]:
        inverse = [0] * len(y)
        for enterprise, worker in enumerate(y):
            inverse[worker] = enterprise
        return [i for i in range(len(x)) if x[i] != inverse[i]]

    def check(self, output: str) -> None:
        if self.mode == "machine":
            p = machine_payload(output, "pipeline")
            self.workers.check_payload(p["workers_assignment"])
            self.enterprises.check_payload(p["enterprises_assignment"])
            self.bargain.check_payload(p["bargaining"])
            bad = self.mismatch(p["workers_assignment"]["matching"], p["enterprises_assignment"]["matching"])
            expect(p["mismatch"] == {"workers": bad, "count": len(bad), "coincide": not bad}, "mismatch differs")
            return
        f = text_fields(output, "pipeline")
        self.workers.check_text(f, "workers_assignment.")
        self.enterprises.check_text(f, "enterprises_assignment.")
        self.bargain.check_text(f, "bargaining.")
        x = [int(v) for v in f["workers_assignment.matching"].split(", ")]
        y = [int(v) for v in f["enterprises_assignment.matching"].split(", ")]
        bad = self.mismatch(x, y)
        expect(f.get("mismatch.count") == str(len(bad)), "text mismatch count differs")
        expect(f.get("mismatch.coincide") == fmt(not bad), "text mismatch coincide differs")

    def corruptions(self, output: str):
        if self.mode == "text":
            f = text_fields(output, "pipeline")
            yield "total", edit_text(output, "total:", f"total: {fmt(num(f['workers_assignment.total']) - 1)}")
            yield "count", edit_text(output, "count:", f"count: {int(f['mismatch.count']) + 1}")
            return
        doc = json.loads(output)
        bad = copy.deepcopy(doc)
        bad["payload"]["mismatch"]["count"] += 1
        yield "mismatch", json.dumps(bad)
        bad = copy.deepcopy(doc)
        bad["payload"]["bargaining"]["solution"] = [fmt(num(x) + 1) for x in doc["payload"]["bargaining"]["solution"]]
        yield "bargaining", json.dumps(bad)


# --- reports ------------------------------------------------------------------


class ParsedReportCheck:
    """A parse_report result against our own decoding of the same bytes."""

    def __init__(self, data: str):
        doc = json.loads(data)
        self.command, self.notes = doc["command"], tuple(doc["notes"])
        self.payload = decode(doc["payload"], "payload")

    def check(self, report) -> None:
        expect(report.command == self.command, "parsed command differs")
        expect(tuple(report.notes) == self.notes, "parsed notes differ")
        expect(report.payload == self.payload, "parsed payload differs from the file")

    def corruptions(self, report):
        payload = copy.deepcopy(report.payload)
        key = sorted(payload)[0]
        payload[key] = "corrupted"
        yield "payload", type(report)(command=report.command, payload=payload, notes=report.notes)


class RoundTripCheck:
    """``render_report(parse_report(out)) == out`` for a machine report."""

    def __init__(self, formats):
        self.formats = formats

    def check(self, output: str) -> None:
        report = self.formats.parse_report(output)
        expect(
            self.formats.render_report(report, self.formats.RenderMode.MACHINE) == output,
            "machine report does not survive parse_report and render_report",
        )
        expect(report.payload == machine_payload(output, report.command), "parse_report decodes the payload differently")

    def corruptions(self, output: str):
        yield "spacing", output.replace('\n  "notes"', '\n "notes"', 1)
        yield "newline", output[:-1]
