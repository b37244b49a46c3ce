"""Exact rational LP solving and a relaxation-first integer-program driver.

The solver is a two-phase primal simplex on the bounded-variable standard
form, pivoting by Bland's rule (lowest favorable index enters; among minimal
ratios the basic variable with the lowest index leaves), so it terminates
without anti-cycling perturbations.  All arithmetic is exact, every returned
solution is a vertex, and optimal solutions are re-verified against the
original constraints before they are handed back.

The tableau holds the bounds, one sparse row per constraint (basic column
left out), the basis, each variable's status (basic, at lower, at upper),
the basic values and the reduced costs; a nonbasic value is the bound its
status names.  There is no column index: each iteration builds the entering
column once, by scanning the rows, and the ratio test, the bound flip or the
basis change all read that one list.

The tableau runs on ``int`` where it can.  A program's bounds, right-hand
sides and coefficients are already in canonical form (an ``int`` when
integral, a ``Fraction`` only when not; see ``votelp.formulate``), so they
enter the tableau as they are.  The costs are scaled by the least common
multiple of their denominators (a positive factor, so every reduced cost
keeps its sign and Bland's rule its path), and every division goes through
``_div``, which stays in ``int`` when it is exact and falls back to
``Fraction`` when it is not.  On a totally unimodular program with integral
data every pivot is ±1 and the tableau builds no ``Fraction``.  The values
and the objective handed back are in the same canonical form, and the
verifier and the objective sum multiply the program's numbers as they are.

``solve_ip`` first solves the relaxation and reports whether that alone
produced an integral vertex; only if it did not does depth-first
branch-and-bound start, branching on the most fractional
integrality-flagged variable with exact-rational incumbent pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .formulate import IPInstance, _exact, extract_solution

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass(frozen=True, slots=True)
class LPSolution:
    """Outcome of one LP solve.

    ``values`` holds one exact number per structural variable when the
    status is ``optimal`` (empty otherwise), an ``int`` when it is integral
    and a ``Fraction`` when it is not, and so does ``objective``; ``pivots``
    counts simplex iterations, bound flips included.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple
    objective: object | None
    pivots: int


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Relaxation-first IP solve: the root relaxation, whether it was already
    integral (in which case no branching happened), and the final solution."""

    lp: LPSolution
    lp_integral: bool
    branch_nodes: int
    final: LPSolution
    extracted: object | None


def _div(a, b):
    """Exact ``a / b``: an ``int`` when the quotient is one, else a ``Fraction``."""
    if b == 1:
        return a
    if b == -1:
        return -a
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class _Tableau:
    """Mutable simplex state over structural + slack + artificial variables.

    A nonbasic variable sits on the bound its ``stat`` names, so its value
    is read from the bounds; only basic values are stored (``bval``).
    Entries are ``int`` or ``Fraction`` (see the module docstring).
    """

    def __init__(self):
        self.lower: list = []
        self.upper: list = []
        self.rows: list = []  # per row: {var index: nonzero coefficient}, basic excluded
        self.basis: list = []
        self.stat: list = []
        self.bval: list = []  # per row: current value of its basic variable
        self.d: list = []  # reduced costs
        self.pivots = 0

    # -- construction ------------------------------------------------------

    def add_var(self, lower, upper) -> int:
        self.lower.append(lower)
        self.upper.append(upper)
        if lower is not None:
            self.stat.append(_AT_LOWER)
        elif upper is not None:
            self.stat.append(_AT_UPPER)
        else:
            raise NotImplementedError("free variables are not supported")
        return len(self.lower) - 1

    def add_row(self, coeffs: dict, basic: int, value) -> None:
        self.rows.append(coeffs)
        self.basis.append(basic)
        self.stat[basic] = _BASIC
        self.bval.append(value)

    # -- pivoting ----------------------------------------------------------

    def nonbasic_value(self, j: int):
        return self.upper[j] if self.stat[j] == _AT_UPPER else self.lower[j]

    def column(self, q: int) -> list:
        """``(row, coefficient)`` for every row holding ``q``, by row."""
        return [(i, row[q]) for i, row in enumerate(self.rows) if q in row]

    def _shift(self, column: list, delta) -> None:
        bval = self.bval
        for i, coef in column:
            bval[i] -= coef * delta

    def change_basis(self, r: int, q: int, delta, leave_to: int, column: list) -> None:
        """``q`` moves by ``delta`` and replaces the basic variable of row
        ``r``, which leaves to ``leave_to``; ``column`` is ``column(q)``."""
        entering_value = self.nonbasic_value(q) + delta
        if delta:
            self._shift(column, delta)
        p = self.basis[r]
        self.stat[p] = leave_to
        piv = self.rows[r].pop(q)
        new_row = {j: _div(v, piv) for j, v in self.rows[r].items()}
        new_row[p] = _div(1, piv)
        self.rows[r] = new_row
        self.basis[r] = q
        self.stat[q] = _BASIC
        self.bval[r] = entering_value
        for i, t in column:
            if i == r:
                continue
            row_i = self.rows[i]
            del row_i[q]
            for j, v in new_row.items():
                cur = row_i.get(j)
                nv = (cur - t * v) if cur is not None else -t * v
                if nv:
                    row_i[j] = nv
                elif cur is not None:
                    del row_i[j]
        d = self.d
        dq = d[q]
        if dq:
            for j, v in new_row.items():
                d[j] -= dq * v
        d[q] = 0
        self.pivots += 1

    def bound_flip(self, q: int, direction: int, span, column: list) -> None:
        self._shift(column, span if direction > 0 else -span)
        self.stat[q] = _AT_UPPER if direction > 0 else _AT_LOWER
        self.pivots += 1

    # -- the main loop -----------------------------------------------------

    def recompute_costs(self, costs: list) -> None:
        d = list(costs)
        for i, row in enumerate(self.rows):
            cb = costs[self.basis[i]]
            if cb:
                for j, v in row.items():
                    d[j] -= cb * v
        for b in self.basis:
            d[b] = 0
        self.d = d

    def optimize(self, max_iter: int) -> str:
        nvars = len(self.lower)
        for _ in range(max_iter):
            enter = -1
            direction = 0
            for j in range(nvars):
                st = self.stat[j]
                if st == _BASIC:
                    continue
                lo, up = self.lower[j], self.upper[j]
                if lo is not None and up is not None and lo == up:
                    continue
                dj = self.d[j]
                if st == _AT_LOWER and dj > 0:
                    enter, direction = j, 1
                    break
                if st == _AT_UPPER and dj < 0:
                    enter, direction = j, -1
                    break
            if enter < 0:
                return "optimal"
            q = enter
            column = self.column(q)
            best_t = None
            best_row = -1
            best_leave = _AT_LOWER
            for i, coef in column:
                rate = -coef if direction > 0 else coef
                b = self.basis[i]
                if rate < 0:
                    bound = self.lower[b]
                    if bound is None:
                        continue
                    t = _div(self.bval[i] - bound, -rate)
                    leave = _AT_LOWER
                else:
                    bound = self.upper[b]
                    if bound is None:
                        continue
                    t = _div(bound - self.bval[i], rate)
                    leave = _AT_UPPER
                if (
                    best_t is None
                    or t < best_t
                    or (t == best_t and b < self.basis[best_row])
                ):
                    best_t, best_row, best_leave = t, i, leave
            lo, up = self.lower[q], self.upper[q]
            span = (up - lo) if (lo is not None and up is not None) else None
            if best_t is None and span is None:
                return "unbounded"
            if span is not None and (best_t is None or span <= best_t):
                self.bound_flip(q, direction, span, column)
                continue
            delta = best_t if direction > 0 else -best_t
            self.change_basis(best_row, q, delta, best_leave, column)
        raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover


def _holds(lhs, sense: str, rhs) -> bool:
    if sense == "<=":
        return lhs <= rhs
    if sense == ">=":
        return lhs >= rhs
    return lhs == rhs


def solve_lp(inst: IPInstance, bound_overrides=None) -> LPSolution:
    """Solve the linear relaxation of an instance exactly.

    Optional ``bound_overrides`` maps variable index to a (lower, upper) pair
    in canonical form; the branch-and-bound driver uses it to tighten bounds
    per node.
    """
    nstruct = inst.num_vars
    overrides = bound_overrides or {}
    bounds = []
    for j, var in enumerate(inst.variables):
        lo, up = overrides.get(j, (var.lower, var.upper))
        if lo is not None and up is not None and lo > up:
            return LPSolution("infeasible", (), None, 0)
        bounds.append((lo, up))

    maximize = inst.objective_sense == "max"
    costs_struct = [0] * nstruct
    for idx, coef in inst.objective:
        costs_struct[idx] += coef if maximize else -coef
    # integral costs; a positive factor keeps every reduced cost's sign, so
    # Bland's rule takes the same path
    scale = math.lcm(*(c.denominator for c in costs_struct))
    costs_struct = [c.numerator * (scale // c.denominator) for c in costs_struct]

    # presolve: constraints with no nonzero coefficients are checked and dropped
    kept = []
    for con in inst.constraints:
        coeffs = {j: v for j, v in con.coeffs if v}
        if not coeffs:
            if not _holds(0, con.sense, con.rhs):
                return LPSolution("infeasible", (), None, 0)
            continue
        kept.append((coeffs, con.sense, con.rhs))

    tab = _Tableau()
    for lo, up in bounds:
        tab.add_var(lo, up)
    slack_bounds = {"<=": (0, None), ">=": (None, 0), "=": (0, 0)}
    slack_of_row = []
    for coeffs, sense, rhs in kept:
        lo, up = slack_bounds[sense]
        slack_of_row.append(tab.add_var(lo, up))

    artificials = []
    for i, (coeffs, sense, rhs) in enumerate(kept):
        value = rhs
        for j, coef in coeffs.items():
            value -= coef * tab.nonbasic_value(j)
        slack = slack_of_row[i]
        lo, up = tab.lower[slack], tab.upper[slack]
        if (lo is None or value >= lo) and (up is None or value <= up):
            tab.add_row(dict(coeffs), slack, value)
        else:
            # start the slack at its violated bound and cover the residual
            # with a basic artificial; the row is stored normalized so the
            # basic variable keeps an implicit +1 coefficient
            rest = up if up is not None and value > up else lo
            tab.stat[slack] = _AT_LOWER if rest == lo else _AT_UPPER
            art = tab.add_var(0, None)
            artificials.append(art)
            if value - rest > 0:
                row = dict(coeffs)
                row[slack] = 1
                tab.add_row(row, art, value - rest)
            else:
                row = {j: -v for j, v in coeffs.items()}
                row[slack] = -1
                tab.add_row(row, art, rest - value)

    max_iter = 20000 + 200 * (len(kept) + len(tab.lower))

    if artificials:
        phase1 = [0] * len(tab.lower)
        for a in artificials:
            phase1[a] = -1
        tab.recompute_costs(phase1)
        status = tab.optimize(max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            raise AssertionError("phase 1 cannot be unbounded")
        # nonbasic artificials sit at their lower bound 0
        art_set = set(artificials)
        residue = sum(v for v, b in zip(tab.bval, tab.basis) if b in art_set)
        if residue > 0:
            return LPSolution("infeasible", (), None, tab.pivots)
        for a in artificials:
            tab.upper[a] = 0
        for r in range(len(tab.rows)):
            if tab.basis[r] in art_set:
                pivot_col = min((j for j in tab.rows[r] if j not in art_set), default=-1)
                if pivot_col >= 0:
                    tab.change_basis(r, pivot_col, 0, _AT_LOWER, tab.column(pivot_col))
                # else: redundant row; the artificial stays pinned at 0

    costs = costs_struct + [0] * (len(tab.lower) - nstruct)
    tab.recompute_costs(costs)
    status = tab.optimize(max_iter)
    if status == "unbounded":
        return LPSolution("unbounded", (), None, tab.pivots)

    # a value sitting on a bound is the program's own bound object, so a 0/1
    # vertex holds no numbers of its own
    values = [None] * nstruct
    for r, b in enumerate(tab.basis):
        if b < nstruct:
            value = tab.bval[r]
            lo, up = bounds[b]
            values[b] = lo if value == lo else up if value == up else _exact(value)
    for j in range(nstruct):
        if values[j] is None:
            lo, up = bounds[j]
            values[j] = up if tab.stat[j] == _AT_UPPER else lo
    objective = 0
    for idx, coef in inst.objective:
        objective += coef * values[idx]
    _verify(inst, bounds, values)
    return LPSolution("optimal", tuple(values), _exact(objective), tab.pivots)


def _verify(inst, bounds, values) -> None:
    """Exact feasibility check of a claimed optimal solution."""
    for j, (lo, up) in enumerate(bounds):
        if lo is not None and values[j] < lo:
            raise AssertionError(f"bound violation on {inst.variables[j].name}")
        if up is not None and values[j] > up:
            raise AssertionError(f"bound violation on {inst.variables[j].name}")
    for con in inst.constraints:
        lhs = 0
        for idx, coef in con.coeffs:
            lhs += coef * values[idx]
        if not _holds(lhs, con.sense, con.rhs):
            raise AssertionError(f"constraint violation on {con.label}")


def is_integral(solution: LPSolution, inst: IPInstance) -> bool:
    """Exact zero-tolerance test of the integrality-flagged variables."""
    if solution.status != "optimal":
        raise ValueError("integrality is defined for optimal solutions only")
    return _branch_variable(inst, solution) is None


def _branch_variable(inst: IPInstance, solution: LPSolution):
    """Most fractional variable the program flags integral (ties: lowest
    index), or None when every flagged variable is integral."""
    best = None
    best_score = None
    for j, var in enumerate(inst.variables):
        value = solution.values[j]
        if not var.integral or value.denominator == 1:
            continue
        frac = value - math.floor(value)
        score = min(frac, 1 - frac)
        if best_score is None or score > best_score:
            best, best_score = j, score
    return best


def solve_ip(inst: IPInstance) -> SolveReport:
    """Relaxation first; branch-and-bound only if the vertex is fractional.

    Branches depth-first on the most fractional variable the program flags
    integral, pruning with exact rational bound comparisons against the
    incumbent.  The flags alone decide what must be integral; the committee
    programs flag only their committee variables, because their continuous
    point variables are integral at any vertex whose committee is.
    """
    root = solve_lp(inst)
    if root.status != "optimal":
        return SolveReport(root, False, 0, root, None)
    first = _branch_variable(inst, root)
    if first is None:
        return SolveReport(root, True, 0, root, extract_solution(inst, root.values))

    maximize = inst.objective_sense == "max"

    def better(a, b) -> bool:
        return a > b if maximize else a < b

    incumbent = None
    nodes = 0
    stack = _split(inst, {}, first, root.values[first])
    while stack:
        overrides = stack.pop()
        node = solve_lp(inst, bound_overrides=overrides)
        nodes += 1
        if node.status != "optimal":
            continue
        if incumbent is not None and not better(node.objective, incumbent.objective):
            continue
        var = _branch_variable(inst, node)
        if var is None:
            incumbent = node
            continue
        stack.extend(_split(inst, overrides, var, node.values[var]))
    if incumbent is None:
        final = LPSolution("infeasible", (), None, 0)
        return SolveReport(root, False, nodes, final, None)
    if maximize:
        assert root.objective >= incumbent.objective
    else:
        assert root.objective <= incumbent.objective
    return SolveReport(
        root, False, nodes, incumbent, extract_solution(inst, incumbent.values)
    )


def _split(inst, overrides, var, value):
    """Child bound sets for branching ``var`` at a fractional ``value``.

    The down branch is returned last so depth-first search explores it first.
    """
    lo, up = overrides.get(var, (inst.variables[var].lower, inst.variables[var].upper))
    floor = math.floor(value)
    down = dict(overrides)
    down[var] = (lo, floor if up is None else min(up, floor))
    upb = dict(overrides)
    upb[var] = (max(lo, floor + 1) if lo is not None else floor + 1, up)
    return [upb, down]
