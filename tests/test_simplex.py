import dataclasses
import itertools
import random
from fractions import Fraction as rat

import pytest

from votelp import (
    Constraint,
    IPInstance,
    OwaVector,
    ScoringVector,
    Variable,
    brute_force_committee,
    cc_ip,
    egalitarian_feasibility_ip,
    egalitarian_levels,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    is_integral,
    owa_ip,
    pav_ip,
    solve_ip,
    solve_lp,
    young_ip,
)
from votelp import simplex
from votelp.formulate import DELETION, ONE, POINT, ZERO, RuleSpec

from helpers import (
    coverage_gap_profile,
    is_canonical,
    profile_cycle3,
    profile_e1,
    profile_e3,
    profile_e5,
    random_approval_profile,
)


def lp(variables, sense, objective, constraints):
    return IPInstance(tuple(variables), sense, tuple(objective), tuple(constraints))


def var(name, lo=0, hi=1, integral=False, role=POINT):
    upper = None if hi is None else rat(hi)
    return Variable(name, role, rat(lo), upper, integral)


class TestBasicLPs:
    def test_single_variable_cap(self):
        inst = lp([var("x", 0, 2)], "max", [(0, ONE)], [Constraint(((0, ONE),), "<=", ONE, "cap")])
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert sol.values == (ONE,)

    def test_fractional_vertex(self):
        inst = lp(
            [var("x"), var("y")],
            "max",
            [(0, ONE), (1, ONE)],
            [Constraint(((0, ONE), (1, ONE)), "<=", rat(3, 2), "cap")],
        )
        sol = solve_lp(inst)
        assert sol.objective == rat(3, 2)
        assert any(v.denominator != 1 for v in sol.values)

    def test_minimization_with_ge(self):
        inst = lp(
            [var("x", 0, 5), var("y", 0, 5)],
            "min",
            [(0, rat(2)), (1, rat(3))],
            [Constraint(((0, ONE), (1, ONE)), ">=", rat(4), "demand")],
        )
        sol = solve_lp(inst)
        assert sol.status == "optimal"
        assert sol.objective == rat(8)  # all on the cheaper variable

    def test_equality_constraint(self):
        inst = lp(
            [var("x", 0, 3), var("y", 0, 3)],
            "max",
            [(0, ONE), (1, -ONE)],
            [Constraint(((0, ONE), (1, ONE)), "=", rat(3), "fix")],
        )
        sol = solve_lp(inst)
        assert sol.values == (rat(3), ZERO)

    def test_infeasible(self):
        inst = lp(
            [var("x", 0, 1)],
            "max",
            [(0, ONE)],
            [Constraint(((0, ONE),), ">=", rat(2), "too-much")],
        )
        assert solve_lp(inst).status == "infeasible"

    def test_unbounded(self):
        inst = lp([var("x", 0, None)], "max", [(0, ONE)], [])
        assert solve_lp(inst).status == "unbounded"

    def test_empty_row_presolve(self):
        ok = lp([var("x")], "max", [(0, ONE)], [Constraint((), "<=", ZERO, "noop")])
        assert solve_lp(ok).status == "optimal"
        bad = lp([var("x")], "max", [(0, ONE)], [Constraint((), ">=", ONE, "impossible")])
        assert solve_lp(bad).status == "infeasible"

    def test_negative_lower_bounds(self):
        inst = lp(
            [var("x", -2, 2), var("y", -2, 2)],
            "min",
            [(0, ONE), (1, ONE)],
            [Constraint(((0, ONE), (1, -ONE)), "<=", ONE, "gap")],
        )
        sol = solve_lp(inst)
        assert sol.objective == rat(-4)

    def test_bound_override_conflict_is_infeasible(self):
        inst = lp([var("x")], "max", [(0, ONE)], [])
        sol = solve_lp(inst, bound_overrides={0: (ONE, ZERO)})
        assert sol.status == "infeasible"


class TestIntegerTableau:
    """The tableau computes in ``int`` where it can; what comes back is the
    program's own bound objects and ``Fraction``s, with exact values."""

    def test_odd_cycle_falls_back_to_fractions(self):
        # every pair sums to at most 1: the vertex needs a pivot on 2
        pairs = ((0, 1), (0, 2), (1, 2))
        inst = lp(
            [var("x1"), var("x2"), var("x3")],
            "max",
            [(0, ONE), (1, ONE), (2, ONE)],
            [Constraint(((i, ONE), (j, ONE)), "<=", ONE, f"p{i}{j}") for i, j in pairs],
        )
        sol = solve_lp(inst)
        assert sol.values == (rat(1, 2), rat(1, 2), rat(1, 2))
        assert all(type(v) is rat for v in sol.values)
        assert sol.objective == rat(3, 2)

    def test_cost_denominators_are_scaled_out(self):
        inst = lp(
            [var("x"), var("y")],
            "max",
            [(0, rat(1, 2)), (1, rat(2, 3))],
            [Constraint(((0, ONE), (1, ONE)), "<=", ONE, "cap")],
        )
        sol = solve_lp(inst)
        assert sol.values == (ZERO, ONE)
        assert sol.objective == rat(2, 3)

    def test_non_unit_coefficients_and_fractional_data(self):
        x, y = var("x", 0, rat(5, 2)), var("y", 0, rat(5, 2))
        inst = lp(
            [x, y],
            "max",
            [(0, rat(2)), (1, ONE)],
            [
                Constraint(((0, rat(2)), (1, rat(3))), "<=", rat(7), "budget"),
                Constraint(((0, ONE), (1, ONE)), ">=", rat(5, 2), "demand"),
            ],
        )
        sol = solve_lp(inst)
        assert sol.values == (rat(5, 2), rat(2, 3))
        assert sol.values[0] is x.upper
        assert type(sol.values[1]) is rat
        assert sol.objective == rat(17, 3)

    def test_zero_one_vertex_reuses_the_bound_objects(self):
        inst = cc_ip(profile_e1(), ScoringVector.borda(3), 1)
        sol = solve_lp(inst)
        assert is_integral(sol, inst)
        for value, variable in zip(sol.values, inst.variables):
            assert value is variable.lower or value is variable.upper


def enumerate_best_vertex(inst):
    """Independent LP oracle: enumerate candidate tight sets, solve each
    square system exactly, keep the best feasible point."""
    nvars = inst.num_vars
    conditions = []
    for con in inst.constraints:
        row = [ZERO] * nvars
        for idx, coef in con.coeffs:
            row[idx] += coef
        conditions.append((row, con.rhs))
    for j, v in enumerate(inst.variables):
        if v.lower is not None:
            row = [ZERO] * nvars
            row[j] = ONE
            conditions.append((row, v.lower))
        if v.upper is not None:
            row = [ZERO] * nvars
            row[j] = ONE
            conditions.append((row, v.upper))

    def solve_square(subset):
        a = [list(conditions[i][0]) for i in subset]
        b = [conditions[i][1] for i in subset]
        n = nvars
        for col in range(n):
            piv = None
            for r in range(col, n):
                if a[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = a[col][col]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    factor = a[r][col] / inv
                    for c in range(col, n):
                        a[r][c] -= factor * a[col][c]
                    b[r] -= factor * b[col]
        return [b[r] / a[r][r] for r in range(n)]

    def feasible(x):
        for j, v in enumerate(inst.variables):
            if v.lower is not None and x[j] < v.lower:
                return False
            if v.upper is not None and x[j] > v.upper:
                return False
        for con in inst.constraints:
            lhs = sum((coef * x[idx] for idx, coef in con.coeffs), ZERO)
            if con.sense == "<=" and lhs > con.rhs:
                return False
            if con.sense == ">=" and lhs < con.rhs:
                return False
            if con.sense == "=" and lhs != con.rhs:
                return False
        return True

    best = None
    for subset in itertools.combinations(range(len(conditions)), nvars):
        x = solve_square(subset)
        if x is None or not feasible(x):
            continue
        value = sum((coef * x[idx] for idx, coef in inst.objective), ZERO)
        if best is None:
            best = value
        elif inst.objective_sense == "max":
            best = max(best, value)
        else:
            best = min(best, value)
    return best


class TestVertexOracle:
    def test_agrees_on_random_lps(self):
        rng = random.Random(461)
        checked = 0
        for _ in range(200):
            nv = rng.randint(2, 5)
            nc = rng.randint(1, 6)
            variables = [var(f"x{j}", 0, rng.randint(1, 3)) for j in range(nv)]
            objective = [(j, rat(rng.randint(-3, 3))) for j in range(nv)]
            constraints = []
            for i in range(nc):
                coeffs = tuple(
                    (j, rat(rng.randint(-3, 3))) for j in range(nv) if rng.random() < 0.8
                )
                sense = rng.choice(("<=", ">=", "="))
                constraints.append(Constraint(coeffs, sense, rat(rng.randint(-4, 6)), f"c{i}"))
            sense = rng.choice(("max", "min"))
            inst = lp(variables, sense, objective, constraints)
            sol = solve_lp(inst)
            expected = enumerate_best_vertex(inst)
            if expected is None:
                assert sol.status == "infeasible"
            else:
                assert sol.status == "optimal"
                assert sol.objective == expected
                checked += 1
        assert checked > 50  # the draw must produce plenty of feasible LPs


class TestIntegralityFlag:
    def test_integral_and_fractional(self):
        inst = cc_ip(profile_e1(), ScoringVector.borda(3), 1)
        report = solve_ip(inst)
        assert is_integral(report.lp, inst)
        frac = lp(
            [var("x", 0, 1, integral=True)],
            "max",
            [(0, ONE)],
            [Constraint(((0, rat(2)),), "<=", ONE, "half")],
        )
        sol = solve_lp(frac)
        assert not is_integral(sol, frac)

    def test_requires_optimal(self):
        inst = lp([var("x")], "max", [(0, ONE)], [Constraint(((0, ONE),), ">=", rat(2), "no")])
        sol = solve_lp(inst)
        with pytest.raises(ValueError):
            is_integral(sol, inst)


class TestSolveIP:
    def test_cc_e1_first_iteration(self):
        report = solve_ip(cc_ip(profile_e1(), ScoringVector.borda(3), 1))
        assert report.lp_integral
        assert report.branch_nodes == 0
        assert report.final == report.lp
        assert report.final.objective == rat(7)
        assert report.extracted.committee == frozenset({"b"})

    def test_young_e3_is_infeasible(self):
        # no nonempty subprofile of E3 has a as strict Condorcet winner
        report = solve_ip(young_ip(profile_e3(), "a"))
        assert report.lp.status == report.final.status == "infeasible"
        assert report.extracted is None

    def test_three_cycle_matches_brute_force(self):
        cyc = profile_cycle3()
        w = ScoringVector.borda(3)
        for k in (1, 2):
            report = solve_ip(cc_ip(cyc, w, k))
            oracle = brute_force_committee(RuleSpec("cc", k, weights=w), cyc)
            assert report.final.objective == oracle.best_value
            assert report.extracted.committee in oracle.argmax
            assert report.branch_nodes >= 0

    def test_gap_instance_branches(self):
        profile = coverage_gap_profile()
        w = ScoringVector((1, 0))
        inst = cc_ip(profile, w, 2)
        report = solve_ip(inst)
        oracle = brute_force_committee(RuleSpec("cc", 2, weights=w), profile)
        assert not report.lp_integral
        assert report.branch_nodes >= 1
        assert report.lp.objective == rat(6)  # fractional relaxation beats any committee
        assert report.final.objective == oracle.best_value == rat(5)
        assert report.extracted.committee in oracle.argmax

    def test_relaxation_bounds_the_ip(self):
        profile = coverage_gap_profile()
        report = solve_ip(cc_ip(profile, ScoringVector((1, 0)), 2))
        assert report.lp.objective >= report.final.objective
        report = solve_ip(young_ip(profile_e5(), "a"))
        assert report.lp.objective <= report.final.objective

    def test_infeasible_propagates(self):
        from helpers import ranked

        report = solve_ip(young_ip(ranked("a b", "3: b>a"), "a"))
        assert report.final.status == "infeasible"
        assert report.extracted is None

    def test_determinism(self):
        inst = cc_ip(profile_cycle3(), ScoringVector.borda(3), 2)
        first = solve_ip(inst)
        second = solve_ip(inst)
        assert first == second
        assert first.lp.pivots == second.lp.pivots

    def test_min_sense_branching_against_exhaustive_enumeration(self):
        """Random deletion instances (not single-crossing) cross-checked
        against the exhaustive Young score; seed 534 hits a fractional root,
        so the minimization side of branch-and-bound runs."""
        from votelp import young_score_bruteforce
        from votelp.model import generate_random_linear

        branched = 0
        for trial in list(range(40)) + [534]:
            rng = random.Random(trial)
            m, n = rng.randint(3, 6), rng.randint(3, 9)
            profile = generate_random_linear(m, n, trial)
            target = profile.alternatives[rng.randrange(m)]
            report = solve_ip(young_ip(profile, target))
            score, _ = young_score_bruteforce(profile, target)
            if score == 0:
                assert report.final.status == "infeasible"
            else:
                assert report.final.objective == n - score
            if report.final.status == "optimal" and not report.lp_integral:
                branched += 1
        assert branched >= 1

    def test_branch_and_bound_against_integer_enumeration(self, monkeypatch):
        """Small bounded programs over integral deletion variables (so no
        cardinality row) against enumeration of every integer point.  The
        draw must reach an infeasible node, a branch below the root's two
        children, and a fractional root with no integer point at all."""
        node_statuses = []
        solve_lp_exact = simplex.solve_lp

        def recording_solve_lp(inst, bound_overrides=None):
            solution = solve_lp_exact(inst, bound_overrides)
            if bound_overrides:
                node_statuses.append(solution.status)
            return solution

        def holds(con, point):
            lhs = sum((c * point[j] for j, c in con.coeffs), ZERO)
            return {"<=": lhs <= con.rhs, ">=": lhs >= con.rhs, "=": lhs == con.rhs}[con.sense]

        monkeypatch.setattr(simplex, "solve_lp", recording_solve_lp)
        rng = random.Random(977)
        deeper = no_incumbent = 0
        for _ in range(200):
            nv = rng.randint(2, 4)
            uppers = [rng.randint(1, 3) for _ in range(nv)]
            variables = [
                var(f"d{j}", 0, up, integral=True, role=DELETION) for j, up in enumerate(uppers)
            ]
            objective = [(j, rat(rng.randint(-3, 3))) for j in range(nv)]
            constraints = []
            for i in range(rng.randint(1, 4)):
                coeffs = tuple(
                    (j, rat(rng.randint(-3, 3))) for j in range(nv) if rng.random() < 0.8
                )
                sense = rng.choice(("<=", ">=", "="))
                constraints.append(Constraint(coeffs, sense, rat(rng.randint(-3, 6)), f"c{i}"))
            inst = lp(variables, rng.choice(("max", "min")), objective, constraints)
            report = solve_ip(inst)
            feasible = [
                sum((c * point[j] for j, c in objective), ZERO)
                for point in itertools.product(*(range(up + 1) for up in uppers))
                if all(holds(con, point) for con in constraints)
            ]
            pick = max if inst.objective_sense == "max" else min
            best = pick(feasible) if feasible else None
            if best is None:
                assert report.final.status == "infeasible"
            else:
                assert report.final.objective == best
                assert is_integral(report.final, inst)
            deeper += report.branch_nodes > 2
            no_incumbent += report.lp.status == "optimal" and report.final.status == "infeasible"
        assert "infeasible" in node_statuses
        assert deeper and no_incumbent


class TestCanonicalAnswers:
    """``solve_ip`` hands back its values and objective in canonical form."""

    @pytest.mark.parametrize(
        "program",
        [
            ("cc", "sp", 6, 10, 3, 17),
            ("owa", "sp", 6, 10, 5, 11),
            ("pav", "ci", 6, 15, 3, 251),
            ("egal", "ci", 5, 6, 2, 13),
            ("young", "sc", 6, 10, 0, 17),
            ("cc", "random", 7, 16, 2, 6),
            ("owa", "random", 5, 16, 2, 143),
            ("pav", "random", 7, 16, 2, 101),
            ("young", "random", 6, 10, 0, 73),
        ],
        ids=lambda p: "-".join(map(str, p)),
    )
    def test_values_and_objective(self, program):
        report = solve_ip(pinned_program(*program))
        for sol in (report.lp, report.final):
            assert all(is_canonical(v) for v in sol.values)
            assert is_canonical(sol.objective)

    def test_branching_shape_stays_canonical(self):
        # an off-domain-bnb shape: cc with Borda on random orders, k = 2
        branched = 0
        for seed in range(1, 9):
            inst = pinned_program("cc", "random", 6, 12, 2, seed)
            report = solve_ip(inst)
            branched += report.branch_nodes > 0
            if not report.lp_integral:
                assert any(type(v) is not int for v in report.lp.values)
            assert all(is_canonical(v) for v in report.final.values)
            assert type(report.final.objective) is int
        assert branched

    def test_fraction_one_data_solves_like_int_data(self):
        ints = pinned_program("cc", "random", 6, 12, 2, 13)
        fractions = IPInstance(
            tuple(
                dataclasses.replace(v, lower=rat(v.lower), upper=rat(v.upper))
                for v in ints.variables
            ),
            ints.objective_sense,
            tuple((j, rat(c)) for j, c in ints.objective),
            tuple(
                dataclasses.replace(
                    con, coeffs=tuple((j, rat(c)) for j, c in con.coeffs), rhs=rat(con.rhs)
                )
                for con in ints.constraints
            ),
        )
        assert fractions == ints
        assert all(type(v.upper) is int for v in fractions.variables)
        assert all(type(c) is int for con in fractions.constraints for _, c in con.coeffs)
        a, b = solve_ip(ints), solve_ip(fractions)
        assert (a.lp.pivots, a.branch_nodes, a.final.pivots) == (
            b.lp.pivots, b.branch_nodes, b.final.pivots
        )
        assert a.lp.values == b.lp.values and a.final.values == b.final.values
        assert [type(v) for v in a.final.values] == [type(v) for v in b.final.values]
        assert a.final.objective == b.final.objective


def pinned_program(rule, domain, m, n, k, seed):
    """A seeded program.  pav, and egal on ``ci``, read approval ballots (on
    ``random`` independent coin flips); the rest read orders."""
    approval = rule == "pav" or domain == "ci"
    if domain == "sp":
        election = generate_single_peaked(m, n, seed)[0]
    elif domain == "sc":
        election = generate_single_crossing(m, n, seed)[0]
    elif domain == "ci":
        election = generate_candidate_interval(m, n, seed)[0]
    elif approval:
        election = random_approval_profile(random.Random(seed), m, n)
    else:
        election = generate_random_linear(m, n, seed)
    if rule == "cc":
        return cc_ip(election, ScoringVector.borda(m), k)
    if rule == "owa":
        return owa_ip(election, ScoringVector.borda(m), OwaVector.harmonic(k), k)
    if rule == "pav":
        return pav_ip(election, OwaVector.harmonic(k), k)
    if rule == "young":
        return young_ip(election, election.alternatives[0])
    if approval:
        spec = RuleSpec("pav", k, owa=OwaVector.harmonic(k))
    else:
        spec = RuleSpec("cc", k, weights=ScoringVector.borda(m))
    levels = egalitarian_levels(election, spec)
    return egalitarian_feasibility_ip(election, spec, levels[len(levels) // 2])


# Bland's rule fixes the pivot path, so these counts change only when the
# path does; a faster tableau must leave every one of them as it is.
PINNED = [
    # rule, domain, m, n, k, seed: root pivots, root integral, branch nodes, objective
    ("cc", "sp", 6, 10, 3, 17, 25, True, 0, "60"),
    ("cc", "sp", 5, 9, 3, 5, 22, True, 0, "44"),
    ("cc", "sc", 6, 9, 3, 27, 31, True, 0, "53"),
    ("cc", "random", 7, 16, 2, 6, 89, False, 2, "95"),
    ("cc", "random", 6, 12, 2, 13, 51, False, 2, "64"),
    ("owa", "sp", 6, 10, 5, 11, 64, True, 0, "6433/60"),
    ("owa", "sp", 5, 9, 3, 5, 37, True, 0, "413/6"),
    ("owa", "random", 6, 8, 3, 9, 117, True, 0, "199/3"),
    ("owa", "random", 5, 16, 2, 143, 78, False, 2, "169/2"),
    ("pav", "ci", 5, 7, 4, 16, 23, True, 0, "125/12"),
    ("pav", "ci", 6, 15, 3, 251, 48, True, 0, "58/3"),
    ("pav", "random", 7, 16, 2, 101, 50, False, 2, "35/2"),
    ("pav", "random", 7, 13, 2, 151, 42, False, 2, "11"),
    ("egal", "sp", 5, 7, 4, 16, 22, True, 0, "0"),
    ("egal", "sp", 4, 9, 1, 26, 4, False, 0, None),
    ("egal", "ci", 5, 6, 2, 13, 13, True, 0, "0"),
    ("egal", "random", 5, 14, 2, 3, 22, False, 4, "0"),
    ("egal", "random", 5, 12, 2, 4, 18, False, 4, "0"),
    ("young", "sc", 6, 10, 0, 17, 12, True, 0, "7"),
    ("young", "sc", 4, 8, 0, 3, 7, False, 0, None),
    ("young", "random", 6, 10, 0, 73, 12, False, 2, "5"),
    ("young", "random", 6, 9, 0, 27, 7, True, 0, "6"),
]


@pytest.mark.parametrize(
    "program, expected",
    [(p[:6], p[6:]) for p in PINNED],
    ids=["-".join(map(str, p[:6])) for p in PINNED],
)
def test_pivot_path_is_pinned(program, expected):
    report = solve_ip(pinned_program(*program))
    objective = report.final.objective
    assert (
        report.lp.pivots,
        report.lp_integral,
        report.branch_nodes,
        None if objective is None else str(objective),
    ) == expected
