import dataclasses
import itertools
import random
from fractions import Fraction as rat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelp import (
    CARDINALITY_LABEL,
    ApprovalProfile,
    IPInstance,
    OwaVector,
    Profile,
    RuleSpec,
    ScoringVector,
    brute_force_committee,
    build_sc_matrix,
    build_sp_matrix,
    cc_ip,
    committee_submatrix,
    committee_value,
    condorcet_winner,
    constraint_matrix,
    egalitarian_feasibility_ip,
    egalitarian_levels,
    egalitarian_solve,
    extract_solution,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    is_totally_unimodular,
    marginal_weights,
    owa_ip,
    parse_profile,
    pav_ip,
    serialize_ip,
    serialize_profile,
    solve_ip,
    solve_lp,
    young_ip,
    young_score_bruteforce,
    young_score_median,
)
from votelp.model import WeakOrder, default_alternative_names

from helpers import (
    approval,
    flat_ray_program,
    is_canonical,
    profile_e1,
    profile_e2,
    profile_e3,
    profile_e4,
    profile_e5,
    random_approval_profile,
    random_weak_profile,
    ranked,
    recount,
)

BORDA3 = ScoringVector.borda(3)


class TestVectors:
    def test_borda(self):
        assert BORDA3.entries == (rat(3), rat(2), rat(1))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            ScoringVector((1, 2))
        with pytest.raises(ValueError):
            OwaVector((rat(1, 2), 1))

    def test_padding_repeats_last(self):
        assert ScoringVector((3, 1)).padded(4) == (rat(3), rat(1), rat(1), rat(1))

    def test_harmonic(self):
        assert OwaVector.harmonic(3).entries == (rat(1), rat(1, 2), rat(1, 3))

    def test_rule_spec_validation(self):
        with pytest.raises(ValueError):
            RuleSpec("cc", 1)  # missing weights
        with pytest.raises(ValueError):
            RuleSpec("pav", 2, owa=OwaVector((1,)))  # wrong length
        with pytest.raises(ValueError):
            RuleSpec("nope", 1, weights=BORDA3)


class TestMarginalWeights:
    def test_borda_telescopes_to_ones(self):
        assert marginal_weights(BORDA3, 3) == (rat(1), rat(1), rat(1))

    def test_top_only(self):
        assert marginal_weights(ScoringVector((1, 0, 0)), 3) == (rat(1), rat(0), rat(0))

    def test_plateau(self):
        assert marginal_weights(ScoringVector((5, 3, 2, 2)), 4) == (
            rat(2),
            rat(1),
            rat(0),
            rat(2),
        )

    def test_suffix_sums_reconstruct(self):
        w = ScoringVector((rat(7), rat(7, 2), rat(2), rat(2), rat(0)))
        marg = marginal_weights(w, 5)
        for r in range(5):
            assert sum(marg[r:], rat(0)) == w.padded(5)[r]


class TestPavInstance:
    def test_shape_on_e2(self):
        inst = pav_ip(profile_e2(), OwaVector((1, rat(1, 2))), 2)
        assert inst.num_vars == 4 + 6
        assert len(inst.constraints) == 1 + 3
        assert [c.label for c in inst.constraints[:1]] == [CARDINALITY_LABEL]

    def test_optimum_from_enumeration(self):
        alpha = OwaVector((1, rat(1, 2)))
        rule = RuleSpec("pav", 2, owa=alpha)
        e2 = profile_e2()
        # independent enumeration of all 6 committees
        values = {
            frozenset(c): committee_value(rule, e2, c)
            for c in itertools.combinations(e2.alternatives, 2)
        }
        assert max(values.values()) == rat(7, 2)
        assert [sorted(c) for c, v in values.items() if v == rat(7, 2)] == [["b", "c"]]
        report = solve_ip(pav_ip(e2, alpha, 2))
        assert report.final.objective == rat(7, 2)
        assert report.extracted.committee == frozenset({"b", "c"})

    def test_full_committee_forced(self):
        e2 = profile_e2()
        alpha = OwaVector.harmonic(4)
        report = solve_ip(pav_ip(e2, alpha, 4))
        assert report.extracted.committee == frozenset("abcd")
        expected = sum(
            (alpha.prefix_sums()[len(b)] for b in e2.ballots), rat(0)
        )
        assert report.final.objective == expected

    def test_empty_ballot_constraint(self):
        # an empty ballot earns no slot, so it gets no row and no variable
        ap = approval("a b", {"a"})
        ap = type(ap)(ap.alternatives, (frozenset(),))
        inst = pav_ip(ap, OwaVector((1,)), 1)
        assert [con.label for con in inst.constraints] == [CARDINALITY_LABEL]
        assert inst.variables_by_role("point") == ()

    def test_empty_ballot_adds_no_row(self):
        ap = parse_profile("3\na b c\n2: {}\n1: {a,b}\n", format="approval")
        inst = pav_ip(ap, OwaVector.harmonic(2), 2)
        assert all(con.coeffs for con in inst.constraints)
        assert [con.label for con in inst.constraints] == [CARDINALITY_LABEL, "v3"]
        assert "v1" not in serialize_ip(inst)
        assert (0, 0, 0) not in committee_submatrix(inst).entries
        report = solve_ip(inst)
        assert (report.lp.pivots, report.lp_integral, str(report.final.objective)) == (
            5, True, "3/2"
        )
        assert report.extracted.committee == frozenset("ab")


class TestCcInstance:
    def test_e1_optimum_from_singleton_enumeration(self):
        rule = RuleSpec("cc", 1, weights=BORDA3)
        e1 = profile_e1()
        singles = {c: committee_value(rule, e1, {c}) for c in "abc"}
        assert singles == {"a": rat(6), "b": rat(7), "c": rat(5)}
        report = solve_ip(cc_ip(e1, BORDA3, 1))
        assert report.final.objective == rat(7)
        assert report.extracted.committee == frozenset({"b"})

    def test_k_equals_m(self):
        e1 = profile_e1()
        report = solve_ip(cc_ip(e1, BORDA3, 3))
        assert report.final.objective == rat(3 * 3)

    def test_top_only_weights_count_covered_peaks(self):
        e1 = profile_e1()
        report = solve_ip(cc_ip(e1, ScoringVector((1, 0, 0)), 1))
        # peaks are a, b, c: one committee member covers exactly one peak
        assert report.final.objective == rat(1)


class TestOwaInstance:
    def test_e1_pair_optimum(self):
        rule = RuleSpec("owa", 2, weights=BORDA3, owa=OwaVector((1, 1)))
        e1 = profile_e1()
        values = {
            frozenset(c): committee_value(rule, e1, c)
            for c in itertools.combinations("abc", 2)
        }
        assert values == {
            frozenset("ab"): rat(13),
            frozenset("ac"): rat(11),
            frozenset("bc"): rat(12),
        }
        report = solve_ip(owa_ip(e1, BORDA3, OwaVector((1, 1)), 2))
        assert report.final.objective == rat(13)
        assert report.extracted.committee == frozenset("ab")

    def test_top_slot_degenerates_to_cc(self):
        e1 = profile_e1()
        owa_report = solve_ip(owa_ip(e1, BORDA3, OwaVector((1, 0)), 2))
        cc_report = solve_ip(cc_ip(e1, BORDA3, 2))
        assert owa_report.final.objective == cc_report.final.objective

    def test_dichotomous_degenerates_to_pav(self):
        e2 = profile_e2()
        alpha = OwaVector((1, rat(1, 2)))
        owa_report = solve_ip(
            owa_ip(e2.to_profile(), ScoringVector((1, 0)), alpha, 2)
        )
        pav_report = solve_ip(pav_ip(e2, alpha, 2))
        assert owa_report.final.objective == pav_report.final.objective

    def test_rejects_increasing_owa(self):
        with pytest.raises(ValueError):
            owa_ip(profile_e1(), BORDA3, OwaVector((0, 1)), 2)


class TestYoungInstance:
    def test_e4_all_rows_redundant(self):
        inst = young_ip(profile_e4(), "a")
        report = solve_ip(inst)
        assert report.final.objective == 0
        assert report.extracted.deleted_voters == frozenset()

    def test_e5_deletes_four(self):
        report = solve_ip(young_ip(profile_e5(), "a"))
        assert report.final.objective == rat(4)

    def test_counts_expand_to_lowest_voter_indices(self):
        # b-over-a voters 0, 3, 4, 5 share one variable; three must go
        profile = ranked("a b", "b>a", "a>b", "a>b", "b>a", "b>a", "b>a")
        inst = young_ip(profile, "a")
        assert [v.name for v in inst.variables] == ["d_v1", "d_v2"]
        report = solve_ip(inst)
        assert report.final.values == (3, 0)
        assert report.extracted.deleted_voters == frozenset({0, 3, 4})

    def test_e3_is_infeasible(self):
        report = solve_ip(young_ip(profile_e3(), "a"))
        assert report.final.status == "infeasible"
        assert young_score_bruteforce(profile_e3(), "a") == (0, frozenset())

    def test_signed_rows_are_not_tu(self):
        # two voters are always single-crossing, yet the rows b1>a and b2>a
        # hold [[-1, 1], [-1, -1]]: integral roots are measured, not proved
        profile = ranked("a b1 b2", "a>b1>b2", "b1>a>b2")
        inst = young_ip(profile, "a")
        result = is_totally_unimodular(constraint_matrix(inst))
        assert result.kind == "not_tu" and abs(result.witness_det) == 2
        score, _ = young_score_bruteforce(profile, "a")
        assert solve_ip(inst).final.objective == profile.n - score == 1

    def test_matches_median_oracle_past_brute_force(self):
        for seed in range(40):
            rng = random.Random(seed)
            m, n = rng.randint(3, 6), rng.randint(30, 120)
            profile, ordering = generate_single_crossing(m, n, 700 + seed)
            for a in profile.alternatives:
                report = solve_ip(young_ip(profile, a))
                score = 0
                if report.final.status == "optimal":
                    score = profile.n - report.final.objective
                assert score == young_score_median(profile, ordering, a), (seed, a)

    def test_one_variable_per_distinct_order_at_scale(self):
        profile, ordering = generate_single_crossing(6, 2000, 1)
        deleted_any = False
        for a in profile.alternatives:
            inst = young_ip(profile, a)
            assert inst.num_vars == len(profile.groups) < profile.n
            report = solve_ip(inst)
            if report.final.status != "optimal":
                assert not any(order.rank(a) == 1 for order, _ in profile.groups)
                assert young_score_median(profile, ordering, a) == 0
                continue
            assert profile.n - report.final.objective == young_score_median(profile, ordering, a)
            deleted = report.extracted.deleted_voters
            assert len(deleted) == report.final.objective
            deleted_any |= bool(deleted)
            kept = tuple(v for i, v in enumerate(profile.voters) if i not in deleted)
            assert condorcet_winner(Profile(profile.alternatives, kept)) == a
        assert deleted_any

    def test_infeasible_when_no_supporters_can_be_deleted(self):
        profile = ranked("a b", "3: b>a")
        report = solve_ip(young_ip(profile, "a"))
        assert report.final.status == "infeasible"


class TestEgalitarian:
    def test_cc_feasibility_levels(self):
        e1 = profile_e1()
        rule = RuleSpec("cc", 1, weights=BORDA3)
        feasible = solve_ip(egalitarian_feasibility_ip(e1, rule, 2))
        assert feasible.final.status == "optimal"
        assert feasible.extracted.committee == frozenset({"b"})
        infeasible = solve_ip(egalitarian_feasibility_ip(e1, rule, 3))
        assert infeasible.final.status == "infeasible"

    def test_level_zero_vacuous(self):
        e1 = profile_e1()
        rule = RuleSpec("cc", 1, weights=BORDA3)
        inst = egalitarian_feasibility_ip(e1, rule, 0)
        assert all(c.rhs <= 1 for c in inst.constraints)
        assert solve_ip(inst).final.status == "optimal"

    def test_cc_search_e1(self):
        result = egalitarian_solve(profile_e1(), RuleSpec("cc", 1, weights=BORDA3))
        assert result.best_level == rat(2)
        assert result.committee == frozenset({"b"})

    def test_pav_search_e2(self):
        alpha = OwaVector((1, rat(1, 2)))
        rule = RuleSpec("pav", 2, owa=alpha)
        result = egalitarian_solve(profile_e2(), rule)
        assert result.best_level == rat(1)
        # witness validity: every voter has at least one approved member
        for ballot in profile_e2().ballots:
            assert ballot & result.committee

    def test_k_equals_m_reaches_top_weight(self):
        e1 = profile_e1()
        result = egalitarian_solve(e1, RuleSpec("cc", 3, weights=BORDA3))
        assert result.best_level == rat(3)

    def test_level_above_maximum_is_infeasible(self):
        alpha = OwaVector((1, rat(1, 2)))
        rule = RuleSpec("pav", 2, owa=alpha)
        inst = egalitarian_feasibility_ip(profile_e2(), rule, rat(7, 2))
        assert solve_ip(inst).final.status == "infeasible"


class TestExtraction:
    def test_pav_optimum_extraction(self):
        inst = pav_ip(profile_e2(), OwaVector((1, rat(1, 2))), 2)
        report = solve_ip(inst)
        extracted = extract_solution(inst, report.final.values)
        assert extracted.committee == frozenset({"b", "c"})
        assert report.final.objective == rat(7, 2)

    def test_fractional_committee_rejected(self):
        inst = cc_ip(profile_e1(), BORDA3, 1)
        values = list(solve_ip(inst).final.values)
        values[0] = rat(1, 2)
        with pytest.raises(ValueError):
            extract_solution(inst, values)


def _fixed_committee_value(inst, committee):
    """The program's optimum with its committee variables fixed to ``committee``,
    read through ``extract_solution`` (so the vertex must be integral)."""
    fixed = {}
    for idx in inst.variables_by_role("committee"):
        bit = rat(1 if inst.variables[idx].name[len("y_"):] in committee else 0)
        fixed[idx] = (bit, bit)
    solution = solve_lp(inst, bound_overrides=fixed)
    assert extract_solution(inst, solution.values).committee == frozenset(committee)
    return solution.objective


class TestObjectiveLinkage:
    """The program's optimum with ANY committee fixed equals the rule value of
    that committee, not only at the unconstrained optimum."""

    def test_cc_and_owa_on_random_profiles(self):
        rng = random.Random(1009)
        for _ in range(15):
            profile = random_weak_profile(rng, rng.randint(2, 5), rng.randint(1, 6))
            k = rng.randint(1, profile.m)
            w = ScoringVector.borda(profile.m)
            alpha = OwaVector.harmonic(k)
            cc_inst = cc_ip(profile, w, k)
            owa_inst = owa_ip(profile, w, alpha, k)
            cc_rule = RuleSpec("cc", k, weights=w)
            owa_rule = RuleSpec("owa", k, weights=w, owa=alpha)
            for committee in itertools.combinations(profile.alternatives, k):
                assert _fixed_committee_value(cc_inst, committee) == committee_value(
                    cc_rule, profile, committee
                )
                assert _fixed_committee_value(owa_inst, committee) == committee_value(
                    owa_rule, profile, committee
                )

    def test_pav_on_random_profiles(self):
        rng = random.Random(2027)
        for _ in range(15):
            ap = random_approval_profile(rng, rng.randint(2, 5), rng.randint(1, 6), allow_empty=True)
            k = rng.randint(1, ap.m)
            alpha = OwaVector.harmonic(k)
            inst = pav_ip(ap, alpha, k)
            rule = RuleSpec("pav", k, owa=alpha)
            for committee in itertools.combinations(ap.alternatives, k):
                assert _fixed_committee_value(inst, committee) == committee_value(
                    rule, ap, committee
                )


def _slot_counts(inst):
    """(committee entries, +1 point entries) of each non-cardinality row,
    whose committee entries must all be -1; every point variable must be
    continuous."""
    assert not any(v.integral for v in inst.variables if v.role == "point")
    counts = []
    for con in inst.constraints[1:]:
        roles = [(inst.variables[idx].role, coef) for idx, coef in con.coeffs]
        assert all(coef == -1 for role, coef in roles if role == "committee")
        counts.append((
            sum(1 for role, _ in roles if role == "committee"),
            sum(1 for role, coef in roles if role == "point" and coef == 1),
        ))
    return counts


def _covering_rows(inst):
    """(sense, rhs, alternatives) of each non-cardinality row with +1 entries."""
    rows = []
    for con in inst.constraints[1:]:
        assert all(coef == 1 for _, coef in con.coeffs)
        names = frozenset(inst.variables[idx].name[len("y_") :] for idx, _ in con.coeffs)
        rows.append((con.sense, con.rhs, names))
    return rows


class TestConstraintStructure:
    def test_cc_rows_reproduce_segment_matrix(self):
        profile, _ = generate_single_peaked(5, 4, 99)
        inst = cc_ip(profile, ScoringVector.borda(5), 2)
        # the cardinality row, then the distinct segment rows in first-seen order
        expected = ((1,) * profile.m,) + tuple(dict.fromkeys(build_sp_matrix(profile).entries))
        assert committee_submatrix(inst).entries == expected
        assert all(slots == 1 for _, slots in _slot_counts(inst))
        for k in (2, 3):
            inst = owa_ip(profile, ScoringVector.borda(5), OwaVector.harmonic(k), k)
            assert committee_submatrix(inst).entries == expected
            assert all(slots == min(k, size) for size, slots in _slot_counts(inst))
        ap, _ = generate_candidate_interval(5, 6, 99)
        # the cardinality row, then the distinct ballots over a b c d e:
        # {a,b,c,e} (two voters), {a,b,c}, {e}, {b,c}, {a,b,c,d,e}
        inst = pav_ip(ap, OwaVector.harmonic(2), 2)
        rows = ["".join(map(str, row)) for row in committee_submatrix(inst).entries]
        assert rows == ["11111", "11101", "11100", "00001", "01100", "11111"]
        assert _slot_counts(inst) == [(4, 2), (3, 2), (1, 1), (2, 2), (5, 2)]

    def test_egalitarian_rows_are_segments_and_ballots(self):
        rng = random.Random(4242)
        profile = random_weak_profile(rng, 5, 6)
        rule = RuleSpec("cc", 2, weights=ScoringVector((4, 2, 2, 1, 0)))
        for level in egalitarian_levels(profile, rule):
            threshold = sum(1 for w in rule.weights.padded(5) if w >= level)
            expected = [
                (">=", 1, profile.voters[i].top_segment(min(threshold, order.num_classes)))
                for i, order in enumerate(profile.voters)
            ]
            inst = egalitarian_feasibility_ip(profile, rule, level)
            assert _covering_rows(inst) == expected
        ap = random_approval_profile(rng, 5, 6, allow_empty=True)
        alpha = OwaVector.harmonic(3)
        rule = RuleSpec("pav", 3, owa=alpha)
        for level in egalitarian_levels(ap, rule):
            needed = alpha.prefix_sums().index(level)
            inst = egalitarian_feasibility_ip(ap, rule, level)
            assert _covering_rows(inst) == [(">=", needed, ballot) for ballot in ap.ballots]

    def test_coefficients_sorted_by_variable(self):
        rng = random.Random(2024)
        for trial in range(40):
            m, n = rng.randint(2, 5), rng.randint(1, 5)
            k = rng.randint(1, m)
            w, alpha = ScoringVector.borda(m), OwaVector.harmonic(k)
            ballots = random_approval_profile(rng, m, n, allow_empty=True)
            pav = RuleSpec("pav", k, owa=alpha)
            programs = [pav_ip(ballots, alpha, k)]
            programs += [
                egalitarian_feasibility_ip(ballots, pav, level)
                for level in egalitarian_levels(ballots, pav) + (alpha.prefix_sums()[-1] + 1,)
            ]
            for profile in (random_weak_profile(rng, m, n), generate_random_linear(m, n, trial)):
                cc = RuleSpec("cc", k, weights=w)
                programs += [cc_ip(profile, w, k), owa_ip(profile, w, alpha, k)]
                programs += [young_ip(profile, a) for a in profile.alternatives]
                programs += [
                    egalitarian_feasibility_ip(profile, cc, level)
                    for level in egalitarian_levels(profile, cc) + (m,)
                ]
            for inst in programs:
                for con in inst.constraints:
                    indices = [idx for idx, _ in con.coeffs]
                    assert indices == sorted(set(indices)), con.label

    def test_young_rows_are_pairwise_submatrix(self):
        # row b>a over the groups' first voters: the pairwise row b>a minus
        # the row a>b; then the all-ones row that keeps one voter
        profile, _ = generate_single_crossing(4, 5, 17)
        a = profile.alternatives[0]
        inst = young_ip(profile, a)
        full = constraint_matrix(inst)
        msc = build_sc_matrix(profile)
        msc_rows = dict(zip(msc.row_labels, msc.entries))
        firsts = [members[0] for _, members in profile.groups]
        assert full.col_labels == tuple(f"d_v{i + 1}" for i in firsts)
        challengers = [b for b in profile.alternatives if b != a]
        assert full.row_labels == tuple(f"{b}>{a}" for b in challengers) + ("keep",)
        for b, row in zip(challengers, full.entries):
            over, under = msc_rows[f"{b}>{a}"], msc_rows[f"{a}>{b}"]
            assert row == tuple(over[i] - under[i] for i in firsts)
        assert full.entries[-1] == (1,) * len(firsts)

    def test_structured_instances_are_tu(self):
        # committee columns with the cardinality row, at desk scale
        for seed in range(5):
            profile, _ = generate_single_peaked(4, 3, 400 + seed)
            inst = cc_ip(profile, ScoringVector.borda(4), 2)
            assert is_totally_unimodular(committee_submatrix(inst)).is_tu
            ap, _ = generate_candidate_interval(4, 4, 500 + seed)
            pinst = pav_ip(ap, OwaVector.harmonic(2), 2)
            assert is_totally_unimodular(committee_submatrix(pinst)).is_tu

    def test_full_constraint_matrix_tu_on_tiny_instances(self):
        # whole coefficient matrices, point columns included, <= 16 rows
        profile, _ = generate_single_peaked(3, 4, 7)
        inst = cc_ip(profile, ScoringVector.borda(3), 2)
        full = constraint_matrix(inst)
        assert full.num_rows == 1 + len(set(build_sp_matrix(profile).entries)) == 7 <= 16
        assert is_totally_unimodular(full).is_tu

        inst = owa_ip(profile, ScoringVector.borda(3), OwaVector.harmonic(2), 2)
        assert is_totally_unimodular(constraint_matrix(inst)).is_tu

        ap, _ = generate_candidate_interval(5, 10, 8)
        inst = pav_ip(ap, OwaVector.harmonic(2), 2)
        full = constraint_matrix(inst)
        assert full.num_rows == 1 + len(set(ap.ballots)) == 9 <= 16
        assert is_totally_unimodular(full).is_tu

        # the signed deletion rows are not TU even on single-crossing profiles
        sc, _ = generate_single_crossing(6, 9, 9)
        result = is_totally_unimodular(constraint_matrix(young_ip(sc, sc.alternatives[2])))
        assert result.kind == "not_tu" and abs(result.witness_det) == 2


def _format(election):
    return "approval" if isinstance(election, ApprovalProfile) else "ranked"


def _committee_programs(election, k):
    """The committee programs of an election with Borda weights and harmonic
    OWA weights, as (rule, instance) pairs."""
    alpha = OwaVector.harmonic(k)
    if isinstance(election, ApprovalProfile):
        return [(RuleSpec("pav", k, owa=alpha), pav_ip(election, alpha, k))]
    w = ScoringVector.borda(election.m)
    return [
        (RuleSpec("cc", k, weights=w), cc_ip(election, w, k)),
        (RuleSpec("owa", k, weights=w, owa=alpha), owa_ip(election, w, alpha, k)),
    ]


@st.composite
def counted_elections(draw):
    """A weak-order or approval profile, a committee size and a count factor."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    names = default_alternative_names(m)
    if draw(st.booleans()):
        ballots = tuple(frozenset(draw(st.sets(st.sampled_from(names)))) for _ in range(n))
        election = ApprovalProfile(names, ballots)
    else:
        voters = []
        for _ in range(n):
            order = draw(st.permutations(names))
            cuts = sorted(draw(st.sets(st.integers(1, m - 1)))) if m > 1 else []
            bounds = [0, *cuts, m]
            classes = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            voters.append(WeakOrder.from_classes(classes))
        election = Profile(names, tuple(voters))
    return election, draw(st.integers(1, m)), draw(st.integers(2, 20))


class TestAggregatedRows:
    """One row per distinct top segment or ballot: repeated voters add
    weight to a row, never rows or variables."""

    def test_repeated_voters_scale_the_optimum(self):
        for seed in (1, 2):
            for election in (
                generate_single_peaked(8, 24, seed)[0],
                generate_candidate_interval(8, 24, seed)[0],
            ):
                text = serialize_profile(election)
                fmt = _format(election)
                base = _committee_programs(parse_profile(text, format=fmt), 3)
                big = _committee_programs(
                    parse_profile(recount(text, itertools.repeat(50)), format=fmt), 3
                )
                for (_, small_inst), (_, big_inst) in zip(base, big):
                    assert big_inst.num_vars == small_inst.num_vars
                    assert len(big_inst.constraints) == len(small_inst.constraints)
                    small, large = solve_ip(small_inst), solve_ip(big_inst)
                    assert large.final.objective == 50 * small.final.objective
                    assert large.extracted.committee == small.extracted.committee
                    assert small.lp_integral and large.lp_integral

    def test_rows_bounded_by_distinct_intervals(self):
        for m in (3, 5, 7):
            for seed in range(3):
                sp, _ = generate_single_peaked(m, 300, seed)
                ci, _ = generate_candidate_interval(m, 300, seed)
                ci = ApprovalProfile(ci.alternatives, ci.ballots + (frozenset(),))
                for election in (sp, ci):
                    for _, inst in _committee_programs(election, 2):
                        assert len(inst.constraints) - 1 <= m * (m + 1) // 2 + 1

    def test_matches_brute_force_on_counted_profiles(self):
        rng = random.Random(7707)
        for trial in range(120):
            m, n, seed = rng.randint(2, 5), rng.randint(1, 5), rng.randrange(10**6)
            kind = ("weak", "approval", "sp", "ci", "random")[trial % 5]
            election = {
                "weak": lambda: random_weak_profile(rng, m, n),
                "approval": lambda: random_approval_profile(rng, m, n, allow_empty=True),
                "sp": lambda: generate_single_peaked(m, n, seed)[0],
                "ci": lambda: generate_candidate_interval(m, n, seed)[0],
                "random": lambda: generate_random_linear(m, n, seed),
            }[kind]()
            counts = (rng.randint(1, 6) for _ in itertools.count())
            text = recount(serialize_profile(election), counts)
            election = parse_profile(text, format=_format(election))
            for rule, inst in _committee_programs(election, rng.randint(1, m)):
                report = solve_ip(inst)
                expected = brute_force_committee(rule, election)
                assert report.final.objective == expected.best_value
                assert report.extracted.committee in expected.argmax
                if kind in ("sp", "ci"):
                    assert report.lp_integral

    def test_root_values_are_bound_objects(self):
        for seed in range(3):
            sp, _ = generate_single_peaked(6, 12, seed)
            ci, _ = generate_candidate_interval(6, 12, seed)
            for inst in (
                cc_ip(sp, ScoringVector.borda(6), 2),
                pav_ip(ci, OwaVector.harmonic(2), 2),
            ):
                report = solve_ip(inst)
                assert report.lp_integral
                for var, value in zip(inst.variables, report.lp.values):
                    assert value is var.lower or value is var.upper

    @given(counted_elections())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_multiplying_counts_scales_only_the_objective(self, case):
        election, k, c = case
        text = serialize_profile(election)
        fmt = _format(election)
        base = _committee_programs(parse_profile(text, format=fmt), k)
        scaled = _committee_programs(
            parse_profile(recount(text, itertools.repeat(c)), format=fmt), k
        )
        for (_, inst), (_, big) in zip(base, scaled):
            assert big.num_vars == inst.num_vars
            assert committee_submatrix(big).entries == committee_submatrix(inst).entries
            assert big.objective == tuple((idx, c * coef) for idx, coef in inst.objective)


class TestInvariances:
    def test_scaling_weights_preserves_argmax(self):
        rng = random.Random(5151)
        for _ in range(8):
            profile = random_weak_profile(rng, 4, 5)
            k = 2
            w = ScoringVector.borda(4)
            scaled = ScoringVector(tuple(rat(3, 2) * x for x in w.entries))
            base = brute_force_committee(RuleSpec("cc", k, weights=w), profile)
            other = brute_force_committee(RuleSpec("cc", k, weights=scaled), profile)
            assert set(base.argmax) == set(other.argmax)
            alpha = OwaVector.harmonic(k)
            scaled_a = OwaVector(tuple(rat(5) * x for x in alpha.entries))
            b2 = brute_force_committee(RuleSpec("owa", k, weights=w, owa=alpha), profile)
            o2 = brute_force_committee(RuleSpec("owa", k, weights=w, owa=scaled_a), profile)
            assert set(b2.argmax) == set(o2.argmax)

    def test_point_relaxation_preserves_optimum(self):
        # the built programs keep their point variables continuous; flagging
        # them integral (the binary form) must not change a single report field
        rng = random.Random(808)
        branched = 0
        for _ in range(20):
            m, n, k = rng.randint(4, 6), rng.randint(8, 16), rng.randint(2, 3)
            seed = rng.randrange(10**6)
            w, alpha = ScoringVector.borda(m), OwaVector.harmonic(k)
            sp = generate_single_peaked(m, n, seed)[0]
            orders = generate_random_linear(m, n, seed)
            programs = [
                cc_ip(sp, w, k),
                owa_ip(sp, w, alpha, k),
                pav_ip(generate_candidate_interval(m, n, seed)[0], alpha, k),
                cc_ip(orders, w, k),
                owa_ip(orders, w, alpha, k),
                pav_ip(random_approval_profile(rng, m, n), alpha, k),
            ]
            for inst in programs:
                assert not any(v.integral for v in inst.variables if v.role == "point")
                binary = dataclasses.replace(inst, variables=tuple(
                    dataclasses.replace(v, integral=True) if v.role == "point" else v
                    for v in inst.variables
                ))
                report = solve_ip(inst)
                assert solve_ip(binary) == report
                branched += report.branch_nodes > 0
        assert branched >= 3


def program_numbers(inst):
    """Every bound, coefficient, right-hand side and objective coefficient."""
    for var in inst.variables:
        yield var.lower
        if var.upper is not None:
            yield var.upper
    for con in inst.constraints:
        yield con.rhs
        yield from (v for _, v in con.coeffs)
    yield from (v for _, v in inst.objective)


def seeded_programs(seed):
    """cc, owa, pav, every egal probe and young on seeded profiles."""
    rng = random.Random(seed)
    m, n, k = rng.randint(3, 6), rng.randint(4, 12), 2
    ranked_profiles = [
        generate_single_peaked(m, n, seed)[0],
        generate_single_crossing(m, n, seed)[0],
        generate_random_linear(m, n, seed),
    ]
    approvals = [
        generate_candidate_interval(m, n, seed)[0],
        random_approval_profile(rng, m, n, allow_empty=True),
    ]
    for election in ranked_profiles + approvals:
        for rule, inst in _committee_programs(election, k):
            yield inst
            if rule.kind != "owa":
                for level in egalitarian_levels(election, rule):
                    yield egalitarian_feasibility_ip(election, rule, level)
    for election in ranked_profiles:
        yield young_ip(election, election.alternatives[seed % m])


class TestCanonicalForm:
    """A built program holds an ``int`` wherever its number is integral and a
    ``Fraction`` only where it is not."""

    @pytest.mark.parametrize("seed", range(6))
    def test_built_programs_are_canonical(self, seed):
        programs = list(seeded_programs(seed))
        assert len(programs) > 10
        for inst in programs:
            assert all(is_canonical(x) for x in program_numbers(inst)), serialize_ip(inst)

    def test_hand_built_data_is_put_in_canonical_form(self):
        from votelp import Constraint, Variable

        variables = (
            Variable("x", "point", rat(0), rat(2), True),
            Variable("y", "point", rat(1, 2), None, False),
        )
        row = Constraint(((0, rat(1)), (1, rat(3, 2))), "<=", rat(4), "cap")
        inst = IPInstance(variables, "max", ((0, rat(2)), (1, rat(1, 3))), (row,))
        assert all(is_canonical(x) for x in program_numbers(inst))
        assert (inst.variables[0].lower, inst.variables[0].upper) == (0, 2)
        assert inst.variables[1].lower == rat(1, 2) and inst.variables[1].upper is None
        assert inst.constraints[0].coeffs == ((0, 1), (1, rat(3, 2)))
        assert type(inst.constraints[0].rhs) is int
        assert inst.objective == ((0, 2), (1, rat(1, 3)))
        assert inst.constraints[0].label == "cap"

    def test_canonical_data_is_kept_as_is(self):
        inst = cc_ip(profile_e1(), BORDA3, 1)
        again = IPInstance(
            inst.variables, inst.objective_sense, inst.objective, inst.constraints
        )
        assert all(a is b for a, b in zip(again.variables, inst.variables))
        assert all(a is b for a, b in zip(again.constraints, inst.constraints))
        assert again.objective is inst.objective


class TestInstanceValidation:
    def test_cardinality_required_with_committee_vars(self):
        inst = cc_ip(profile_e1(), BORDA3, 1)
        with pytest.raises(ValueError):
            IPInstance(
                inst.variables, inst.objective_sense, inst.objective, inst.constraints[1:]
            )

    def test_unknown_variable_rejected(self):
        inst = young_ip(profile_e4(), "a")
        from votelp import Constraint

        bad = inst.constraints + (
            Constraint(((99, rat(1)),), "<=", rat(1), "ghost"),
        )
        with pytest.raises(ValueError):
            IPInstance(inst.variables, inst.objective_sense, inst.objective, bad)

    @pytest.mark.parametrize("indices", [(0, 0), (1, 0)])
    def test_row_indices_strictly_increase(self, indices):
        # a repeated index would be solved as 2 y_a <= 1, vertex (1/2, 1/2),
        # while the matrix views read the row as (1, 0)
        from votelp import Constraint, Variable

        variables = tuple(Variable(f"y_{c}", "point", rat(0), rat(1), False) for c in "ab")
        row = Constraint(tuple((j, rat(1)) for j in indices), "<=", rat(1), "twice")
        with pytest.raises(ValueError, match="twice"):
            IPInstance(variables, "max", ((0, rat(1)), (1, rat(1))), (row,))

    def test_unbounded_integral_variable_is_refused(self):
        # branch-and-bound on this program raised x1's and x4's lower bounds
        # without end
        with pytest.raises(ValueError, match="integral variable x1 "):
            flat_ray_program()

    @pytest.mark.parametrize("lower, upper", [(None, rat(1)), (rat(0), None)])
    def test_integral_variable_needs_both_bounds(self, lower, upper):
        from votelp import Variable

        d = Variable("d", "deletion", lower, upper, True)
        with pytest.raises(ValueError, match="integral variable d "):
            IPInstance((d,), "min", ((0, rat(1)),), ())

    def test_free_variable_is_refused_when_built(self):
        from votelp import Variable

        z = Variable("z", "point", None, None, False)
        with pytest.raises(ValueError, match="variable z is free"):
            IPInstance((z,), "max", ((0, rat(1)),), ())

    def test_one_sided_continuous_variables_are_kept(self):
        from votelp import Variable

        below = Variable("u", "point", None, rat(0), False)
        above = Variable("v", "point", rat(0), None, False)
        inst = IPInstance((below, above), "max", ((0, rat(1)), (1, rat(-1))), ())
        assert solve_lp(inst).values == (0, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_built_programs_box_every_integral_variable(self, seed):
        for inst in seeded_programs(seed):
            boxes = [(var.lower, var.upper) for var in inst.variables if var.integral]
            assert boxes and all(None not in box for box in boxes)


class TestSerialization:
    def test_lp_text_sections(self):
        inst = pav_ip(profile_e2(), OwaVector((1, rat(1, 2))), 2)
        text = serialize_ip(inst)
        assert text.startswith("max\n")
        assert "subject to" in text and "bounds" in text and "integer" in text
        assert "1/2 x_v1_l2" in text
        assert "cardinality: + 1 y_a + 1 y_b + 1 y_c + 1 y_d = 2" in text
        inst2 = young_ip(profile_e3(), "a")
        text2 = serialize_ip(inst2)
        assert text2.startswith("min\n")
        assert ">= 2" in text2
