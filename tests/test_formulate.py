import itertools
import random

import pytest

from votelp import (
    CARDINALITY_LABEL,
    IPInstance,
    OwaVector,
    RuleSpec,
    ScoringVector,
    brute_force_committee,
    build_ballot_matrix,
    build_sc_matrix,
    build_sp_matrix,
    cc_ip,
    committee_assignment,
    committee_submatrix,
    committee_value,
    constraint_matrix,
    dedup_rows,
    egalitarian_feasibility_ip,
    egalitarian_levels,
    egalitarian_solve,
    extract_solution,
    generate_candidate_interval,
    generate_single_crossing,
    generate_single_peaked,
    is_totally_unimodular,
    marginal_weights,
    owa_ip,
    pav_ip,
    relax_point_integrality,
    serialize_ip,
    solve_ip,
    top_initial_segment,
    young_ip,
)
from votelp.rationals import rat

from helpers import (
    approval,
    profile_e1,
    profile_e2,
    profile_e3,
    profile_e4,
    profile_e5,
    random_approval_profile,
    random_weak_profile,
    ranked,
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
        ap = approval("a b", {"a"})
        ap = type(ap)(ap.alternatives, (frozenset(),))
        inst = pav_ip(ap, OwaVector((1,)), 1)
        row = inst.constraints[1]
        assert row.sense == "<=" and row.rhs == 0
        assert all(inst.variables[idx].role == "point" for idx, _ in row.coeffs)


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
        assert all(c.label.endswith(":redundant") for c in inst.constraints)
        report = solve_ip(inst)
        assert report.final.objective == 0
        assert report.extracted.deleted_voters == frozenset()

    def test_e5_deletes_four(self):
        report = solve_ip(young_ip(profile_e5(), "a"))
        assert report.final.objective == rat(4)

    def test_e3_formulation_gap(self):
        from votelp import young_score_bruteforce

        report = solve_ip(young_ip(profile_e3(), "a"))
        assert report.final.objective == rat(2)
        assert report.extracted.deleted_voters == frozenset({0, 1})
        score, witness = young_score_bruteforce(profile_e3(), "a")
        assert score == 0 and witness == frozenset()
        # the program says "delete 2", the exhaustive search says "impossible"
        assert profile_e3().n - 2 != score

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
        assert extracted.objective == rat(7, 2)

    def test_fractional_committee_rejected(self):
        inst = cc_ip(profile_e1(), BORDA3, 1)
        values = list(committee_assignment(inst, {"b"}))
        values[0] = rat(1, 2)
        with pytest.raises(ValueError):
            extract_solution(inst, values)

    def test_cardinality_mismatch_rejected(self):
        inst = cc_ip(profile_e1(), BORDA3, 2)
        with pytest.raises(ValueError):
            committee_assignment(inst, {"a"})


class TestObjectiveLinkage:
    """The instance objective at the canonical assignment of ANY committee
    equals the rule value of that committee, not only at optima."""

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
                cc_vals = committee_assignment(cc_inst, committee)
                assert extract_solution(cc_inst, cc_vals).objective == committee_value(
                    cc_rule, profile, committee
                )
                owa_vals = committee_assignment(owa_inst, committee)
                assert extract_solution(owa_inst, owa_vals).objective == committee_value(
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
                values = committee_assignment(inst, committee)
                assert extract_solution(inst, values).objective == committee_value(
                    rule, ap, committee
                )


def _slot_counts(inst):
    """Distinct numbers of +1 point entries over the non-cardinality rows,
    whose committee entries must all be -1."""
    counts = set()
    for con in inst.constraints[1:]:
        roles = [(inst.variables[idx].role, coef) for idx, coef in con.coeffs]
        assert all(coef == -1 for role, coef in roles if role == "committee")
        counts.add(sum(1 for role, coef in roles if role == "point" and coef == 1))
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
        sub = committee_submatrix(inst)
        msp = build_sp_matrix(profile)
        assert sub.entries == msp.entries
        with_card = committee_submatrix(inst, include_cardinality=True)
        assert with_card.entries[0] == (1,) * profile.m
        for k in (2, 3):
            inst = owa_ip(profile, ScoringVector.borda(5), OwaVector.harmonic(k), k)
            assert committee_submatrix(inst).entries == msp.entries
            assert _slot_counts(inst) == {k}
        ap, _ = generate_candidate_interval(5, 6, 99)
        inst = pav_ip(ap, OwaVector.harmonic(2), 2)
        assert committee_submatrix(inst).entries == build_ballot_matrix(ap).entries
        assert _slot_counts(inst) == {2}

    def test_egalitarian_rows_are_segments_and_ballots(self):
        rng = random.Random(4242)
        profile = random_weak_profile(rng, 5, 6)
        rule = RuleSpec("cc", 2, weights=ScoringVector((4, 2, 2, 1, 0)))
        for level in egalitarian_levels(profile, rule):
            threshold = sum(1 for w in rule.weights.padded(5) if w >= level)
            expected = [
                (">=", 1, top_initial_segment(profile, i, min(threshold, order.num_classes)))
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

    def test_young_rows_are_pairwise_submatrix(self):
        profile, _ = generate_single_crossing(4, 5, 17)
        a = profile.alternatives[0]
        inst = young_ip(profile, a)
        sub = committee_submatrix(inst)
        msc = build_sc_matrix(profile)
        msc_rows = dict(zip(msc.row_labels, msc.entries))
        for label, row in zip(sub.row_labels, sub.entries):
            assert msc_rows[label.replace(":redundant", "")] == row

    def test_structured_instances_are_tu(self):
        # reduced committee matrices plus the cardinality row, at desk scale
        for seed in range(5):
            profile, _ = generate_single_peaked(4, 3, 400 + seed)
            inst = cc_ip(profile, ScoringVector.borda(4), 2)
            reduced = dedup_rows(committee_submatrix(inst, include_cardinality=True))
            assert is_totally_unimodular(reduced).is_tu
            ap, _ = generate_candidate_interval(4, 4, 500 + seed)
            pinst = pav_ip(ap, OwaVector.harmonic(2), 2)
            reduced = dedup_rows(committee_submatrix(pinst, include_cardinality=True))
            assert is_totally_unimodular(reduced).is_tu
            sc, _ = generate_single_crossing(4, 4, 600 + seed)
            yinst = young_ip(sc, sc.alternatives[0])
            reduced = dedup_rows(committee_submatrix(yinst))
            assert is_totally_unimodular(reduced).is_tu

    def test_full_constraint_matrix_tu_on_tiny_instances(self):
        # whole coefficient matrices, point columns included, <= 16 rows
        profile, _ = generate_single_peaked(3, 4, 7)
        inst = cc_ip(profile, ScoringVector.borda(3), 2)
        full = constraint_matrix(inst)
        assert full.num_rows == 3 * 4 + 1 <= 16
        assert is_totally_unimodular(full).is_tu

        inst = owa_ip(profile, ScoringVector.borda(3), OwaVector.harmonic(2), 2)
        assert is_totally_unimodular(constraint_matrix(inst)).is_tu

        ap, _ = generate_candidate_interval(5, 10, 8)
        inst = pav_ip(ap, OwaVector.harmonic(2), 2)
        full = constraint_matrix(inst)
        assert full.num_rows == 10 + 1 <= 16
        assert is_totally_unimodular(full).is_tu

        sc, _ = generate_single_crossing(6, 9, 9)
        inst = young_ip(sc, sc.alternatives[2])
        assert is_totally_unimodular(constraint_matrix(inst)).is_tu


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
        rng = random.Random(808)
        for _ in range(6):
            ap = random_approval_profile(rng, 4, 4)
            inst = pav_ip(ap, OwaVector.harmonic(2), 2)
            relaxed = relax_point_integrality(inst)
            assert not any(v.integral and v.role == "point" for v in relaxed.variables)
            assert solve_ip(inst).final.objective == solve_ip(relaxed).final.objective


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
