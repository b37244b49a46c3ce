import itertools
import math
import random
from fractions import Fraction as rat

import pytest

import votelp.oracle
from votelp import (
    OwaVector,
    RuleSpec,
    ScoringVector,
    brute_force_committee,
    brute_force_egalitarian,
    cc_ip,
    committee_value,
    condorcet_winner,
    generate_single_crossing,
    generate_single_peaked,
    is_single_crossing,
    solve_ip,
    voter_value,
    young_score_bruteforce,
    young_score_median,
)

from helpers import (
    cc_on_axis,
    profile_cycle3,
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


class TestCommitteeValue:
    def test_cc_example(self):
        rule = RuleSpec("cc", 1, weights=BORDA3)
        assert committee_value(rule, profile_e1(), {"b"}) == rat(7)

    def test_pav_example(self):
        rule = RuleSpec("pav", 2, owa=OwaVector((1, rat(1, 2))))
        assert committee_value(rule, profile_e2(), {"b", "c"}) == rat(7, 2)

    def test_owa_example(self):
        rule = RuleSpec("owa", 2, weights=BORDA3, owa=OwaVector((1, 1)))
        assert committee_value(rule, profile_e1(), {"a", "b"}) == rat(13)

    def test_size_mismatch(self):
        rule = RuleSpec("cc", 2, weights=BORDA3)
        with pytest.raises(ValueError):
            committee_value(rule, profile_e1(), {"a"})


class TestBruteForce:
    def test_cc_argmax(self):
        result = brute_force_committee(RuleSpec("cc", 1, weights=BORDA3), profile_e1())
        assert result.best_value == rat(7)
        assert result.argmax == (frozenset({"b"}),)

    def test_pav_argmax(self):
        rule = RuleSpec("pav", 2, owa=OwaVector((1, rat(1, 2))))
        result = brute_force_committee(rule, profile_e2())
        assert result.best_value == rat(7, 2)
        assert result.argmax == (frozenset({"b", "c"}),)

    def test_full_committee(self):
        rule = RuleSpec("cc", 3, weights=BORDA3)
        result = brute_force_committee(rule, profile_e1())
        assert result.argmax == (frozenset({"a", "b", "c"}),)

    def test_space_guard(self):
        from votelp.model import generate_random_linear

        big = generate_random_linear(26, 1, 0)
        with pytest.raises(ValueError):
            brute_force_committee(RuleSpec("cc", 13, weights=ScoringVector.borda(26)), big)


class TestCondorcet:
    def test_e1_winner_b(self):
        assert condorcet_winner(profile_e1()) == "b"

    def test_cycle_has_none(self):
        assert condorcet_winner(profile_cycle3()) is None

    def test_unanimous_peak(self):
        assert condorcet_winner(ranked("a b c", "3: b>c>a")) == "b"

    def test_counts_preferences_itself(self, monkeypatch):
        # the program builder reads model.majority_margin; the oracle must not
        monkeypatch.setattr(votelp.oracle, "majority_margin", lambda *a: 0, raising=False)
        assert condorcet_winner(profile_e1()) == "b"
        assert condorcet_winner(profile_e3()) == "c"
        assert condorcet_winner(profile_e5()) == "b"
        assert condorcet_winner(profile_cycle3()) is None

    def test_structured_odd_profiles_have_winner(self):
        for seed in range(25):
            profile, _ = generate_single_peaked(5, 7, 3000 + seed)
            assert condorcet_winner(profile) is not None
            profile, _ = generate_single_crossing(5, 9, 4000 + seed)
            assert condorcet_winner(profile) is not None


class TestYoungScores:
    def test_e4_no_deletions_needed(self):
        assert young_score_bruteforce(profile_e4(), "a") == (3, frozenset({0, 1, 2}))

    def test_e5_only_the_first_voter(self):
        score, witness = young_score_bruteforce(profile_e5(), "a")
        assert score == 1 and witness == frozenset({0})

    def test_e3_impossible(self):
        assert young_score_bruteforce(profile_e3(), "a") == (0, frozenset())

    def test_voter_count_guard(self):
        from votelp.model import generate_random_linear

        big = generate_random_linear(2, 21, 1)
        with pytest.raises(ValueError):
            young_score_bruteforce(big, "a")

    def test_median_e5(self):
        ordering = tuple(range(5))
        assert young_score_median(profile_e5(), ordering, "b") == 5
        assert young_score_median(profile_e5(), ordering, "a") == 1

    def test_median_zero_when_never_on_top(self):
        profile = ranked("a b c", "b>a>c", "c>b>a")
        ordering = is_single_crossing(profile)
        assert young_score_median(profile, ordering, "a") == 0

    def test_median_rejects_bad_ordering(self):
        profile, _ = generate_single_crossing(4, 6, 55)
        bad = None
        for perm in itertools.permutations(range(6)):
            try:
                young_score_median(profile, perm, profile.alternatives[0])
            except ValueError:
                bad = perm
                break
        # at least one ordering of six voters fails to certify (sanity of the check)
        assert bad is not None

    def test_median_rejects_weak_orders(self):
        # the median voters of a tied profile need not carry its majority relation
        profile = ranked("a b c", "{a,b}>c", "a>b>c")
        with pytest.raises(ValueError, match="linear orders"):
            young_score_median(profile, (0, 1), "a")

    def test_median_matches_bruteforce_on_generated(self):
        for seed in range(300):
            rng = random.Random(7000 + seed)
            m, n = rng.randint(2, 6), rng.randint(1, 16)
            profile, ordering = generate_single_crossing(m, n, seed)
            for a in profile.alternatives:
                brute, _ = young_score_bruteforce(profile, a)
                assert young_score_median(profile, ordering, a) == brute


class TestGeneralizations:
    def test_top_slot_owa_equals_cc_everywhere(self):
        rng = random.Random(11)
        for _ in range(10):
            profile = random_weak_profile(rng, 4, 5)
            k = rng.randint(1, 4)
            w = ScoringVector.borda(4)
            alpha = OwaVector((1,) + (0,) * (k - 1))
            cc_rule = RuleSpec("cc", k, weights=w)
            owa_rule = RuleSpec("owa", k, weights=w, owa=alpha)
            for committee in itertools.combinations(profile.alternatives, k):
                assert committee_value(cc_rule, profile, committee) == committee_value(
                    owa_rule, profile, committee
                )

    def test_dichotomous_owa_equals_pav_everywhere(self):
        rng = random.Random(12)
        for _ in range(10):
            ap = random_approval_profile(rng, 4, 5)
            profile = ap.to_profile()
            k = rng.randint(1, 4)
            alpha = OwaVector.harmonic(k)
            pav_rule = RuleSpec("pav", k, owa=alpha)
            owa_rule = RuleSpec("owa", k, weights=ScoringVector((1, 0)), owa=alpha)
            for committee in itertools.combinations(ap.alternatives, k):
                assert committee_value(pav_rule, ap, committee) == committee_value(
                    owa_rule, profile, committee
                )

    def test_solver_matches_oracle_on_arbitrary_profiles(self):
        from votelp import cc_ip, owa_ip, pav_ip

        rng = random.Random(13)
        for trial in range(15):
            m = rng.randint(2, 5)
            n = rng.randint(1, 6)
            k = rng.randint(1, m)
            if trial % 3 == 2:
                ap = random_approval_profile(rng, m, n, allow_empty=True)
                rule = RuleSpec("pav", k, owa=OwaVector.harmonic(k))
                report = solve_ip(pav_ip(ap, rule.owa, k))
                oracle = brute_force_committee(rule, ap)
            elif trial % 3 == 1:
                profile = random_weak_profile(rng, m, n)
                w = ScoringVector.borda(m)
                rule = RuleSpec("owa", k, weights=w, owa=OwaVector.constant(k))
                report = solve_ip(owa_ip(profile, w, rule.owa, k))
                oracle = brute_force_committee(rule, profile)
            else:
                profile = random_weak_profile(rng, m, n)
                w = ScoringVector.borda(m)
                rule = RuleSpec("cc", k, weights=w)
                report = solve_ip(cc_ip(profile, w, k))
                oracle = brute_force_committee(rule, profile)
            assert report.final.objective == oracle.best_value
            assert report.extracted.committee in oracle.argmax


class TestSinglePeakedCcOracle:
    """``cc_on_axis`` reads the generator's hidden axis, not the recognizer."""

    def test_matches_brute_force(self):
        rng = random.Random(2013)
        for trial in range(400):
            m = rng.randint(1, 7)
            k = rng.randint(1, m)
            profile, axis = generate_single_peaked(m, rng.randint(1, 8), rng.randrange(10**6))
            if trial % 2:
                draws = (rat(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, m)))
                w = ScoringVector(tuple(sorted(draws, reverse=True)))
            else:
                w = ScoringVector.borda(m)
            expected = brute_force_committee(RuleSpec("cc", k, weights=w), profile).best_value
            assert cc_on_axis(profile, axis, w, k) == expected, trial

    def test_root_relaxation_meets_it_past_brute_force(self):
        m, k = 27, 8  # C(27, 8) committees, more than brute force enumerates
        assert math.comb(m, k) > votelp.oracle.MAX_COMMITTEE_SPACE
        w = ScoringVector.borda(m)
        rule = RuleSpec("cc", k, weights=w)
        for seed in (1, 2):
            profile, axis = generate_single_peaked(m, 30, seed)
            assert profile.alternatives[-1] == "c27"
            report = solve_ip(cc_ip(profile, w, k))
            expected = cc_on_axis(profile, axis, w, k)
            assert report.lp_integral
            assert report.final.objective == expected
            assert committee_value(rule, profile, report.extracted.committee) == expected
        with pytest.raises(ValueError, match="too large"):
            brute_force_committee(rule, profile)


class TestEgalitarianOracle:
    def test_minimum_voter_value(self):
        rule = RuleSpec("cc", 1, weights=BORDA3)
        result = brute_force_egalitarian(rule, profile_e1())
        assert result.best_value == rat(2)
        assert result.argmax == (frozenset({"b"}),)

    def test_voter_value_pav(self):
        rule = RuleSpec("pav", 2, owa=OwaVector((1, rat(1, 2))))
        assert voter_value(rule, profile_e2(), 1, frozenset({"b", "c"})) == rat(3, 2)
        assert voter_value(rule, profile_e2(), 0, frozenset({"c", "d"})) == rat(0)
