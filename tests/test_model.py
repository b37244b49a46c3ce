import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelp import (
    ApprovalProfile,
    Profile,
    ProfileFormatError,
    WeakOrder,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    is_candidate_interval,
    is_single_crossing,
    is_single_peaked,
    majority_margin,
    parse_profile,
    serialize_profile,
)
from votelp.model import default_alternative_names

from helpers import approval, profile_e1, profile_e3, profile_texts, ranked


class TestParsing:
    def test_minimal_ranked(self):
        p = parse_profile("3\na b c\n1: a > b > c\n")
        assert p.m == 3 and p.n == 1
        assert p.voters[0].is_linear()
        assert p.voters[0].as_linear_sequence() == ("a", "b", "c")

    def test_multiplicity_expansion(self):
        p = parse_profile("3\na b c\n2: {a,b} > c\n")
        assert p.n == 2
        assert p.voters[0] == p.voters[1]
        assert p.voters[0].indifference_classes == (
            frozenset({"a", "b"}),
            frozenset({"c"}),
        )

    def test_approval_format(self):
        ap = parse_profile("4\na b c d\n1: {a,b}\n", format="approval")
        assert ap.ballots == (frozenset({"a", "b"}),)

    def test_empty_ballot(self):
        ap = parse_profile("2\na b\n1: {}\n", format="approval")
        assert ap.ballots == (frozenset(),)
        assert serialize_profile(ap) == "2\na b\n1: {}\n"

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("3\na b c\n1: a > a > c\n", "duplicate", 3),
            ("3\na b c\n1: a > b > z\n", "unknown", 3),
            ("3\na b c\n1: a > b\n", "missing", 3),
            ("3\na b c\nnonsense\n", "count", 3),
            ("3\na b c\n0: a > b > c\n", "multiplicity", 3),
            ("3\na b c\n1: c > b > a\n100000000000000000000: a > b > c\n", "multiplicity", 4),
            ("2\na a\n1: a > a\n", "duplicate", 2),
            ("2\na~x b\n1: a~x > b\n", "illegal", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text)
        assert fragment in str(err.value)
        assert f"line {line}" in str(err.value)

    def test_approval_conversion_is_dichotomous(self):
        ap = parse_profile(
            "3\na b c\n1: {a,b}\n1: {}\n1: {a,b,c}\n", format="approval"
        )
        profile = ap.to_profile()
        assert [v.num_classes for v in profile.voters] == [2, 1, 1]
        assert profile.voters[0].indifference_classes[0] == frozenset({"a", "b"})

    def test_round_trip_normalizes(self):
        text = "3\na b c\n1: {b,a} > c\n1: {a,b} > c\n"
        normalized = serialize_profile(parse_profile(text))
        assert normalized == "3\na b c\n2: {a,b} > c\n"
        # normal form is a fixed point
        assert serialize_profile(parse_profile(normalized)) == normalized


# the four seeded generators, each returning just its profile
_GENERATED = {
    "sp": lambda m, n, seed: generate_single_peaked(m, n, seed)[0],
    "sc": lambda m, n, seed: generate_single_crossing(m, n, seed)[0],
    "ci": lambda m, n, seed: generate_candidate_interval(m, n, seed)[0],
    "random": generate_random_linear,
}

# sha256 over serialize_profile of every (n, seed) in the grid below, per
# (kind, m): pins the generators' random streams and the text bytes at once
_TEXT_DIGESTS = {
    ("sp", 1): "7fb625b94e6f284b0521936d721e2139faf4bd5aec00ca676dff7808384a9614",
    ("sp", 3): "4f767b1120cbff15a4e1aea967063236c9a47f8c83235c55a02fbe35d444e290",
    ("sp", 6): "91355a042c468a2c0de205fdc2db5c77266b96e5e1d2d5a100f065bd1a35dff4",
    ("sp", 10): "a52fd60e2aab8a3b675501318e9c8fe7cd219a9553c3c61094d250c8ec73ac46",
    ("sc", 1): "7fb625b94e6f284b0521936d721e2139faf4bd5aec00ca676dff7808384a9614",
    ("sc", 3): "4f444dcff442b19b14a30dd57d00c71e01fd975c509b579af51701782daed341",
    ("sc", 6): "1d671ee1e979b537af3d13bc963df937d2bb06af71e5e709a5fa9db739ad3376",
    ("sc", 10): "98a699c760bee79054a45f055b768ce5a3a495baf4aec54b7058a28048dd8a5d",
    ("ci", 1): "1b75e88e7c91bde99ee28a8bbee64786891e19df434b55171280955a17f633a2",
    ("ci", 3): "cbc8cc0969e6d65be3dfae207da94b9ade6cf620722249211d2f41fb752e08d3",
    ("ci", 6): "3e7e545aa6950ca8bb2b406d0c771b72f9efcf251d9f24559da2f35ad6c668a6",
    ("ci", 10): "0b582a871c2fc2fcc501f6e66900843403c8fca2f16ca8ee987532fda67c9045",
    ("random", 1): "7fb625b94e6f284b0521936d721e2139faf4bd5aec00ca676dff7808384a9614",
    ("random", 3): "f9c5b375104b7090c893dde22532d5bfa98bb9339e63a1e0ed10ef9b7a54bdce",
    ("random", 6): "9e5e19402d5aa69960f91f2990bc9c61f861972bf2c85a75cee58a9b694ab4cc",
    ("random", 10): "029d7b8a3f73741a1cba4ea991f9c0b773e5681d69c01c0086afd3c96cce66b1",
}


class TestTextPins:
    @pytest.mark.parametrize("kind,m", sorted(_TEXT_DIGESTS))
    def test_generated_text_digest(self, kind, m):
        digest = hashlib.sha256()
        for n in (1, 2, 50, 700):
            for seed in (0, 1, 2):
                digest.update(serialize_profile(_GENERATED[kind](m, n, seed)).encode())
        assert digest.hexdigest() == _TEXT_DIGESTS[kind, m]

    @pytest.mark.parametrize("kind,n", [("sp", 5000), ("ci", 5000), ("random", 5000), ("sc", 2000)])
    def test_large_round_trip(self, kind, n):
        generated = _GENERATED[kind](10, n, 1)
        text = serialize_profile(generated)
        parsed = parse_profile(text, format="approval" if kind == "ci" else "ranked")
        assert parsed == generated
        assert serialize_profile(parsed) == text


# per text format: a body, the same body spelled another way, a malformed body
_BODIES = {
    "ranked": ("{a,b} > c", "{b,a} > c", "a > z > c"),
    "approval": ("{a,b}", "{b,a}", "{a,z}"),
}
_HEAD = "3\na b c\n"


@pytest.mark.parametrize("format", sorted(_BODIES))
class TestParseEdges:
    def test_malformed_body_names_its_first_line(self, format):
        good, _, bad = _BODIES[format]
        text = _HEAD + f"1: {bad}\n2: {good}\n1: {bad}\n"
        with pytest.raises(ProfileFormatError, match="^line 3: unknown alternative 'z'$"):
            parse_profile(text, format=format)

    @pytest.mark.parametrize(
        "count,fragment",
        [("0", "multiplicity must be at least 1"), ("x", "bad multiplicity 'x'")],
    )
    def test_bad_count_on_repeated_body_names_its_line(self, format, count, fragment):
        good, other, _ = _BODIES[format]
        text = _HEAD + f"1: {good}\n2: {other}\n{count}: {good}\n"
        with pytest.raises(ProfileFormatError, match=f"^line 5: {fragment}"):
            parse_profile(text, format=format)

    def test_spellings_of_one_body_form_one_group(self, format):
        good, other, _ = _BODIES[format]
        election = parse_profile(_HEAD + f"1: {other}\n1: {good}\n", format=format)
        assert [members for _, members in election.groups] == [(0, 1)]

    def test_equal_lines_share_one_object(self, format):
        good, other, _ = _BODIES[format]
        third = "c > b > a" if format == "ranked" else "{c}"
        bodies = [good, third, good, other, "  " + good, third]
        text = _HEAD + "".join(f"2: {body}\n" for body in bodies)
        election = parse_profile(text, format=format)
        items = election.voters if format == "ranked" else election.ballots
        assert len(items) == 12
        assert len({id(item) for item in items}) == len({b.strip() for b in bodies})


class TestParseFuzz:
    @given(profile_texts(), st.sampled_from(("ranked", "approval")))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_parse_raises_or_round_trips(self, text, format):
        try:
            election = parse_profile(text, format=format)
        except ProfileFormatError:
            return
        normal = serialize_profile(election)
        assert parse_profile(normal, format=format) == election
        assert serialize_profile(parse_profile(normal, format=format)) == normal


@st.composite
def weak_profiles(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    names = list(default_alternative_names(m))
    voters = []
    for _ in range(n):
        order = draw(st.permutations(names))
        breaks = sorted(draw(st.sets(st.integers(1, m - 1)))) if m > 1 else []
        classes = []
        last = 0
        for cut in breaks + [m]:
            classes.append(order[last:cut])
            last = cut
        voters.append(WeakOrder.from_classes(classes))
    return Profile(tuple(names), tuple(voters))


class TestRoundTripProperty:
    @given(weak_profiles())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_serialize_parse_identity(self, profile):
        text = serialize_profile(profile)
        assert parse_profile(text) == profile
        assert serialize_profile(parse_profile(text)) == text

    @given(weak_profiles())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rank_consistency(self, profile):
        for order in profile.voters:
            for a in profile.alternatives:
                for b in profile.alternatives:
                    assert order.prefers(a, b) == (order.rank(a) < order.rank(b))


class TestDerivedQuantities:
    def test_rank_examples(self):
        e1 = profile_e1()
        assert e1.voters[1].rank("a") == 2
        assert e1.voters[0].rank("a") == 1
        tied = ranked("a b c", "{a,b}>c")
        assert tied.voters[0].rank("a") == tied.voters[0].rank("b") == 1
        assert tied.voters[0].rank("c") == 2

    def test_top_initial_segment_examples(self):
        e1 = profile_e1()
        assert e1.voters[2].top_segment(2) == {"c", "b"}
        assert e1.voters[0].top_segment(3) == {"a", "b", "c"}
        tied = ranked("a b c", "{a,b}>c")
        assert tied.voters[0].top_segment(1) == {"a", "b"}
        assert tied.voters[0].top_segments == (frozenset("ab"), frozenset("abc"))

    def test_top_initial_segment_strictly_monotone(self):
        p = ranked("a b c d", "{a,b}>c>d", "d>c>b>a")
        for i in range(p.n):
            r = p.voters[i].num_classes
            for t in range(1, r):
                assert p.voters[i].top_segment(t) < p.voters[i].top_segment(t + 1)
        with pytest.raises(ValueError):
            p.voters[0].top_segment(4)

    def test_groups_by_first_appearance(self):
        p = ranked("a b c", "a>b>c", "2: c>b>a", "a>b>c")
        assert p.groups == (
            (WeakOrder.linear("abc"), (0, 3)),
            (WeakOrder.linear("cba"), (1, 2)),
        )
        ap = approval("a b", {"a"}, set(), {"a"})
        assert ap.groups == ((frozenset("a"), (0, 2)), (frozenset(), (1,)))

    def test_validation_names_first_offending_voter(self):
        good, short, other = WeakOrder.linear("ab"), WeakOrder.linear("a"), WeakOrder.linear("ac")
        with pytest.raises(ValueError, match="^voter 1 does not rank"):
            Profile(("a", "b"), (good, short, good, other, short))
        with pytest.raises(ValueError, match="^ballot 2 approves"):
            ApprovalProfile(("a", "b"), (frozenset("a"),) * 2 + (frozenset("z"), frozenset("y")))

    def test_classes_must_be_frozensets(self):
        with pytest.raises(ValueError, match="frozensets"):
            WeakOrder(({"a"}, {"b"}))
        with pytest.raises(ValueError, match="frozensets"):
            WeakOrder((frozenset("a"), ("b",)))
        assert WeakOrder.from_classes(({"a"}, {"b"})) == WeakOrder.linear("ab")

    def test_ballots_must_be_frozensets(self):
        with pytest.raises(ValueError, match="^ballot 0 is not a frozenset"):
            ApprovalProfile(("a", "b"), ({"a"},))
        with pytest.raises(ValueError, match="^ballot 1 is not a frozenset"):
            ApprovalProfile(("a", "b"), (frozenset("a"), ["b"], {"a"}))

    def test_majority_margin_examples(self):
        assert majority_margin(profile_e1(), "b", "a") == 1
        assert majority_margin(profile_e3(), "c", "a") == 1

    def test_majority_margin_antisymmetric(self):
        p = profile_e1()
        for a in p.alternatives:
            for b in p.alternatives:
                if a != b:
                    assert majority_margin(p, b, a) == -majority_margin(p, a, b)

    def test_majority_margin_indifference_counts_neither(self):
        p = ranked("a b c", "{a,b}>c", "a>b>c")
        assert majority_margin(p, "a", "b") == 1

    def test_reversed_copy_cancels(self):
        rng = random.Random(5)
        from helpers import random_weak_profile

        for _ in range(10):
            p = random_weak_profile(rng, rng.randint(2, 5), rng.randint(1, 5))
            reversed_voters = tuple(
                WeakOrder(tuple(reversed(v.indifference_classes))) for v in p.voters
            )
            doubled = Profile(p.alternatives, p.voters + reversed_voters)
            for a in p.alternatives:
                for b in p.alternatives:
                    if a != b:
                        assert majority_margin(doubled, a, b) == 0

    def test_rejects_equal_pair(self):
        with pytest.raises(ValueError):
            majority_margin(profile_e1(), "a", "a")


class TestGenerators:
    def test_single_peaked_passes_recognizer(self):
        for seed in range(20):
            rng = random.Random(900 + seed)
            m, n = rng.randint(1, 8), rng.randint(1, 20)
            profile, axis = generate_single_peaked(m, n, seed)
            assert profile.m == m and profile.n == n
            for order in profile.voters:
                for t in range(1, order.num_classes + 1):
                    assert axis.is_interval(order.top_segment(t))
            assert is_single_peaked(profile) is not None

    def test_single_peaked_trivial_m1(self):
        profile, _ = generate_single_peaked(1, 4, 3)
        assert len(set(profile.voters)) == 1

    def test_single_crossing_passes_recognizer(self):
        for seed in range(20):
            rng = random.Random(700 + seed)
            m, n = rng.randint(1, 6), rng.randint(1, 12)
            profile, ordering = generate_single_crossing(m, n, seed)
            assert ordering == tuple(range(n))
            assert is_single_crossing(profile) is not None

    def test_single_crossing_two_alternatives_contiguous(self):
        profile, _ = generate_single_crossing(2, 8, 13)
        firsts = [v.as_linear_sequence()[0] for v in profile.voters]
        # voters with the same top are contiguous
        assert len([i for i in range(1, 8) if firsts[i] != firsts[i - 1]]) <= 1

    def test_candidate_interval_ballots_are_intervals(self):
        for seed in range(20):
            rng = random.Random(300 + seed)
            m, n = rng.randint(1, 8), rng.randint(1, 15)
            approval, axis = generate_candidate_interval(m, n, seed)
            for ballot in approval.ballots:
                assert ballot and axis.is_interval(ballot)
            assert is_candidate_interval(approval) is not None

    def test_determinism(self):
        assert generate_single_peaked(5, 7, 42) == generate_single_peaked(5, 7, 42)
        assert generate_single_crossing(5, 7, 42) == generate_single_crossing(5, 7, 42)
        assert generate_candidate_interval(5, 7, 42) == generate_candidate_interval(5, 7, 42)
