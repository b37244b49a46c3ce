import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votelp import (
    Axis,
    BinaryMatrix,
    Profile,
    SignedMatrix,
    ScoringVector,
    build_sc_matrix,
    build_sp_matrix,
    cc_ip,
    committee_submatrix,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    has_c1p,
    is_candidate_interval,
    is_single_crossing,
    is_single_peaked,
    is_totally_unimodular,
    parse_matrix,
    parse_profile,
    serialize_matrix,
    serialize_profile,
)
from votelp.structure import _consecutive_order

from helpers import (
    approval,
    c1p_by_permutation_search,
    first_c1p_permutation,
    keeps_rows_contiguous,
    profile_e1,
    profile_e3,
    profile_cycle3,
    random_approval_profile,
    random_binary_matrix,
    random_signed_matrix,
    random_weak_profile,
    ranked,
    recount,
    tu_by_determinant_enumeration,
)


def path_matrix(ncols):
    """Rows {i, i+1}: consecutive-ones only in (a reversal of) the given order."""
    entries = tuple(
        tuple(1 if j in (i, i + 1) else 0 for j in range(ncols)) for i in range(ncols - 1)
    )
    return BinaryMatrix(
        entries,
        tuple(f"r{i + 1}" for i in range(ncols - 1)),
        tuple(f"c{j + 1}" for j in range(ncols)),
    )


def rows_as_strings(matrix):
    return ["".join(str(v) for v in row) for row in matrix.entries]


PAPER_MATRIX = BinaryMatrix(
    tuple(
        tuple(int(ch) for ch in row)
        for row in ("001110", "111000", "000011", "011110", "000110")
    ),
    tuple(f"r{i}" for i in range(1, 6)),
    tuple(f"c{j}" for j in range(1, 7)),
)


class TestSegmentMatrix:
    def test_e1_rows(self):
        matrix = build_sp_matrix(profile_e1())
        assert matrix.col_labels == ("a", "b", "c")
        assert rows_as_strings(matrix) == [
            "100", "110", "111",
            "010", "110", "111",
            "001", "011", "111",
        ]
        assert matrix.row_labels[0] == "v1:t1"

    def test_single_voter_two_segments(self):
        matrix = build_sp_matrix(ranked("a b", "a>b"))
        assert rows_as_strings(matrix) == ["10", "11"]

    def test_dichotomous_rows_are_ballots_plus_ones(self):
        ap = approval("a b c", {"b"}, {"a", "c"})
        matrix = build_sp_matrix(ap.to_profile())
        assert rows_as_strings(matrix) == ["010", "111", "101", "111"]


class TestPairwiseMatrix:
    def test_e3_rows(self):
        matrix = build_sc_matrix(profile_e3())
        assert matrix.col_labels == ("v1", "v2", "v3")
        rows = dict(zip(matrix.row_labels, rows_as_strings(matrix)))
        assert rows == {
            "a>b": "110",
            "a>c": "001",
            "b>a": "001",
            "b>c": "001",
            "c>a": "110",
            "c>b": "110",
        }

    def test_rejects_ties(self):
        with pytest.raises(ValueError):
            build_sc_matrix(ranked("a b c", "{a,b}>c"))

    def test_single_voter_rows_are_bits(self):
        matrix = build_sc_matrix(ranked("a b", "a>b"))
        assert rows_as_strings(matrix) == ["1", "0"]

    def test_identical_voters_give_constant_rows(self):
        matrix = build_sc_matrix(ranked("a b c", "3: b>a>c"))
        for row in matrix.entries:
            assert len(set(row)) == 1


class TestConsecutiveOnes:
    def test_paper_matrix_accepted_as_is(self):
        perm = has_c1p(PAPER_MATRIX)
        assert perm == (0, 1, 2, 3, 4, 5)

    def test_three_cycle_segment_matrix_rejected(self):
        matrix = build_sp_matrix(profile_cycle3())
        assert has_c1p(matrix) is None
        assert not c1p_by_permutation_search(matrix)

    def test_trivial_matrices_identity(self):
        zero = BinaryMatrix(((0, 0), (0, 0)), ("r1", "r2"), ("c1", "c2"))
        ones = BinaryMatrix(((1, 1), (1, 1)), ("r1", "r2"), ("c1", "c2"))
        assert has_c1p(zero) == (0, 1)
        assert has_c1p(ones) == (0, 1)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_soundness_of_returned_permutation(self, seed):
        rng = random.Random(seed)
        matrix = random_binary_matrix(rng, 7, 6)
        perm = has_c1p(matrix)
        if perm is not None:
            assert keeps_rows_contiguous(matrix, perm)

    def test_completeness_matches_exhaustive_search(self):
        rng = random.Random(20240831)
        for _ in range(200):
            matrix = random_binary_matrix(rng, 7, 6)
            assert has_c1p(matrix) == first_c1p_permutation(matrix)
        # intervals of a hidden permutation: the smallest first columns often
        # lead nowhere, so the search has to take columns back
        for _ in range(40):
            ncols = rng.randint(2, 8)
            hidden = rng.sample(range(ncols), ncols)
            rows = []
            for _ in range(rng.randint(1, 6)):
                a = rng.randrange(ncols)
                b = rng.randrange(a, ncols)
                rows.append(tuple(int(j in hidden[a : b + 1]) for j in range(ncols)))
            matrix = BinaryMatrix(
                tuple(rows),
                tuple(f"r{i}" for i in range(len(rows))),
                tuple(f"c{j}" for j in range(ncols)),
            )
            assert has_c1p(matrix) == first_c1p_permutation(matrix)
        # {0,1} and {0,2}: column 0 first strands 2, so the search resumes at 1
        matrix = BinaryMatrix(((1, 1, 0, 0), (1, 0, 1, 0)), ("r1", "r2"), ("c1", "c2", "c3", "c4"))
        assert has_c1p(matrix) == first_c1p_permutation(matrix) == (1, 0, 2, 3)

    def test_long_path_needs_no_recursion(self):
        # one placement per column: deeper than the interpreter's recursion limit
        assert has_c1p(path_matrix(1500)) == tuple(range(1500))
        # 5000 columns through the index-set seam (the 0/1 matrix would hold 25M entries)
        path = [frozenset((j, j + 1)) for j in range(4999)]
        assert _consecutive_order(path, 5000) == tuple(range(5000))

    def test_unconstrained_columns_get_no_position_map(self):
        # the order itself takes about 47 MB; a position per column took 118 MB
        tracemalloc.start()
        try:
            order = _consecutive_order((), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == tuple(range(10**6))
        assert peak < 80 * 2**20

    def test_c1p_implies_tu(self):
        rng = random.Random(77)
        found = 0
        while found < 30:
            matrix = random_binary_matrix(rng, 6, 5)
            if has_c1p(matrix) is None:
                continue
            found += 1
            assert is_totally_unimodular(matrix).is_tu


class TestRecognizers:
    def test_e1_axis_canonical(self):
        axis = is_single_peaked(profile_e1())
        assert axis.ordering == ("a", "b", "c")

    def test_three_cycle_rejected_by_both(self):
        assert is_single_peaked(profile_cycle3()) is None
        assert is_single_crossing(profile_cycle3()) is None

    def test_single_voter_always_single_peaked(self):
        assert is_single_peaked(ranked("a b c", "{b,c}>a")) is not None

    def test_e3_voter_ordering(self):
        assert is_single_crossing(profile_e3()) == (0, 1, 2)

    def test_many_voters_in_chain_order(self):
        profile, ordering = generate_single_crossing(4, 1500, 8)
        assert ordering == tuple(range(1500))
        assert is_single_crossing(profile) == ordering
        # the same voters shuffled, so identical voters are no longer adjacent
        perm = list(range(1500))
        random.Random(1500).shuffle(perm)
        shuffled = Profile(profile.alternatives, tuple(profile.voters[j] for j in perm))
        found = is_single_crossing(shuffled)
        assert keeps_rows_contiguous(build_sc_matrix(shuffled), found)
        # each group of identical voters in chain order, its indices ascending,
        # read in the direction that starts with the lower index
        chain_pos = {}
        for j, order in enumerate(profile.voters):
            chain_pos.setdefault(order, j)
        forward = sorted(range(1500), key=lambda i: (chain_pos[shuffled.voters[i]], i))
        backward = sorted(range(1500), key=lambda i: (-chain_pos[shuffled.voters[i]], i))
        assert found == min(tuple(forward), tuple(backward))

    def test_many_single_peaked_voters_not_single_crossing(self):
        profile, _ = generate_single_peaked(6, 150, 3)
        assert is_single_crossing(profile) is None

    def test_weak_orders_raise(self):
        with pytest.raises(ValueError):
            is_single_crossing(ranked("a b c", "a>b>c", "{a,b}>c"))

    def test_agrees_with_exhaustive_c1p(self):
        rng = random.Random(1609)
        accepted = rejected = 0
        for trial in range(120):
            m = rng.randint(2, 5)
            n = rng.randint(1, 7)
            kind = trial % 4
            if kind == 0:
                profile, _ = generate_single_crossing(m, n, trial)
            elif kind == 1:
                profile, _ = generate_single_crossing(m, n, trial)
                voters = list(profile.voters)
                rng.shuffle(voters)
                profile = Profile(profile.alternatives, tuple(voters))
            elif kind == 2:
                profile, _ = generate_single_peaked(m, n, trial)
            else:
                profile = generate_random_linear(m, n, trial)
            matrix = build_sc_matrix(profile)
            ordering = is_single_crossing(profile)
            assert (ordering is not None) == c1p_by_permutation_search(matrix)
            if ordering is None:
                rejected += 1
            else:
                accepted += 1
                assert keeps_rows_contiguous(matrix, ordering)
        assert accepted > 0 and rejected > 0

    def test_interval_axes_match_exhaustive_search(self):
        # the axis is pinned to the lexicographically smallest certifying
        # permutation, in canonical direction, also when voters repeat
        rng = random.Random(3306)
        verdicts = set()
        for trial in range(150):
            m, n, seed = rng.randint(1, 5), rng.randint(1, 6), rng.randrange(10**6)
            kind = ("sp", "random", "weak", "ci", "approval")[trial % 5]
            election = {
                "sp": lambda: generate_single_peaked(m, n, seed)[0],
                "random": lambda: generate_random_linear(m, n, seed),
                "weak": lambda: random_weak_profile(rng, m, n),
                "ci": lambda: generate_candidate_interval(m, n, seed)[0],
                "approval": lambda: random_approval_profile(rng, m, n, allow_empty=True),
            }[kind]()
            if kind in ("ci", "approval"):
                fmt, recognize = "approval", is_candidate_interval
                # the extra all-ones rows of the dichotomous orders constrain no order
                matrix = build_sp_matrix(election.to_profile())
            else:
                fmt, recognize, matrix = "ranked", is_single_peaked, build_sp_matrix(election)
            perm = first_c1p_permutation(matrix)
            expected = None
            if perm is not None:
                expected = Axis(tuple(matrix.col_labels[j] for j in perm)).canonical()
            counts = (rng.randint(1, 4) for _ in itertools.count())
            repeated = parse_profile(recount(serialize_profile(election), counts), format=fmt)
            for profile in (election, repeated):
                axis = recognize(profile)
                assert (axis is not None) == c1p_by_permutation_search(matrix)
                assert axis == expected
            verdicts.add((kind, expected is not None))
        mixed = ("random", "weak", "approval")
        assert verdicts >= {(kind, ok) for kind in mixed for ok in (True, False)}
        assert ("sp", False) not in verdicts and ("ci", False) not in verdicts

    def test_two_voters_always_single_crossing(self):
        rng = random.Random(4)
        for _ in range(20):
            m = rng.randint(1, 6)
            names = list("abcdef"[:m])
            orders = []
            for _ in range(2):
                rng.shuffle(names)
                orders.append(">".join(names))
            assert is_single_crossing(ranked(" ".join(sorted(names)), *orders)) is not None


class TestTotallyUnimodular:
    def test_identity_is_tu(self):
        identity = SignedMatrix(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("r1", "r2", "r3"), ("c1", "c2", "c3")
        )
        assert is_totally_unimodular(identity).is_tu

    def test_two_by_two_witness(self):
        matrix = SignedMatrix(((1, 1), (-1, 1)), ("r1", "r2"), ("c1", "c2"))
        result = is_totally_unimodular(matrix)
        assert result.kind == "not_tu"
        assert abs(result.witness_det) == 2
        sub = [
            [matrix.entries[i][j] for j in result.witness_cols]
            for i in result.witness_rows
        ]
        from votelp.structure import _int_det

        assert _int_det(sub) == result.witness_det

    def test_segment_matrix_plus_ones_row(self):
        matrix = committee_submatrix(cc_ip(profile_e1(), ScoringVector.borda(3), 1))
        assert is_totally_unimodular(matrix).is_tu
        assert tu_by_determinant_enumeration(matrix)

    def test_agrees_with_determinant_enumeration(self):
        rng = random.Random(90125)
        for _ in range(60):
            matrix = random_signed_matrix(rng, 4, 4)
            assert is_totally_unimodular(matrix).is_tu == tu_by_determinant_enumeration(
                matrix
            )

    def test_closure_properties(self):
        # transpose, negated columns, identity block, deletions, permutations
        rng = random.Random(31)
        found = 0
        while found < 12:
            matrix = random_signed_matrix(rng, 4, 4)
            if not is_totally_unimodular(matrix).is_tu:
                continue
            found += 1
            entries = matrix.entries
            nrows, ncols = matrix.num_rows, matrix.num_cols
            transpose = tuple(zip(*entries))
            assert is_totally_unimodular(
                SignedMatrix(transpose, matrix.col_labels, matrix.row_labels)
            ).is_tu
            negated = tuple(
                row + tuple(-v for v in row) for row in entries
            )
            labels = tuple(f"c{j}" for j in range(2 * ncols))
            assert is_totally_unimodular(
                SignedMatrix(negated, matrix.row_labels, labels)
            ).is_tu
            with_identity = tuple(
                row + tuple(1 if i == j else 0 for j in range(nrows))
                for i, row in enumerate(entries)
            )
            labels = tuple(f"c{j}" for j in range(ncols + nrows))
            assert is_totally_unimodular(
                SignedMatrix(with_identity, matrix.row_labels, labels)
            ).is_tu
            if nrows > 1:
                deleted = SignedMatrix(
                    entries[1:], matrix.row_labels[1:], matrix.col_labels
                )
                assert is_totally_unimodular(deleted).is_tu
            perm = list(range(ncols))
            rng.shuffle(perm)
            permuted = tuple(tuple(row[j] for j in perm) for row in entries)
            cols = tuple(matrix.col_labels[j] for j in perm)
            assert is_totally_unimodular(
                SignedMatrix(permuted, matrix.row_labels, cols)
            ).is_tu

    def test_two_voter_profiles_give_tu(self):
        rng = random.Random(62)
        for _ in range(30):
            m = rng.randint(1, 6)
            names = list("abcdef"[:m])
            orders = []
            for _ in range(2):
                rng.shuffle(names)
                orders.append(">".join(names))
            profile = ranked(" ".join(sorted(names)), *orders)
            matrix = committee_submatrix(cc_ip(profile, ScoringVector.borda(m), 1))
            assert is_totally_unimodular(matrix).is_tu

    def test_budget(self):
        entries = tuple(
            tuple(1 if i == j else 0 for j in range(17)) for i in range(17)
        )
        labels = tuple(f"x{i}" for i in range(17))
        big = SignedMatrix(entries, labels, labels)
        assert is_totally_unimodular(big).kind == "budget_exceeded"
        assert is_totally_unimodular(big, row_budget=17).is_tu

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SignedMatrix(((2,),), ("r1",), ("c1",))


class TestMatrixUtilities:
    def test_text_round_trip(self):
        matrix = SignedMatrix(((1, -1, 0), (0, 1, 1)), ("r1", "r2"), ("c1", "c2", "c3"))
        text = serialize_matrix(matrix)
        parsed = parse_matrix(text)
        assert parsed.entries == matrix.entries
        assert text.splitlines()[0] == "2 3"

    def test_zero_row_matrix_keeps_its_columns(self):
        parsed = parse_matrix("0 3\n")
        assert (parsed.num_rows, parsed.num_cols) == (0, 3)
        assert parsed.col_labels == ("c1", "c2", "c3")
        assert serialize_matrix(parsed) == "0 3\n"

    def test_parse_matrix_errors(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_matrix("1 2\n1 0 1\n")
        for text, named in (
            ("0 -3\n", "-3 columns"),
            ("-1 2\n", "-1 rows"),
            # past the index size, so refused before any allocation
            ("0 100000000000000000000\n", "100000000000000000000 columns are too many"),
        ):
            with pytest.raises(ValueError, match=named):
                parse_matrix(text)
