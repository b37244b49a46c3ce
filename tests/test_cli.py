import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import votelp.cli
from votelp import (
    OracleResult,
    OwaVector,
    ScoringVector,
    generate_candidate_interval,
    generate_random_linear,
    generate_single_crossing,
    generate_single_peaked,
    serialize_profile,
)

from helpers import profile_texts, small_elections

E1_TEXT = "3\na b c\n1: a > b > c\n1: b > a > c\n1: c > b > a\n"
E3_TEXT = "3\na b c\n2: c > a > b\n1: b > a > c\n"
CYCLE_TEXT = "3\na b c\n1: a > b > c\n1: b > c > a\n1: c > a > b\n"
E2_TEXT = "4\na b c d\n1: {a,b}\n1: {b,c}\n1: {c,d}\n"


# commands that parse a ranked profile, with the flags each needs
PROFILE_COMMANDS = [
    ("recognize",),
    ("solve", "--rule", "cc", "--k", "1"),
    ("egal", "--rule", "cc", "--k", "1"),
    ("young", "--candidate", "a"),
]


def _limit_address_space():
    """Cap the child's address space at 1.5 GiB, so an input that makes the
    program allocate without bound fails fast instead of exhausting memory."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 3 << 29
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "votelp", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def run_json(*args, expect: int = 0):
    proc = run_cli(*args, expect=expect)
    return json.loads(proc.stdout)


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.prof"
    path.write_text(E1_TEXT)
    return str(path)


@pytest.fixture
def e3_file(tmp_path):
    path = tmp_path / "e3.prof"
    path.write_text(E3_TEXT)
    return str(path)


@pytest.fixture
def sc25_file(tmp_path):
    """A single-crossing profile past brute force's voter limit."""
    path = tmp_path / "sc25.prof"
    path.write_text(serialize_profile(generate_single_crossing(5, 25, 3)[0]))
    return str(path)


class TestSolveCommand:
    def test_cc_e1_with_audit(self, e1_file):
        report = run_json(
            "solve", "--rule", "cc", "--k", "1", "--weights", "borda",
            "--input", e1_file, "--audit",
        )
        assert report["solve"]["objective"] == "7"
        assert report["solve"]["committee"] == ["b"]
        assert report["solve"]["lp_integral"] is True
        assert report["audit"]["match"] is True
        assert report["audit"]["oracle_value"] == "7"
        assert report["recognition"]["single_peaked"] == ["a", "b", "c"]

    def test_pav_needs_approval_format(self, tmp_path):
        path = tmp_path / "e2.prof"
        path.write_text(E2_TEXT)
        run_cli(
            "solve", "--rule", "pav", "--k", "2", "--input", str(path), expect=2
        )
        report = run_json(
            "solve", "--rule", "pav", "--k", "2", "--owa", "1,1/2",
            "--format", "approval", "--input", str(path), "--audit",
        )
        assert report["solve"]["objective"] == "7/2"
        assert report["solve"]["committee"] == ["b", "c"]
        assert report["audit"]["match"] is True

    def test_rational_weights_flag(self, e1_file):
        report = run_json(
            "solve", "--rule", "cc", "--k", "1", "--weights", "3/2,1,1/2",
            "--input", e1_file,
        )
        assert report["solve"]["objective"] == "7/2"

    def test_owa_rule(self, e1_file):
        report = run_json(
            "solve", "--rule", "owa", "--k", "2", "--owa", "1,1",
            "--input", e1_file,
        )
        assert report["solve"]["objective"] == "13"
        assert report["solve"]["committee"] == ["a", "b"]

    def test_k_too_large(self, e1_file):
        run_cli("solve", "--rule", "cc", "--k", "9", "--input", e1_file, expect=2)

    def test_solve_works_without_recognized_structure(self, tmp_path):
        # solving never requires recognition to succeed
        path = tmp_path / "cycle.prof"
        path.write_text(CYCLE_TEXT)
        report = run_json(
            "solve", "--rule", "cc", "--k", "1", "--input", str(path), "--audit"
        )
        assert report["recognition"]["single_peaked"] is None
        assert report["recognition"]["single_crossing"] is None
        assert report["solve"]["status"] == "optimal"
        assert report["audit"]["match"] is True

    def test_reports_identical_modulo_timings(self, e1_file):
        args = ("solve", "--rule", "cc", "--k", "1", "--input", e1_file, "--audit")
        first = run_json(*args)
        second = run_json(*args)
        first.pop("timings")
        second.pop("timings")
        assert first == second


class TestYoungCommand:
    def test_e3_is_infeasible_and_scores_zero(self, e3_file):
        report = run_json(
            "young", "--candidate", "a", "--input", e3_file, "--audit", "--strict"
        )
        assert report["solve"]["status"] == "infeasible"
        assert report["young_score"] == 0
        assert report["audit"]["oracle_score"] == 0
        assert report["audit"]["match"] is True

    def test_condorcet_winner_scores_full_profile(self, e1_file):
        report = run_json("young", "--candidate", "b", "--input", e1_file, "--audit")
        assert report["solve"]["objective"] == "0"
        assert report["young_score"] == 3
        assert report["audit"]["match"] is True

    def test_infeasible_scores_zero_by_convention(self, tmp_path):
        path = tmp_path / "hopeless.prof"
        path.write_text("2\na b\n3: b > a\n")
        report = run_json("young", "--candidate", "a", "--input", str(path), "--audit")
        assert report["solve"]["status"] == "infeasible"
        assert report["young_score"] == 0
        assert report["audit"]["match"] is True
        assert any("by convention 0" in w for w in report["warnings"])

    def test_unknown_candidate(self, e1_file):
        run_cli("young", "--candidate", "z", "--input", e1_file, expect=2)

    def test_audit_past_brute_force_on_single_crossing(self, tmp_path):
        path = tmp_path / "big-sc.prof"
        path.write_text(serialize_profile(generate_single_crossing(6, 2000, 1)[0]))
        report = run_json("young", "--candidate", "c", "--input", str(path), "--audit", "--strict")
        audit, ordering = report["audit"], report["recognition"]["single_crossing"]
        assert audit["match"] is True and audit["oracle_score"] == report["young_score"] > 20
        # the witness is the block of the crossing order that the median-voter rule keeps
        start = min(ordering.index(i) for i in audit["oracle_witness"])
        block = ordering[start : start + audit["oracle_score"]]
        assert sorted(block) == audit["oracle_witness"]

    def test_audit_past_brute_force_needs_single_crossing(self, tmp_path):
        path = tmp_path / "random21.prof"
        path.write_text(serialize_profile(generate_random_linear(4, 21, 1)))
        proc = run_cli("young", "--candidate", "a", "--input", str(path), "--audit", expect=2)
        assert "not single-crossing" in proc.stderr


class TestEverySubcommand:
    @given(small_elections(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_subcommand_exits_0_or_2(self, tmp_path_factory, case, data):
        election, format = case
        path = tmp_path_factory.getbasetemp() / "every.prof"
        path.write_text(serialize_profile(election))
        k = str(data.draw(st.integers(1, election.m)))
        audited = ("--input", str(path), "--format", format, "--audit")
        if format == "approval":
            commands = [
                ("solve", "--rule", "pav", "--k", k, *audited, "--strict"),
                ("egal", "--rule", "pav", "--k", k, *audited, "--strict"),
                ("recognize", "--input", str(path), "--format", format),
            ]
        else:
            candidate = data.draw(st.sampled_from(election.alternatives))
            commands = [
                ("solve", "--rule", "cc", "--k", k, *audited, "--strict"),
                ("solve", "--rule", "owa", "--k", k, *audited, "--strict"),
                ("egal", "--rule", "cc", "--k", k, *audited, "--strict"),
                ("young", "--candidate", candidate, *audited, "--strict"),
                ("recognize", "--input", str(path)),
                ("matrix", "sp", "--input", str(path)),
                ("matrix", "sc", "--input", str(path)),
            ]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = votelp.cli.main(list(argv))
            assert status in (0, 2), (argv, out.getvalue(), err.getvalue())
            if argv[:2] == ("matrix", "sp") and status == 0:
                # the segment matrix is a valid matrix file for the matrix tests
                matrix_path = path.with_suffix(".mat")
                matrix_path.write_text(out.getvalue())
                for command in ("c1p", "tu"):
                    matrix_out = io.StringIO()
                    with contextlib.redirect_stdout(matrix_out):
                        matrix_status = votelp.cli.main(["matrix", command, "--input", str(matrix_path)])
                    assert matrix_status == 0, (command, out.getvalue(), matrix_out.getvalue())


class TestRecognizeCommand:
    @given(profile_texts(), st.sampled_from(("ranked", "approval")))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fuzzed_text_exits_0_or_2(self, tmp_path_factory, text, format):
        path = tmp_path_factory.getbasetemp() / "fuzz.prof"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = votelp.cli.main(["recognize", "--format", format, "--input", str(path)])
        assert status in (0, 2), out.getvalue()
        assert (status == 0) == (err.getvalue() == "")

    def test_cycle_rejected_by_both(self, tmp_path):
        path = tmp_path / "cycle.prof"
        path.write_text(CYCLE_TEXT)
        report = run_json("recognize", "--input", str(path))
        assert report["single_peaked"] is None
        assert report["single_crossing"] is None

    def test_approval_candidate_interval(self, tmp_path):
        path = tmp_path / "e2.prof"
        path.write_text(E2_TEXT)
        report = run_json("recognize", "--format", "approval", "--input", str(path))
        assert report["candidate_interval"] == ["a", "b", "c", "d"]

    def test_many_voters_single_crossing(self, tmp_path):
        profile, ordering = generate_single_crossing(4, 1500, 8)
        path = tmp_path / "sc.prof"
        path.write_text(serialize_profile(profile))
        report = run_json("recognize", "--input", str(path))
        assert report["single_crossing"] == list(ordering)

    def test_weak_orders_have_no_crossing_field_value(self, tmp_path):
        path = tmp_path / "ties.prof"
        path.write_text("3\na b c\n1: {a,b} > c\n1: c > {a,b}\n")
        report = run_json("recognize", "--input", str(path))
        assert report["single_crossing"] is None
        assert report["single_peaked"] is not None


class TestEgalCommand:
    def test_cc_e1(self, e1_file):
        report = run_json(
            "egal", "--rule", "cc", "--k", "1", "--input", e1_file, "--audit"
        )
        egal = report["egalitarian"]
        assert egal["best_level"] == "2"
        assert egal["committee"] == ["b"]
        assert egal["all_relaxations_integral"] is True
        assert report["audit"]["match"] is True

    def test_pav_e2(self, tmp_path):
        path = tmp_path / "e2.prof"
        path.write_text(E2_TEXT)
        report = run_json(
            "egal", "--rule", "pav", "--k", "2", "--owa", "1,1/2",
            "--format", "approval", "--input", str(path), "--audit",
        )
        assert report["egalitarian"]["best_level"] == "1"
        assert report["audit"]["match"] is True


class TestAuditMismatch:
    """A disagreeing oracle reaches the report, and under --strict the exit status."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        "argv, oracle_name",
        [
            (("solve", "--rule", "cc", "--k", "1"), "brute_force_committee"),
            (("egal", "--rule", "cc", "--k", "1"), "brute_force_egalitarian"),
            (("young", "--candidate", "b"), "young_score_bruteforce"),
            (("young", "--candidate", "b"), "young_score_median"),
        ],
    )
    def test_oracle_disagreement(
        self, argv, oracle_name, strict, e1_file, sc25_file, monkeypatch, capsys
    ):
        real = getattr(votelp.cli.oracle, oracle_name)

        def shifted(*args):
            best = real(*args)
            if isinstance(best, OracleResult):
                return OracleResult(best.best_value + 1, best.argmax)
            if isinstance(best, int):
                return best + 1
            score, witness = best
            return score + 1, witness

        monkeypatch.setattr(votelp.cli.oracle, oracle_name, shifted)
        flags = ["--audit", "--strict"] if strict else ["--audit"]
        # the median-voter rule audits only past brute force's voter limit
        path = sc25_file if oracle_name == "young_score_median" else e1_file
        status = votelp.cli.main([*argv, "--input", path, *flags])
        report = json.loads(capsys.readouterr().out)
        assert status == (3 if strict else 0)
        assert report["audit"]["match"] is False
        assert "solver disagrees with the oracle" in report["warnings"]


class TestVectorFlags:
    @given(st.text(alphabet="0123456789/-,.x "))
    @example("1/0")
    @example("1,1/0")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_vector_or_cli_error(self, spec):
        for parse, size, kind in (
            (votelp.cli._parse_weights, 3, ScoringVector),
            (votelp.cli._parse_owa, 2, OwaVector),
        ):
            try:
                assert isinstance(parse(spec, size), kind)
            except votelp.cli.CliError:
                pass


def _generated(kind, m, n, seed):
    """The model generator behind ``gen --kind``: (profile, hidden structure)."""
    if kind == "sp":
        profile, axis = generate_single_peaked(m, n, seed)
        return profile, list(axis.ordering)
    if kind == "sc":
        profile, ordering = generate_single_crossing(m, n, seed)
        return profile, list(ordering)
    if kind == "ci":
        profile, axis = generate_candidate_interval(m, n, seed)
        return profile, list(axis.ordering)
    return generate_random_linear(m, n, seed), None


class TestGenCommand:
    @pytest.mark.parametrize("kind", ["sp", "sc", "ci", "random"])
    def test_stdout_is_the_model_generator(self, kind, capsys):
        argv = ["gen", "--kind", kind, "--m", "5", "--n", "7", "--seed", "4"]
        assert votelp.cli.main(argv) == 0
        profile, _ = _generated(kind, 5, 7, 4)
        assert capsys.readouterr().out == serialize_profile(profile)

    @pytest.mark.parametrize("kind", ["sp", "sc", "ci", "random"])
    def test_out_summary_names_the_hidden_structure(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.prof"
        argv = ["gen", "--kind", kind, "--m", "4", "--n", "6", "--seed", "2", "--out", str(out)]
        assert votelp.cli.main(argv) == 0
        profile, hidden = _generated(kind, 4, 6, 2)
        summary = json.loads(capsys.readouterr().out)
        assert summary["hidden_structure"] == hidden
        assert out.read_text() == serialize_profile(profile)

    def test_deterministic_output(self):
        first = run_cli("gen", "--kind", "sp", "--m", "5", "--n", "6", "--seed", "3")
        second = run_cli("gen", "--kind", "sp", "--m", "5", "--n", "6", "--seed", "3")
        assert first.stdout == second.stdout

    def test_gen_to_file_reports_summary(self, tmp_path):
        out = tmp_path / "gen.prof"
        report = run_json(
            "gen", "--kind", "ci", "--m", "4", "--n", "5", "--seed", "9",
            "--out", str(out),
        )
        assert report["out"] == str(out)
        assert len(report["hidden_structure"]) == 4
        assert out.exists()

    def test_gen_into_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.prof"
        argv = ["gen", "--kind", "sp", "--m", "3", "--n", "2", "--seed", "1", "--out", str(out)]
        assert votelp.cli.main(argv) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {out}: ")

    def test_gen_pipe_into_recognize(self, tmp_path):
        out = tmp_path / "sc.prof"
        run_json("gen", "--kind", "sc", "--m", "4", "--n", "6", "--seed", "2", "--out", str(out))
        report = run_json("recognize", "--input", str(out))
        assert report["single_crossing"] is not None


class TestDigest:
    @pytest.mark.parametrize("text", ["", E1_TEXT, "2\nä 候\n1: ä > 候\n"])
    def test_matches_hashlib(self, text):
        assert votelp.cli._digest(text) == hashlib.sha256(text.encode()).hexdigest()

    def test_openssl_stays_unloaded(self):
        # -S: no site hook may import hashlib first
        src = os.path.dirname(os.path.dirname(votelp.cli.__file__))
        code = "import sys, votelp.cli; votelp.cli._digest('x'); print('_hashlib' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestMatrixCommands:
    def test_sp_then_c1p_then_tu(self, e1_file, tmp_path):
        matrix_text = run_cli("matrix", "sp", "--input", e1_file).stdout
        assert matrix_text.splitlines()[0] == "9 3"
        path = tmp_path / "m.mat"
        path.write_text(matrix_text)
        c1p = run_json("matrix", "c1p", "--input", str(path))
        assert c1p["c1p"] is True and c1p["permutation"] == [0, 1, 2]
        tu = run_json("matrix", "tu", "--input", str(path))
        assert tu["result"] == "tu"

    def test_not_tu_witness(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n1 1\n-1 1\n")
        report = run_json("matrix", "tu", "--input", str(path))
        assert report["result"] == "not_tu"
        assert abs(report["witness"]["det"]) == 2

    def test_c1p_long_path(self, tmp_path):
        ncols = 1500
        rows = (
            " ".join("1" if j in (i, i + 1) else "0" for j in range(ncols))
            for i in range(ncols - 1)
        )
        path = tmp_path / "path.mat"
        path.write_text(f"{ncols - 1} {ncols}\n" + "\n".join(rows) + "\n")
        report = run_json("matrix", "c1p", "--input", str(path))
        assert report["permutation"] == list(range(ncols))

    def test_c1p_zero_rows_keeps_columns(self, tmp_path):
        path = tmp_path / "empty.mat"
        path.write_text("0 3\n")
        report = run_json("matrix", "c1p", "--input", str(path))
        assert report["c1p"] is True
        assert report["permutation"] == [0, 1, 2]

    @pytest.mark.parametrize("command", ["c1p", "tu"])
    def test_negative_counts_exit_2(self, command, tmp_path):
        path = tmp_path / "neg.mat"
        path.write_text("0 -3\n")
        proc = run_cli("matrix", command, "--input", str(path), expect=2)
        assert proc.stdout == ""
        assert "negative matrix size: 0 rows, -3 columns" in proc.stderr

    def test_negative_budget_rejected_before_reading(self, capsys):
        argv = ["matrix", "tu", "--budget", "-1", "--input", "/nonexistent/m.mat"]
        assert votelp.cli.main(argv) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == "error: --budget must be non-negative, got -1\n"

    def test_zero_budget_decides_only_empty_matrices(self, tmp_path):
        for text, result in (("2 2\n1 0\n0 1\n", "budget_exceeded"), ("0 3\n", "tu")):
            path = tmp_path / "m.mat"
            path.write_text(text)
            report = run_json("matrix", "tu", "--budget", "0", "--input", str(path))
            assert report["result"] == result

    def test_wide_zero_row_matrix_is_answered(self, tmp_path):
        # a width the parser can hold is searched in memory linear in the width
        path = tmp_path / "wide.mat"
        path.write_text("0 20000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "votelp", "matrix", "c1p", "--input", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
        assert json.loads(proc.stdout)["permutation"] == list(range(20000))

    @pytest.mark.parametrize("command", ["c1p", "tu"])
    def test_wide_zero_row_matrix_exit_2(self, command, tmp_path):
        path = tmp_path / "wide.mat"
        path.write_text("0 100000000000000\n")
        proc = subprocess.run(
            [sys.executable, "-m", "votelp", "matrix", command, "--input", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=_limit_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "100000000000000 columns" in proc.stderr

    def test_c1p_rejects_signed(self, tmp_path):
        path = tmp_path / "signed.mat"
        path.write_text("1 2\n1 -1\n")
        run_cli("matrix", "c1p", "--input", str(path), expect=2)

    def test_sc_matrix_output(self, e3_file):
        text = run_cli("matrix", "sc", "--input", e3_file).stdout
        assert text.splitlines()[0] == "6 3"


class TestBenchCommand:
    # columns 1-7 (all but micros) of four seeded trials per kind; random
    # draws its pav trial from interval ballots, so that row is integral
    PINNED = {
        "sp": [
            "3,19,2,cc,true,11,0",
            "4,4,3,owa-harmonic,true,26,0",
            "8,15,3,owa-constant,true,95,0",
            "7,13,2,cc,true,36,0",
        ],
        "sc": [
            "3,19,2,young,true,4,0",
            "4,4,3,young,true,3,0",
            "8,15,3,young,true,0,0",
            "7,13,2,young,true,0,0",
        ],
        "ci": [
            "3,19,2,pav,true,15,0",
            "4,4,3,pav,true,15,0",
            "8,15,3,pav,true,45,0",
            "7,13,2,pav,true,30,0",
        ],
        "random": [
            "3,19,2,cc,true,14,0",
            "4,4,3,pav,true,15,0",
            "8,15,3,owa-harmonic,true,296,0",
            "7,13,2,cc,false,66,2",
        ],
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_rows_are_pinned(self, kind, capsys):
        assert votelp.cli.main(["bench", "--kind", kind, "--trials", "4", "--seed", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.rsplit(",", 1)[0] for row in rows] == self.PINNED[kind]

    def test_sp_trials_all_integral(self):
        proc = run_cli("bench", "--kind", "sp", "--trials", "6", "--seed", "5")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "m,n,k,rule,lp_integral,pivots,branch_nodes,micros"
        assert len(lines) == 7
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "true"
            assert fields[6] == "0"

    def test_random_kind_runs(self):
        proc = run_cli("bench", "--kind", "random", "--trials", "3", "--seed", "8", "--m-max", "4", "--n-max", "5")
        assert len(proc.stdout.strip().splitlines()) == 4

    def test_fixed_k_draws_enough_alternatives(self):
        proc = run_cli("bench", "--kind", "sp", "--trials", "30", "--seed", "1", "--k", "3")
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 31
        for line in lines[1:]:
            m, _, k = (int(x) for x in line.split(",")[:3])
            assert k == 3 and m >= 3

    @pytest.mark.parametrize(
        "flags",
        [
            ("--m-max", "1"),
            ("--k", "5", "--m-max", "4"),
            ("--n-max", "0"),
            ("--k", "-1"),
            ("--trials", "-1"),
        ],
    )
    def test_bad_ranges_rejected_before_header(self, flags):
        proc = run_cli("bench", "--kind", "sp", "--trials", "3", "--seed", "1", *flags, expect=2)
        assert proc.stdout == ""


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--rule", "cc", "--k", "2", "--weights", "3,2,1/0"),
            ("solve", "--rule", "owa", "--k", "2", "--owa", "1,1/0"),
            ("egal", "--rule", "cc", "--k", "2", "--weights", "3,2,1/0"),
            ("egal", "--rule", "pav", "--k", "2", "--owa", "1,1/0", "--format", "approval"),
        ],
    )
    def test_zero_denominator_flag_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "in.prof"
        path.write_text(E2_TEXT if "approval" in argv else E1_TEXT)
        assert votelp.cli.main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bad {argv[5]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--rule", "cc", "--k", "1", "--weights", "1e1000000,1"),
            ("solve", "--rule", "owa", "--k", "2", "--owa", "1E1000000,1"),
            ("egal", "--rule", "cc", "--k", "1", "--weights", "1e1000000,1"),
            ("egal", "--rule", "pav", "--k", "2", "--owa", "1e1000000,1", "--format", "approval"),
        ],
    )
    def test_exponent_flag_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "in.prof"
        path.write_text(E2_TEXT if "approval" in argv else E1_TEXT)
        assert votelp.cli.main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"bad {argv[5]}" in err and "exponent" in err

    def test_malformed_input_exit_2(self, tmp_path):
        path = tmp_path / "broken.prof"
        path.write_text("3\na b c\n1: a > a > c\n")
        proc = run_cli("solve", "--rule", "cc", "--k", "1", "--input", str(path), expect=2)
        assert "line 3" in proc.stderr

    @pytest.mark.parametrize("argv", PROFILE_COMMANDS)
    def test_count_past_index_size_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "huge.prof"
        path.write_text("2\na b\n100000000000000000000: a > b\n")
        assert votelp.cli.main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 3: ")

    @pytest.mark.parametrize("argv", PROFILE_COMMANDS)
    def test_count_past_memory_exit_2(self, argv, tmp_path):
        path = tmp_path / "huge.prof"
        path.write_text("2\na b\n10000000000000: a > b\n")
        proc = subprocess.run(
            [sys.executable, "-m", "votelp", *argv, "--input", str(path)],
            capture_output=True,
            text=True,
            preexec_fn=_limit_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: line 3: ")

    def test_missing_file_exit_2(self):
        run_cli("recognize", "--input", "/nonexistent/file.prof", expect=2)

    def test_strict_requires_audit(self, e1_file):
        run_cli("solve", "--rule", "cc", "--k", "1", "--input", e1_file, "--strict", expect=2)

    def test_unknown_flag_exit_2(self, e1_file):
        run_cli("solve", "--rule", "cc", "--k", "1", "--input", e1_file, "--frobnicate", expect=2)

    def test_internal_error_exit_4(self, e1_file, monkeypatch, capsys):
        def broken(profile):
            raise RuntimeError("recognizer broke")

        monkeypatch.setattr(votelp.cli.structure, "is_single_peaked", broken)
        assert votelp.cli.main(["recognize", "--input", e1_file]) == 4
        out = capsys.readouterr().out
        assert json.loads(out) == {"error": "RuntimeError: recognizer broke"}
