import json
import subprocess
import sys

import pytest

import votelp.cli
from votelp import generate_single_crossing, serialize_profile

E1_TEXT = "3\na b c\n1: a > b > c\n1: b > a > c\n1: c > b > a\n"
E3_TEXT = "3\na b c\n2: c > a > b\n1: b > a > c\n"
CYCLE_TEXT = "3\na b c\n1: a > b > c\n1: b > c > a\n1: c > a > b\n"
E2_TEXT = "4\na b c d\n1: {a,b}\n1: {b,c}\n1: {c,d}\n"


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
    def test_e3_formulation_gap(self, e3_file):
        report = run_json("young", "--candidate", "a", "--input", e3_file, "--audit")
        assert report["solve"]["objective"] == "2"
        assert report["young_score"] == 1
        assert report["audit"]["oracle_score"] == 0
        assert report["audit"]["match"] is False
        assert any("formulation gap" in w for w in report["warnings"])

    def test_strict_mismatch_exit_code(self, e3_file):
        run_cli(
            "young", "--candidate", "a", "--input", e3_file,
            "--audit", "--strict", expect=3,
        )

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


class TestRecognizeCommand:
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


class TestGenCommand:
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

    def test_gen_pipe_into_recognize(self, tmp_path):
        out = tmp_path / "sc.prof"
        run_json("gen", "--kind", "sc", "--m", "4", "--n", "6", "--seed", "2", "--out", str(out))
        report = run_json("recognize", "--input", str(out))
        assert report["single_crossing"] is not None


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

    def test_c1p_rejects_signed(self, tmp_path):
        path = tmp_path / "signed.mat"
        path.write_text("1 2\n1 -1\n")
        run_cli("matrix", "c1p", "--input", str(path), expect=2)

    def test_sc_matrix_output(self, e3_file):
        text = run_cli("matrix", "sc", "--input", e3_file).stdout
        assert text.splitlines()[0] == "6 3"


class TestBenchCommand:
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
        [("--m-max", "1"), ("--k", "5", "--m-max", "4"), ("--n-max", "0"), ("--k", "-1")],
    )
    def test_bad_ranges_rejected_before_header(self, flags):
        proc = run_cli("bench", "--kind", "sp", "--trials", "3", "--seed", "1", *flags, expect=2)
        assert proc.stdout == ""


class TestErrorPaths:
    def test_malformed_input_exit_2(self, tmp_path):
        path = tmp_path / "broken.prof"
        path.write_text("3\na b c\n1: a > a > c\n")
        proc = run_cli("solve", "--rule", "cc", "--k", "1", "--input", str(path), expect=2)
        assert "line 3" in proc.stderr

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
