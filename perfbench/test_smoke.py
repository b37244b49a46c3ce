"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload of BENCHMARK.json through ``run.main`` with shrunken
shapes, checks the printed metrics against the names and units declared
there, and checks that the oracle gate counts a wrong answer as failed.  The
wrong answers are injected here, around the benchmark's op functions; the
package is untouched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_workloads
import run
from bench_workloads import Shape, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_SHAPES = {
    "tu-root": (("cc", "sp", 4, 6, 2), ("owa", "sp", 4, 5, 2), ("pav", "ci", 5, 8, 2)),
    "off-domain-bnb": (("cc", "random", 4, 6, 2), ("owa", "random", 4, 5, 2)),
    "cli-large-n": (("recognize", "sc", 4, 12, 0), ("egal", "sp", 4, 10, 2),
                    ("egal", "sc", 4, 10, 2)),
    "young-defects": (("young", "sc", 4, 10, 0), ("young", "sc", 3, 8, 0)),
}


def tiny(name: str) -> Workload:
    shapes = tuple(Shape(*s) for s in TINY_SHAPES[name])
    return dataclasses.replace(bench_workloads.WORKLOADS[name], shapes=shapes,
                               pool=2 * len(shapes))


def run_main(monkeypatch, capsys, name: str, trace: int, seconds: str = "0.3"):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(bench_workloads.WORKLOADS, name, tiny(name))
    status = run.main(["--workload", name, "--seed", "3", "--seconds", seconds,
                       "--trace", str(trace)])
    assert status == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench_workloads.WORKLOADS)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(monkeypatch, capsys, name, trace):
    result = run_main(monkeypatch, capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def test_root_relaxation_integral_on_tu_root(monkeypatch, capsys):
    metrics = run_main(monkeypatch, capsys, "tu-root", 1)["metrics"]
    assert metrics["simplex.root_integral_frac"]["value"] == 1.0
    assert metrics["simplex.bnb_nodes"]["value"] == 0


def test_young_ops_are_checked(monkeypatch, capsys):
    result = run_main(monkeypatch, capsys, "young-defects", 0)
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


def _wrong_report(report):
    """The solver's report with its objective off by one."""
    final = dataclasses.replace(report.final, objective=report.final.objective + 1)
    return dataclasses.replace(report, final=final)


def _wrong_egal(answer):
    status, stdout = answer
    report = json.loads(stdout)
    report["egalitarian"]["committee"] = report["egalitarian"]["committee"][:-1]
    return status, json.dumps(report)


@pytest.mark.parametrize("name,op,corrupt", [
    ("tu-root", "library_op", _wrong_report),
    ("off-domain-bnb", "library_op", _wrong_report),
    ("cli-large-n", "cli_op", _wrong_egal),
])
def test_oracle_gate_fails_wrong_answers(monkeypatch, capsys, name, op, corrupt):
    real = getattr(bench_workloads, op)

    def injected(votelp, inst):
        answer = real(votelp, inst)
        if inst.shape.rule in ("recognize", "young"):
            return answer
        return corrupt(answer)

    monkeypatch.setattr(bench_workloads, op, injected)
    result = run_main(monkeypatch, capsys, name, 0)
    corrupted = sum(1 for i in range(result["attempted"])
                    if tiny(name).shapes[i % len(tiny(name).shapes)].rule
                    not in ("recognize", "young"))
    assert corrupted >= 1
    assert result["failed"] == corrupted
    assert result["correct"] is False


def test_recognition_check_rejects_a_broken_certificate(tmp_path):
    votelp = run.import_votelp(ROOT)
    work = tiny("cli-large-n")
    inst = bench_workloads.generate(votelp, work, 5, tmp_path)[0]
    oracle = bench_workloads.Oracle(votelp)
    status, stdout = bench_workloads.cli_op(votelp, inst)
    assert oracle.check(inst, (status, stdout))
    report = json.loads(stdout)
    ordering = report["single_crossing"]
    ordering[0], ordering[-1] = ordering[-1], ordering[0]
    assert not oracle.check(inst, (status, json.dumps(report)))


def test_same_seed_same_inputs(tmp_path):
    votelp = run.import_votelp(ROOT)
    work = tiny("tu-root")
    first = [i.text for i in bench_workloads.generate(votelp, work, 7, tmp_path)]
    again = [i.text for i in bench_workloads.generate(votelp, work, 7, tmp_path)]
    other = [i.text for i in bench_workloads.generate(votelp, work, 8, tmp_path)]
    assert first == again
    assert first != other


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tu-root", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
