"""Every report of a seeded table of in-process ``votelp`` runs, pinned by
its SHA-256.

``report_corpus.txt`` holds one run a line: the digest, the profile the run
reads (``kind:m:n:seed``, written by ``votelp gen``; ``-`` for none) and the
argv.  In the argv, ``{profile}`` names the profile file, and ``{sp}`` and
``{sc}`` name the matrices that ``votelp matrix sp`` and ``matrix sc`` print
for it.  A digest covers the exit status and the report without its
``timings`` (``bench``: without its ``micros`` column), so it moves only when
a report does.  A change that moves reports on purpose re-records the table
with

    PYTHONPATH=src python tests/test_report_corpus.py

and its change log says which reports moved and why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

import votelp.cli

CORPUS = Path(__file__).with_name("report_corpus.txt")


def _table() -> list:
    """``(digest, profile, argv template)`` for every run of the table."""
    rows = []
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            rows.append(tuple(line.split(" ", 2)))
    return rows


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = votelp.cli.main(argv)
    assert not err.getvalue(), (argv, err.getvalue())
    return status, out.getvalue()


def _command(template: str) -> str:
    words = template.split()
    return " ".join(words[:2]) if words[0] == "matrix" else words[0]


def _flag(template: str, name: str):
    """The value that follows flag ``name`` in the argv, or None."""
    words = template.split()
    return words[words.index(name) + 1] if name in words else None


def _comparable(command: str, out: str) -> str:
    """The printed report as the digest reads it."""
    if command == "bench":
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
    if command in ("gen", "matrix sp", "matrix sc"):
        return out
    report = json.loads(out)
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out
    del report["timings"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class _Inputs:
    """The files the runs read, each written once under ``root``."""

    def __init__(self, root: Path):
        self.root = root
        self.files = {}

    def argv(self, profile: str, template: str) -> list:
        fields = {} if profile == "-" else self._files(profile)
        return template.format(**fields).split()

    def _files(self, profile: str) -> dict:
        if profile not in self.files:
            kind, m, n, seed = profile.split(":")
            path = self.root / f"{kind}-{m}-{n}-{seed}.prof"
            _run(["gen", "--kind", kind, "--m", m, "--n", n, "--seed", seed, "--out", str(path)])
            files = {"profile": str(path)}
            if kind != "ci":  # approval ballots have no order matrices
                for name in ("sp", "sc"):
                    matrix = path.with_suffix(f".{name}")
                    matrix.write_text(_run(["matrix", name, "--input", str(path)])[1])
                    files[name] = str(matrix)
            self.files[profile] = files
        return self.files[profile]

    def digest(self, profile: str, template: str) -> tuple:
        """The run's digest and what it printed."""
        status, out = _run(self.argv(profile, template))
        text = f"exit {status}\n{_comparable(_command(template), out)}"
        return hashlib.sha256(text.encode()).hexdigest(), out


def _moved(inputs: _Inputs) -> list:
    """``(profile, argv template, new report)`` of every run whose digest is
    not the table's."""
    moved = []
    for digest, profile, template in _table():
        new, out = inputs.digest(profile, template)
        if new != digest:
            moved.append((profile, template, out))
    return moved


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _Inputs(tmp_path_factory.mktemp("corpus"))


def test_reports_match_the_table(inputs):
    moved = _moved(inputs)
    assert not moved, "reports moved:\n" + "\n".join(
        f"[{profile}] {template}\n{out}" for profile, template, out in moved
    )


def test_table_covers_every_subcommand_and_profile_kind():
    parser = votelp.cli.build_parser()
    subcommands = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
                subcommands |= {f"{name} {c}" for a in nested for c in a.choices} or {name}
    rows = _table()
    assert {_command(template) for _, _, template in rows} == subcommands
    kinds = {"sp", "sc", "ci", "random"}
    for command in ("recognize", "solve", "egal", "young"):
        read = {p.split(":")[0] for _, p, t in rows if _command(t) == command}
        assert read == kinds, command
    assert {_flag(t, "--kind") for _, _, t in rows if _command(t) == "bench"} == kinds
    rules = {(_command(t), _flag(t, "--rule")) for _, _, t in rows if _flag(t, "--rule")}
    assert rules == {
        ("solve", "cc"), ("solve", "owa"), ("solve", "pav"), ("egal", "cc"), ("egal", "pav")
    }
    solving = [t for _, _, t in rows if _command(t) in ("solve", "egal", "young")]
    assert all("--audit" in t.split() for t in solving)
    assert all(3 <= int(p.split(":")[1]) <= 7 for _, p, _ in rows if p != "-")


def test_one_changed_field_moves_exactly_its_reports(inputs, monkeypatch):
    rule_fields = votelp.cli._rule_fields
    monkeypatch.setattr(
        votelp.cli, "_rule_fields", lambda rule: {**rule_fields(rule), "k": rule.k + 1}
    )
    moved = {(profile, template) for profile, template, _ in _moved(inputs)}
    # only solve and egal reports print their rule
    assert moved == {(p, t) for _, p, t in _table() if _command(t) in ("solve", "egal")}


def _record() -> None:
    """Rewrite the table's digests from the runs as they are now."""
    with tempfile.TemporaryDirectory() as root:
        inputs = _Inputs(Path(root))
        lines = []
        for line in CORPUS.read_text().splitlines():
            if line and not line.startswith("#"):
                _, profile, template = line.split(" ", 2)
                line = f"{inputs.digest(profile, template)[0]} {profile} {template}"
            lines.append(line)
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _record()
