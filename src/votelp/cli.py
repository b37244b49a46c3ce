"""Command-line front end: generate, recognize, formulate, solve, audit, bench.

Every analysis subcommand emits one JSON report on standard output (schema
in the README); ``bench`` emits CSV and ``gen``/``matrix sp``/``matrix sc``
emit the plain text formats.  Exit status: 0 on success, 2 on malformed
input or contradictory parameters, 3 when ``--audit --strict`` detects a
mismatch against the brute-force oracle, 4 on an internal failure (any other
exception), which prints ``{"error": "<ExceptionType>: <message>"}`` on
standard output instead of a traceback.  Rationals are serialized as
``p/q`` strings.  Reports are byte-identical across identical invocations
except for the ``timings`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import model, oracle, structure
from .formulate import (
    OwaVector,
    RuleSpec,
    ScoringVector,
    cc_ip,
    egalitarian_solve,
    owa_ip,
    pav_ip,
    young_ip,
)
from .rationals import parse_rat, rat_str
from .simplex import solve_ip

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Input or parameter problem; maps to exit status 2."""


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_weights(spec: str, m: int) -> ScoringVector:
    if spec == "borda":
        return ScoringVector.borda(m)
    try:
        return ScoringVector(tuple(parse_rat(tok) for tok in spec.split(",")))
    except ValueError as exc:
        raise CliError(f"bad --weights {spec!r}: {exc}") from exc


def _parse_owa(spec: str, k: int) -> OwaVector:
    if spec == "harmonic":
        return OwaVector.harmonic(k)
    if spec == "constant":
        return OwaVector.constant(k)
    try:
        vec = OwaVector(tuple(parse_rat(tok) for tok in spec.split(",")))
    except ValueError as exc:
        raise CliError(f"bad --owa {spec!r}: {exc}") from exc
    if len(vec) != k:
        raise CliError(f"--owa has length {len(vec)}, expected k={k}")
    return vec


def _recognition_fields(election) -> dict:
    if isinstance(election, model.ApprovalProfile):
        axis = structure.is_candidate_interval(election)
        return {"candidate_interval": list(axis.ordering) if axis else None}
    axis = structure.is_single_peaked(election)
    fields = {"single_peaked": list(axis.ordering) if axis else None}
    try:
        ordering = structure.is_single_crossing(election)
    except ValueError:  # weak orders: pairwise matrix undefined
        ordering = None
    fields["single_crossing"] = list(ordering) if ordering else None
    return fields


def _solve_fields(report) -> dict:
    fields = {
        "status": report.final.status,
        "lp_status": report.lp.status,
        "lp_objective": rat_str(report.lp.objective) if report.lp.objective is not None else None,
        "lp_integral": report.lp_integral,
        "lp_pivots": report.lp.pivots,
        "branch_nodes": report.branch_nodes,
        "objective": rat_str(report.final.objective) if report.final.objective is not None else None,
    }
    if report.extracted is not None:
        if report.extracted.committee is not None:
            fields["committee"] = sorted(report.extracted.committee)
        if report.extracted.deleted_voters is not None:
            fields["deleted_voters"] = sorted(report.extracted.deleted_voters)
    return fields


def _rule_fields(rule: RuleSpec) -> dict:
    return {
        "kind": rule.kind,
        "k": rule.k,
        "weights": [rat_str(w) for w in rule.weights.entries] if rule.weights else None,
        "owa": [rat_str(a) for a in rule.owa.entries] if rule.owa else None,
    }


def _emit(report: dict, started_ns: int) -> None:
    report["timings"] = {"total_micros": (time.perf_counter_ns() - started_ns) // 1000}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _load_election(args, *, need: str):
    """Read and parse the input file; ``need`` is 'ranked', 'approval' or 'any'.

    Ranked rules accept approval input by reading ballots as dichotomous
    weak orders; approval rules cannot accept ranked input.
    """
    text = _read_input(args.input)
    election = model.parse_profile(text, format=args.format)
    if need == "approval" and args.format != "approval":
        raise CliError("this rule needs approval ballots (--format approval)")
    if need == "ranked" and isinstance(election, model.ApprovalProfile):
        election = election.to_profile()
    return text, election


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.kind == "sp":
        profile, certificate = model.generate_single_peaked(args.m, args.n, args.seed)
        hidden = list(certificate.ordering)
    elif args.kind == "sc":
        profile, ordering = model.generate_single_crossing(args.m, args.n, args.seed)
        hidden = list(ordering)
    elif args.kind == "ci":
        profile, certificate = model.generate_candidate_interval(args.m, args.n, args.seed)
        hidden = list(certificate.ordering)
    else:
        profile = model.generate_random_linear(args.m, args.n, args.seed)
        hidden = None
    text = model.serialize_profile(profile)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        summary = {
            "command": "gen",
            "kind": args.kind,
            "m": args.m,
            "n": args.n,
            "seed": args.seed,
            "hidden_structure": hidden,
            "out": args.out,
            "input_digest": _digest(text),
        }
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    started = time.perf_counter_ns()
    text = _read_input(args.input)
    election = model.parse_profile(text, format=args.format)
    report = {
        "command": "recognize",
        "input_digest": _digest(text),
        "format": args.format,
        "seed": None,
    }
    report.update(_recognition_fields(election))
    _emit(report, started)
    return EXIT_OK


def _build_rule_and_instance(args, election):
    if args.rule == "pav":
        owa = _parse_owa(args.owa, args.k)
        rule = RuleSpec("pav", args.k, owa=owa)
        inst = pav_ip(election, owa, args.k)
    elif args.rule == "cc":
        weights = _parse_weights(args.weights, election.m)
        rule = RuleSpec("cc", args.k, weights=weights)
        inst = cc_ip(election, weights, args.k)
    else:
        weights = _parse_weights(args.weights, election.m)
        owa = _parse_owa(args.owa, args.k)
        rule = RuleSpec("owa", args.k, weights=weights, owa=owa)
        inst = owa_ip(election, weights, owa, args.k)
    return rule, inst


def _cmd_solve(args) -> int:
    started = time.perf_counter_ns()
    need = "approval" if args.rule == "pav" else "ranked"
    text, election = _load_election(args, need=need)
    if args.k > election.m:
        raise CliError(f"k={args.k} exceeds the number of alternatives ({election.m})")
    rule, inst = _build_rule_and_instance(args, election)
    report = {
        "command": "solve",
        "input_digest": _digest(text),
        "format": args.format,
        "rule": _rule_fields(rule),
        "recognition": _recognition_fields(election),
        "seed": None,
        "warnings": [],
    }
    solve_report = solve_ip(inst)
    report["solve"] = _solve_fields(solve_report)
    mismatch = False
    if args.audit:
        best = oracle.brute_force_committee(rule, election)
        solved = solve_report.extracted.committee if solve_report.extracted else None
        match = (
            solve_report.final.status == "optimal"
            and solve_report.final.objective == best.best_value
            and solved in best.argmax
        )
        report["audit"] = {
            "oracle_value": rat_str(best.best_value),
            "optimal_committees": sorted(sorted(c) for c in best.argmax),
            "match": match,
        }
        mismatch = not match
        if mismatch:
            report["warnings"].append("solver disagrees with the brute-force oracle")
    _emit(report, started)
    return EXIT_MISMATCH if (mismatch and args.strict) else EXIT_OK


def _cmd_young(args) -> int:
    started = time.perf_counter_ns()
    text, election = _load_election(args, need="ranked")
    if args.candidate not in election.alternatives:
        raise CliError(f"unknown candidate {args.candidate!r}")
    report = {
        "command": "young",
        "input_digest": _digest(text),
        "format": args.format,
        "candidate": args.candidate,
        "recognition": _recognition_fields(election),
        "seed": None,
        "warnings": [],
    }
    solve_report = solve_ip(young_ip(election, args.candidate))
    report["solve"] = _solve_fields(solve_report)
    if solve_report.final.status == "optimal":
        score = election.n - int(solve_report.final.objective)
    else:
        score = 0
        report["warnings"].append("score undefined; by convention 0")
    report["young_score"] = score
    mismatch = False
    if args.audit:
        oracle_score, witness = oracle.young_score_bruteforce(election, args.candidate)
        match = score == oracle_score
        report["audit"] = {
            "oracle_score": oracle_score,
            "oracle_witness": sorted(witness),
            "match": match,
        }
        mismatch = not match
        if mismatch:
            report["warnings"].append(
                "formulation gap: deletions implied by the program do not "
                "produce a subprofile with the candidate as strict Condorcet winner"
            )
    _emit(report, started)
    return EXIT_MISMATCH if (mismatch and args.strict) else EXIT_OK


def _cmd_egal(args) -> int:
    started = time.perf_counter_ns()
    need = "approval" if args.rule == "pav" else "ranked"
    text, election = _load_election(args, need=need)
    if args.k > election.m:
        raise CliError(f"k={args.k} exceeds the number of alternatives ({election.m})")
    if args.rule == "pav":
        rule = RuleSpec("pav", args.k, owa=_parse_owa(args.owa, args.k))
    else:
        rule = RuleSpec("cc", args.k, weights=_parse_weights(args.weights, election.m))
    result = egalitarian_solve(election, rule)
    report = {
        "command": "egal",
        "input_digest": _digest(text),
        "format": args.format,
        "rule": _rule_fields(rule),
        "recognition": _recognition_fields(election),
        "seed": None,
        "warnings": [],
        "egalitarian": {
            "best_level": rat_str(result.best_level),
            "committee": sorted(result.committee),
            "all_relaxations_integral": result.all_relaxations_integral(),
            "probes": [
                {
                    "level": rat_str(level),
                    "status": rep.final.status,
                    "lp_integral": rep.lp_integral if rep.lp.status == "optimal" else None,
                }
                for level, rep in result.probes
            ],
        },
    }
    mismatch = False
    if args.audit:
        best = oracle.brute_force_egalitarian(rule, election)
        match = (
            best.best_value == result.best_level
            and result.committee in best.argmax
        )
        report["audit"] = {
            "oracle_value": rat_str(best.best_value),
            "match": match,
        }
        mismatch = not match
        if mismatch:
            report["warnings"].append("solver disagrees with the brute-force oracle")
    _emit(report, started)
    return EXIT_MISMATCH if (mismatch and args.strict) else EXIT_OK


def _cmd_matrix(args) -> int:
    started = time.perf_counter_ns()
    if args.matrix_command in ("sp", "sc"):
        text = _read_input(args.input)
        profile = model.parse_profile(text, format="ranked")
        if args.matrix_command == "sp":
            matrix = structure.build_sp_matrix(profile)
        else:
            matrix = structure.build_sc_matrix(profile)
        sys.stdout.write(structure.serialize_matrix(matrix))
        return EXIT_OK
    text = _read_input(args.input)
    signed = structure.parse_matrix(text)
    if args.matrix_command == "c1p":
        if any(v < 0 for row in signed.entries for v in row):
            raise CliError("consecutive-ones test needs a 0/1 matrix")
        binary = structure.BinaryMatrix(signed.entries, signed.row_labels, signed.col_labels)
        perm = structure.has_c1p(binary)
        report = {
            "command": "matrix-c1p",
            "input_digest": _digest(text),
            "c1p": perm is not None,
            "permutation": list(perm) if perm is not None else None,
            "seed": None,
        }
        _emit(report, started)
        return EXIT_OK
    result = structure.is_totally_unimodular(signed, row_budget=args.budget)
    report = {
        "command": "matrix-tu",
        "input_digest": _digest(text),
        "result": result.kind,
        "witness": None,
        "seed": None,
    }
    if result.kind == "not_tu":
        report["witness"] = {
            "rows": list(result.witness_rows),
            "cols": list(result.witness_cols),
            "det": result.witness_det,
        }
    _emit(report, started)
    return EXIT_OK


_BENCH_RULES = {
    "sp": ("cc", "owa-harmonic", "owa-constant"),
    "ci": ("pav",),
    "sc": ("young",),
    "random": ("cc", "pav", "owa-harmonic"),
}


def _bench_trial(kind: str, rule_name: str, m: int, n: int, k: int, seed: int):
    if kind == "sp":
        election, _ = model.generate_single_peaked(m, n, seed)
    elif kind == "ci":
        election, _ = model.generate_candidate_interval(m, n, seed)
    elif kind == "sc":
        election, _ = model.generate_single_crossing(m, n, seed)
    else:
        if rule_name == "pav":
            election, _ = model.generate_candidate_interval(m, n, seed)
        else:
            election = model.generate_random_linear(m, n, seed)
    if rule_name == "cc":
        inst = cc_ip(election, ScoringVector.borda(m), k)
    elif rule_name == "pav":
        inst = pav_ip(election, OwaVector.harmonic(k), k)
    elif rule_name == "owa-harmonic":
        inst = owa_ip(election, ScoringVector.borda(m), OwaVector.harmonic(k), k)
    elif rule_name == "owa-constant":
        inst = owa_ip(election, ScoringVector.borda(m), OwaVector.constant(k), k)
    else:
        inst = young_ip(election, election.alternatives[seed % m])
    return solve_ip(inst)


def _cmd_bench(args) -> int:
    import random as _random

    if args.k < 0:
        raise CliError(f"--k must be non-negative, got {args.k}")
    m_min = max(2, args.k)
    if args.m_max < m_min:
        raise CliError(f"--m-max must be at least {m_min}, got {args.m_max}")
    if args.n_max < 1:
        raise CliError(f"--n-max must be at least 1, got {args.n_max}")
    rng = _random.Random(args.seed)
    rules = _BENCH_RULES[args.kind]
    sys.stdout.write("m,n,k,rule,lp_integral,pivots,branch_nodes,micros\n")
    for trial in range(args.trials):
        m = rng.randint(m_min, args.m_max)
        n = rng.randint(1, args.n_max)
        k = args.k if args.k else min(m, rng.randint(2, 3))
        rule_name = rules[trial % len(rules)]
        trial_seed = args.seed * 100003 + trial
        t0 = time.perf_counter_ns()
        report = _bench_trial(args.kind, rule_name, m, n, k, trial_seed)
        micros = (time.perf_counter_ns() - t0) // 1000
        sys.stdout.write(
            f"{m},{n},{k},{rule_name},{str(report.lp_integral).lower()},"
            f"{report.lp.pivots},{report.branch_nodes},{micros}\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common_solve_flags(sub):
    sub.add_argument("--input", required=True, help="profile file")
    sub.add_argument("--format", choices=("ranked", "approval"), default="ranked")
    sub.add_argument("--audit", action="store_true", help="compare against brute force")
    sub.add_argument("--strict", action="store_true", help="exit 3 on oracle mismatch")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votelp",
        description="Committee selection and deletion scores via exact LP relaxations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a structured profile")
    gen.add_argument("--kind", choices=("sp", "sc", "ci", "random"), required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="write the profile here instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    rec = commands.add_parser("recognize", help="structure recognition with certificates")
    rec.add_argument("--input", required=True)
    rec.add_argument("--format", choices=("ranked", "approval"), default="ranked")
    rec.set_defaults(func=_cmd_recognize)

    solve = commands.add_parser("solve", help="compute a winning committee")
    solve.add_argument("--rule", choices=("cc", "pav", "owa"), required=True)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--weights", default="borda", help="'borda' or comma rationals")
    solve.add_argument("--owa", default="harmonic", help="'harmonic', 'constant' or comma rationals")
    _add_common_solve_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    young = commands.add_parser("young", help="deletion score for one candidate")
    young.add_argument("--candidate", required=True)
    _add_common_solve_flags(young)
    young.set_defaults(func=_cmd_young)

    egal = commands.add_parser("egal", help="egalitarian (max-min) committee")
    egal.add_argument("--rule", choices=("cc", "pav"), required=True)
    egal.add_argument("--k", type=int, required=True)
    egal.add_argument("--weights", default="borda")
    egal.add_argument("--owa", default="harmonic")
    _add_common_solve_flags(egal)
    egal.set_defaults(func=_cmd_egal)

    matrix = commands.add_parser("matrix", help="matrix-level structure tests")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)
    for name, needs_budget in (("c1p", False), ("tu", True), ("sp", False), ("sc", False)):
        sub = matrix_sub.add_parser(name)
        sub.add_argument("--input", required=True)
        if needs_budget:
            sub.add_argument("--budget", type=int, default=16)
        sub.set_defaults(func=_cmd_matrix)

    bench = commands.add_parser("bench", help="seeded benchmark trials as CSV")
    bench.add_argument("--kind", choices=("sp", "ci", "sc", "random"), required=True)
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--k", type=int, default=0, help="fixed committee size (default: random 2..3)")
    bench.add_argument("--m-max", type=int, default=8)
    bench.add_argument("--n-max", type=int, default=20)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "strict", False) and not getattr(args, "audit", False):
        parser.error("--strict requires --audit")
    try:
        return args.func(args)
    except (CliError, model.ProfileFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:  # internal failure: a JSON error, not a traceback
        error = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
