"""Command-line front end: generate, recognize, formulate, solve, audit, bench.

Every analysis subcommand emits one JSON report on standard output (schema
in the README); ``bench`` emits CSV and ``gen``/``matrix sp``/``matrix sc``
emit the plain text formats.  Exit status: 0 on success, 2 on malformed
input or contradictory parameters, 3 when ``--audit --strict`` detects a
mismatch against the oracle, 4 on an internal failure (any other
exception), which prints ``{"error": "<ExceptionType>: <message>"}`` on
standard output instead of a traceback, and 141 (128 + SIGPIPE) when the
reader closes standard output early, with nothing on standard error.
Rationals are serialized as ``p/q`` strings.  Reports are byte-identical
across identical invocations except for the ``timings`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

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
from .simplex import solve_ip

# CPython's own SHA-256: importing hashlib maps OpenSSL, which the digest
# does not need
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class CliError(Exception):
    """Input or parameter problem; maps to exit status 2."""


def _digest(text: str) -> str:
    return _sha256(text.encode()).hexdigest()


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _rationals(spec: str) -> tuple:
    """The comma-separated rationals of a vector flag.  Exponent notation is
    refused before ``Fraction`` would build the power of ten it names."""
    tokens = [tok.strip() for tok in spec.split(",")]
    for tok in tokens:
        if "e" in tok.lower():
            raise ValueError(f"exponent notation is not accepted: {tok!r}")
    return tuple(Fraction(tok) for tok in tokens)


def _parse_weights(spec: str, m: int) -> ScoringVector:
    if spec == "borda":
        return ScoringVector.borda(m)
    try:
        return ScoringVector(_rationals(spec))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad --weights {spec!r}: {exc}") from exc


def _parse_owa(spec: str, k: int) -> OwaVector:
    if spec == "harmonic":
        return OwaVector.harmonic(k)
    if spec == "constant":
        return OwaVector.constant(k)
    try:
        vec = OwaVector(_rationals(spec))
    except (ValueError, ZeroDivisionError) as exc:
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
        "lp_objective": str(report.lp.objective) if report.lp.objective is not None else None,
        "lp_integral": report.lp_integral,
        "lp_pivots": report.lp.pivots,
        "branch_nodes": report.branch_nodes,
        "objective": str(report.final.objective) if report.final.objective is not None else None,
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
        "weights": [str(w) for w in rule.weights.entries] if rule.weights else None,
        "owa": [str(a) for a in rule.owa.entries] if rule.owa else None,
    }


def _emit(report: dict, started_ns: int) -> None:
    report["timings"] = {"total_micros": (time.perf_counter_ns() - started_ns) // 1000}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _load_election(args, *, need: str):
    """Read and parse the input file; ``need`` is 'ranked' or 'approval'.

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


_ORACLE_DISAGREES = "solver disagrees with the oracle"


def _rule(args, election) -> RuleSpec:
    """The committee rule that ``--rule``, ``--k``, ``--weights`` and ``--owa`` name."""
    if args.k > election.m:
        raise CliError(f"k={args.k} exceeds the number of alternatives ({election.m})")
    if args.rule == "pav":
        return RuleSpec("pav", args.k, owa=_parse_owa(args.owa, args.k))
    weights = _parse_weights(args.weights, election.m)
    if args.rule == "cc":
        return RuleSpec("cc", args.k, weights=weights)
    return RuleSpec("owa", args.k, weights=weights, owa=_parse_owa(args.owa, args.k))


def _committee_ip(election, rule: RuleSpec):
    if rule.kind == "pav":
        return pav_ip(election, rule.owa, rule.k)
    if rule.kind == "cc":
        return cc_ip(election, rule.weights, rule.k)
    return owa_ip(election, rule.weights, rule.owa, rule.k)


def _header(command: str, text: str, args, election, **fields) -> dict:
    """The fields every solving report shares, plus the command's own."""
    return {
        "command": command,
        "input_digest": _digest(text),
        "format": args.format,
        "recognition": _recognition_fields(election),
        "seed": None,
        "warnings": [],
        **fields,
    }


def _finish(report: dict, started_ns: int, args, audit: dict | None) -> int:
    """Attach the audit and its mismatch warning, emit the report, pick the exit status."""
    mismatch = audit is not None and not audit["match"]
    if audit is not None:
        report["audit"] = audit
    if mismatch:
        report["warnings"].append(_ORACLE_DISAGREES)
    _emit(report, started_ns)
    return EXIT_MISMATCH if (mismatch and args.strict) else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


_GENERATORS = {  # --kind -> seeded generator of (profile, hidden structure)
    "sp": model.generate_single_peaked,
    "sc": model.generate_single_crossing,
    "ci": model.generate_candidate_interval,
    "random": lambda m, n, seed: (model.generate_random_linear(m, n, seed), None),
}


def _generate(kind: str, m: int, n: int, seed: int):
    """The profile of a ``--kind`` and its hidden axis or crossing order as a
    list (None for random)."""
    profile, hidden = _GENERATORS[kind](m, n, seed)
    if isinstance(hidden, model.Axis):
        hidden = hidden.ordering
    return profile, None if hidden is None else list(hidden)


def _cmd_gen(args) -> int:
    profile, hidden = _generate(args.kind, args.m, args.n, args.seed)
    text = model.serialize_profile(profile)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
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


def _cmd_solve(args) -> int:
    started = time.perf_counter_ns()
    text, election = _load_election(args, need="approval" if args.rule == "pav" else "ranked")
    rule = _rule(args, election)
    inst = _committee_ip(election, rule)
    report = _header("solve", text, args, election, rule=_rule_fields(rule))
    solve_report = solve_ip(inst)
    report["solve"] = _solve_fields(solve_report)
    audit = None
    if args.audit:
        best = oracle.brute_force_committee(rule, election)
        solved = solve_report.extracted.committee if solve_report.extracted else None
        audit = {
            "oracle_value": str(best.best_value),
            "optimal_committees": sorted(sorted(c) for c in best.argmax),
            "match": (
                solve_report.final.status == "optimal"
                and solve_report.final.objective == best.best_value
                and solved in best.argmax
            ),
        }
    return _finish(report, started, args, audit)


def _cmd_young(args) -> int:
    started = time.perf_counter_ns()
    text, election = _load_election(args, need="ranked")
    if args.candidate not in election.alternatives:
        raise CliError(f"unknown candidate {args.candidate!r}")
    report = _header("young", text, args, election, candidate=args.candidate)
    solve_report = solve_ip(young_ip(election, args.candidate))
    report["solve"] = _solve_fields(solve_report)
    if solve_report.final.status == "optimal":
        score = election.n - int(solve_report.final.objective)
    else:
        score = 0
        report["warnings"].append("score undefined; by convention 0")
    report["young_score"] = score
    audit = None
    if args.audit:
        if election.n <= oracle.MAX_YOUNG_VOTERS:
            oracle_score, witness = oracle.young_score_bruteforce(election, args.candidate)
        elif (ordering := report["recognition"]["single_crossing"]) is None:
            raise CliError("too many voters for brute force; the profile is not single-crossing")
        else:  # the median-voter rule, which re-checks the ordering
            witness = oracle.young_block_median(election, ordering, args.candidate)
            oracle_score = len(witness)
        audit = {
            "oracle_score": oracle_score,
            "oracle_witness": sorted(witness),
            "match": score == oracle_score,
        }
    return _finish(report, started, args, audit)


def _cmd_egal(args) -> int:
    started = time.perf_counter_ns()
    text, election = _load_election(args, need="approval" if args.rule == "pav" else "ranked")
    rule = _rule(args, election)
    result = egalitarian_solve(election, rule)
    report = _header(
        "egal",
        text,
        args,
        election,
        rule=_rule_fields(rule),
        egalitarian={
            "best_level": str(result.best_level),
            "committee": sorted(result.committee),
            "all_relaxations_integral": result.all_relaxations_integral(),
            "probes": [
                {
                    "level": str(level),
                    "status": rep.final.status,
                    "lp_integral": rep.lp_integral if rep.lp.status == "optimal" else None,
                }
                for level, rep in result.probes
            ],
        },
    )
    audit = None
    if args.audit:
        best = oracle.brute_force_egalitarian(rule, election)
        audit = {
            "oracle_value": str(best.best_value),
            "match": best.best_value == result.best_level and result.committee in best.argmax,
        }
    return _finish(report, started, args, audit)


def _cmd_matrix(args) -> int:
    started = time.perf_counter_ns()
    if args.matrix_command == "tu" and args.budget < 0:
        raise CliError(f"--budget must be non-negative, got {args.budget}")
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
    # pav trials read interval ballots whatever the kind
    election, _ = _generate("ci" if rule_name == "pav" else kind, m, n, seed)
    if rule_name == "young":
        return solve_ip(young_ip(election, election.alternatives[seed % m]))
    rule_kind, _, owa = rule_name.partition("-")
    flags = argparse.Namespace(rule=rule_kind, k=k, weights="borda", owa=owa or "harmonic")
    return solve_ip(_committee_ip(election, _rule(flags, election)))


def _cmd_bench(args) -> int:
    import random as _random

    if args.trials < 0:
        raise CliError(f"--trials must be non-negative, got {args.trials}")
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


def _discard_stdout() -> None:
    """Point standard output's descriptor at the null device, so that the
    flush at interpreter exit does not fail on the closed pipe again.  An
    in-memory stream has no descriptor and is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "strict", False) and not getattr(args, "audit", False):
        parser.error("--strict requires --audit")
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except (CliError, model.ProfileFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:  # internal failure: a JSON error, not a traceback
        error = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
