"""votelp benchmark: a closed loop over a seeded instance stream.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload tu-root --seed 1 --seconds 30 --trace 0

One client, one process, no extra threads.  Each op takes one generated
input from text (or a file path) to an answer; the loop runs ops back to back
until ``--seconds`` have passed.  Every answer is then checked, against
``votelp.oracle`` where it has a reference.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass, together with the tracing overhead
measured by replaying the same ops untraced.

The package is imported from ``src/`` of the current directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import bench_trace
import bench_workloads
from bench_workloads import WORKLOADS, Oracle, Workload

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "verified_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "model.parse_s": "s",
    "structure.recognize_s": "s",
    "structure.recognize_errors": "count",
    "structure.certified_frac": "fraction",
    "formulate.build_s": "s",
    "formulate.lp_vars": "count",
    "formulate.lp_rows": "count",
    "formulate.lp_nonzeros": "count",
    "formulate.egal_probes": "count",
    "simplex.root_lp_s": "s",
    "simplex.root_pivots": "count",
    "simplex.us_per_pivot": "us",
    "simplex.root_integral_frac": "fraction",
    "simplex.bnb_s": "s",
    "simplex.bnb_nodes": "count",
    "simplex.lp_solves": "count",
    "simplex.total_pivots": "count",
    "cli.self_s": "s",
    "oracle.check_s": "s",
    "trace.ops": "count",
    "trace.instances_per_s_delta": "1/s",
}


class SourceMissing(Exception):
    """The checkout has no importable ``src/votelp``."""


class OpTimeout(BaseException):
    """Raised by the alarm when an op exceeds the workload's time limit.

    A BaseException so no handler inside the package swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def source_dir(root: Path) -> Path:
    src = (root / "src").resolve()
    if not (src / "votelp" / "__init__.py").is_file():
        raise SourceMissing(f"no votelp package under {src}")
    return src


def import_votelp(root: Path):
    """Import ``votelp`` (and ``votelp.cli``) freshly from ``root/src``."""
    src = source_dir(root)
    for name in [n for n in sys.modules if n == "votelp" or n.startswith("votelp.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    votelp = importlib.import_module("votelp")
    importlib.import_module("votelp.cli")
    if src not in Path(votelp.__file__).resolve().parents:
        raise SourceMissing(f"votelp imported from {votelp.__file__}, not {src}")
    return votelp


@dataclass
class Outcome:
    inst: object
    latency: float
    answer: object
    error: str | None  # exception name, "timeout", or "wrong answer"


def run_ops(votelp, workload: Workload, pool, *, seconds=None, count=None, tracer=None):
    """Closed loop: ops back to back until ``seconds`` pass or ``count`` ops
    ran.  Returns the outcomes and the loop's wall time."""
    op = bench_workloads.cli_op if workload.path == "cli" else bench_workloads.library_op
    outcomes = []
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds) if count is None else (i < count):
        inst = pool[i % len(pool)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
            try:
                answer = op(votelp, inst)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            error = None
        except OpTimeout:
            answer, error = None, "timeout"
        except Exception as exc:  # any raise is a failed op, counted by kind
            answer, error = None, type(exc).__name__
        outcomes.append(Outcome(inst, time.perf_counter() - t0, answer, error))
        i += 1
    return outcomes, time.perf_counter() - start


def verify(oracle: Oracle, outcomes, tracer=None) -> None:
    """Oracle gate, outside the timed regions: mark wrong answers failed."""
    for i, out in enumerate(outcomes):
        if out.error is not None:
            continue
        t0 = time.perf_counter()
        ok = oracle.check(out.inst, out.answer)
        if tracer is not None:
            tracer.op = i
            tracer.span("oracle.check", t0, time.perf_counter())
        if not ok:
            out.error = "wrong answer"


def _percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: Workload, outcomes, wall: float, setup_s: float) -> dict:
    verified = sum(1 for o in outcomes if o.error is None)
    # a failed op ranks above every success, at the per-op limit
    latencies = [o.latency if o.error is None else workload.limit_s for o in outcomes]
    return {
        "setup_s": setup_s,
        "instances_per_s": verified / wall,
        "latency_p50_s": _percentile(latencies, 50),
        "latency_p90_s": _percentile(latencies, 90),
        "verified_frac": verified / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    source_dir(root)
    workdir = root / ".bench_work" / f"{workload.name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def setup():
        t0 = time.perf_counter()
        votelp = import_votelp(root)
        pool = bench_workloads.generate(votelp, workload, seed, workdir)
        return time.perf_counter() - t0, votelp, pool

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        first_setup, votelp, pool = setup()
        oracle = Oracle(votelp)

        if not trace:
            outcomes, wall = run_ops(votelp, workload, pool, seconds=seconds)
            verify(oracle, outcomes)
            # the repeats run after the loop, so the median samples the
            # machine at more than one moment of the run
            setups = [first_setup] + [setup()[0] for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(workload, outcomes, wall, statistics.median(setups))
            units = END_TO_END_UNITS
        else:
            tracer = bench_trace.Tracer()
            tracer.install(votelp)
            try:
                outcomes, wall = run_ops(votelp, workload, pool, seconds=seconds / 2,
                                         tracer=tracer)
            finally:
                tracer.uninstall()
            replay, replay_wall = run_ops(votelp, workload, pool, count=len(outcomes))
            verify(oracle, outcomes, tracer)
            verify(oracle, replay)
            traced_ips = sum(o.error is None for o in outcomes) / wall
            untraced_ips = sum(o.error is None for o in replay) / replay_wall
            metrics = tracer.layer_metrics(len(outcomes))
            metrics["trace.ops"] = len(outcomes)
            metrics["trace.instances_per_s_delta"] = traced_ips - untraced_ips
            tracer.write(root / ".bench_work" / f"trace-{workload.name}-seed{seed}.jsonl")
            units = PER_LAYER_UNITS
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.error is not None]
    kinds = dict(Counter(o.error for o in failed))
    print(f"workload {workload.name} seed {seed}: {len(outcomes)} ops (the latency "
          f"percentiles' sample count), {len(failed)} failed {kinds}")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(Path.cwd(), WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
