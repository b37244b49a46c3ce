"""Span tracing around the package's public entry points.

Tracing lives entirely in the benchmark: ``Tracer.install`` rebinds each
entry point, in every loaded ``votelp`` module that holds it, to a wrapper
that records one span per call, and ``Tracer.uninstall`` puts the originals
back.  Spans stay in memory until the run ends.  ``layer_metrics`` derives
the per-layer numbers from them; a layer's self time is its spans' duration
minus the part covered by their child spans.

The first ``solve_lp`` under a ``solve_ip`` is the root relaxation; every
later one is a branch-and-bound node.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field

ENTRY_POINTS = (
    ("model", "parse_profile"),
    ("structure", "is_single_peaked"),
    ("structure", "is_single_crossing"),
    ("structure", "is_candidate_interval"),
    ("formulate", "cc_ip"),
    ("formulate", "owa_ip"),
    ("formulate", "pav_ip"),
    ("formulate", "young_ip"),
    ("formulate", "egalitarian_feasibility_ip"),
    ("formulate", "egalitarian_solve"),
    ("simplex", "solve_lp"),
    ("simplex", "solve_ip"),
    ("cli", "main"),
)

_BUILDERS = {"cc_ip", "owa_ip", "pav_ip", "young_ip", "egalitarian_feasibility_ip"}


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    error: str | None = None
    info: dict = field(default_factory=dict)


def _describe(fname: str, result) -> dict:
    """Counts read off an entry point's return value at the boundary."""
    if fname in _BUILDERS:
        return {
            "vars": result.num_vars,
            "rows": len(result.constraints),
            "nonzeros": sum(len(c.coeffs) for c in result.constraints),
        }
    if fname == "solve_lp":
        return {"pivots": result.pivots, "status": result.status}
    if fname == "solve_ip":
        return {"integral": result.lp_integral, "root": result.lp.status,
                "nodes": result.branch_nodes}
    if fname.startswith("is_"):
        return {"certified": result is not None}
    if fname == "egalitarian_solve":
        return {"probes": len(result.probes)}
    if fname == "main":
        return {"status": result}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._bound: list = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname: str, fname: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(qualname, time.perf_counter(),
                        parent=stack[-1] if stack else None, op=self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _describe(fname, result)
            return result

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span the benchmark timed itself (e.g. the oracle check)."""
        self.spans.append(Span(name, start, end, None, self.op))

    def install(self, votelp) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "votelp" or name.startswith("votelp."))]
        for modname, fname in ENTRY_POINTS:
            original = getattr(getattr(votelp, modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", fname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "op": s.op, "error": s.error, "info": s.info,
                }) + "\n")

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer numbers over ``ops`` traced operations: times are
        seconds per op, counts are per op unless named otherwise."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
                children.setdefault(s.parent, []).append(i)

        def self_time(prefix):
            return sum(s.end - s.start - child_time[i]
                       for i, s in enumerate(spans) if s.name.startswith(prefix))

        per_op = max(ops, 1)
        recog = [s for s in spans if s.name.startswith("structure.")]
        recog_ops = {s.op for s in recog}
        certified_ops = {s.op for s in recog if s.info.get("certified")}

        sizes: dict[int, tuple] = {}
        for s in spans:
            if s.name.split(".")[1] in _BUILDERS and s.info:
                cur = sizes.get(s.op, (0, 0, 0))
                new = (s.info["vars"], s.info["rows"], s.info["nonzeros"])
                sizes[s.op] = max(cur, new)
        egal_ops = {s.op for s in spans if s.name == "formulate.egalitarian_solve"}
        probes = sum(1 for s in spans if s.name == "formulate.egalitarian_feasibility_ip")

        lps = [s for s in spans if s.name == "simplex.solve_lp" and s.info]
        root_time = root_pivots = bnb_time = 0.0
        nodes = integral = optimal_roots = 0
        for i, s in enumerate(spans):
            if s.name != "simplex.solve_ip" or not s.info:
                continue
            kids = [spans[j] for j in children.get(i, ()) if spans[j].name == "simplex.solve_lp"]
            if kids:
                root_time += kids[0].end - kids[0].start
                root_pivots += kids[0].info.get("pivots", 0)
                bnb_time += sum(k.end - k.start for k in kids[1:])
            nodes += s.info["nodes"]
            if s.info["root"] == "optimal":
                optimal_roots += 1
                integral += bool(s.info["integral"])
        lp_time = sum(s.end - s.start for s in lps)
        pivots = sum(s.info["pivots"] for s in lps)

        def median_size(idx):
            return statistics.median(v[idx] for v in sizes.values()) if sizes else 0

        return {
            "model.parse_s": self_time("model.") / per_op,
            "structure.recognize_s": self_time("structure.") / per_op,
            "structure.recognize_errors": sum(1 for s in recog if s.error),
            "structure.certified_frac": len(certified_ops) / len(recog_ops) if recog_ops else 0.0,
            "formulate.build_s": self_time("formulate.") / per_op,
            "formulate.lp_vars": median_size(0),
            "formulate.lp_rows": median_size(1),
            "formulate.lp_nonzeros": median_size(2),
            "formulate.egal_probes": probes / len(egal_ops) if egal_ops else 0.0,
            "simplex.root_lp_s": root_time / per_op,
            "simplex.root_pivots": root_pivots / per_op,
            "simplex.us_per_pivot": lp_time / pivots * 1e6 if pivots else 0.0,
            "simplex.root_integral_frac": integral / optimal_roots if optimal_roots else 0.0,
            "simplex.bnb_s": bnb_time / per_op,
            "simplex.bnb_nodes": nodes / per_op,
            "simplex.lp_solves": len(lps) / per_op,
            "simplex.total_pivots": pivots / per_op,
            "cli.self_s": self_time("cli.") / per_op,
            "oracle.check_s": self_time("oracle.") / per_op,
        }
