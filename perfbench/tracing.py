"""Spans and counters recorded around calls into each pbcjones layer.

Tracing patches the module-level bindings that one layer uses to call
another (for example ``jones3d.project`` or ``cutoff.bracket``), so the
program itself is unchanged.  Each wrapped call records a span: name,
start, end and the span that caused it.  A span's self time is its
duration minus the time covered by its children.  Time spent in this
module's own bookkeeping is charged to no span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PER_LAYER_METRICS: List[Tuple[str, str]] = [
    ("geometry.project.calls", "count"),
    ("geometry.project.self_s", "s"),
    ("geometry.project.nongeneric", "count"),
    ("geometry.crossings_mean", "count"),
    ("geometry.crossings_max", "count"),
    ("diagram.terminal_graph.self_s", "s"),
    ("diagram.smooth.calls", "count"),
    ("diagram.smooth.self_s", "s"),
    ("diagram.distinct_ratio", "ratio"),
    ("bracket.calls", "count"),
    ("bracket.self_s", "s"),
    ("bracket.call_ms_p50", "ms"),
    ("bracket.call_ms_p99", "ms"),
    ("bracket.states", "count"),
    ("bracket.merges", "count"),
    ("bracket.merge_ratio", "ratio"),
    ("bracket.capped", "count"),
    ("jones3d.self_s", "s"),
    ("jones3d.dir_ms_p50", "ms"),
    ("jones3d.dir_ms_p99", "ms"),
    ("jones3d.dirs_used", "count"),
    ("jones3d.dirs_skipped", "count"),
    ("jones3d.retries", "count"),
    ("pbc.link.self_s", "s"),
    ("pbc.cell_curves.self_s", "s"),
    ("pbc.slk_p.calls", "count"),
    ("pbc.slk_p.self_s", "s"),
    ("pbc.slk_p.projections", "count"),
    ("cutoff.verify.self_s", "s"),
    ("cutoff.split_bracket.calls", "count"),
    ("cutoff.split_bracket.self_s", "s"),
    ("cutoff.states_enumerated", "count"),
    ("io_formats.read_trajectory.self_s", "s"),
    ("io_formats.select_interior_chains.self_s", "s"),
    ("io_formats.system_io.self_s", "s"),
    ("io_formats.report.self_s", "s"),
    ("io_formats.report.bytes", "bytes"),
    ("laurent.normalize.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
]

# Self time of these spans adds up to the layer's reported self_s.
SELF_TIME_SPANS: Dict[str, Tuple[str, ...]] = {
    "geometry.project.self_s": ("geometry.project",),
    "diagram.terminal_graph.self_s": ("diagram.terminal_graph",),
    "diagram.smooth.self_s": ("diagram.smooth",),
    "bracket.self_s": ("bracket",),
    "jones3d.self_s": ("jones3d.jones", "jones3d.direction"),
    "pbc.link.self_s": ("pbc.link",),
    "pbc.cell_curves.self_s": ("pbc.cell_curves",),
    "pbc.slk_p.self_s": ("pbc.slk_p",),
    "cutoff.verify.self_s": ("cutoff.verify",),
    "cutoff.split_bracket.self_s": ("cutoff.split_bracket",),
    "io_formats.read_trajectory.self_s": ("io_formats.read_trajectory",),
    "io_formats.select_interior_chains.self_s": ("io_formats.select_interior_chains",),
    "io_formats.system_io.self_s": ("io_formats.system_io",),
    "io_formats.report.self_s": ("io_formats.report",),
    "laurent.normalize.self_s": ("laurent.normalize",),
    "cli.self_s": ("cli.main",),
}

# Exact work counts of one pass; every pass must repeat the first.
PASS_COUNTERS = (
    "geometry.project.calls", "geometry.project.nongeneric", "geometry.crossings_max",
    "geometry.crossings_sum", "diagram.smooth.calls", "diagram.distinct", "bracket.calls",
    "bracket.states", "bracket.merges", "bracket.capped", "jones3d.dirs_used",
    "jones3d.dirs_skipped", "jones3d.retries", "pbc.slk_p.calls", "pbc.slk_p.projections",
    "cutoff.split_bracket.calls", "cutoff.states_enumerated", "io_formats.report.bytes",
)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


class Tracer:
    """Span recorder for one traced run, reset per pass."""

    def __init__(self):
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self.pass_index = 0
        self.spans: List[tuple] = []  # (pass, id, parent, name, start, end)
        self.bracket_ms: List[float] = []
        self.direction_ms: List[float] = []
        self.start_pass()

    # -- per-pass state -------------------------------------------------

    def start_pass(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._diagram_keys = set()

    def pass_counters(self) -> Dict[str, int]:
        c = dict(self.counts)
        c["diagram.distinct"] = len(self._diagram_keys)
        return {k: c.get(k, 0) for k in PASS_COUNTERS}

    def pass_self_times(self) -> Dict[str, float]:
        return {metric: sum(self.self_s.get(s, 0.0) for s in spans)
                for metric, spans in SELF_TIME_SPANS.items()}

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: Optional[str], fn: Callable, on_result=None, on_error=None,
              samples: Optional[List[float]] = None) -> Callable:
        """Wrap fn so each call records a span (or only runs hooks when name is None)."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            if name is not None:
                self._next_id += 1
                stack.append([0.0, self._next_id])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = clock()
                self._close(name, t0, t1, samples)
                if on_error is not None:
                    on_error(exc, args)
                self._charge_parent(name, t0, t1)
                raise
            t1 = clock()
            self._close(name, t0, t1, samples)
            if on_result is not None:
                on_result(out, args)
            self._charge_parent(name, t0, t1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, t0, t1, samples) -> None:
        if name is None:
            return
        child_s, span_id = self._stack.pop()
        parent_id = self._stack[-1][1] if self._stack else 0
        self.counts[name + ".calls"] += 1
        self.self_s[name] += (t1 - t0) - child_s
        if samples is not None:
            samples.append((t1 - t0) * 1e3)
        self.spans.append((self.pass_index, span_id, parent_id, name, t0, t1))

    def _charge_parent(self, name, t0, t1) -> None:
        """Count a span's full cost, hooks included, as its parent's child time.

        A wrapper without a span charges only its hooks: the spans it
        contains already charged the parent themselves.
        """
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - (t0 if name is not None else t1)

    def patch(self, owner, attr: str, name: Optional[str], **hooks) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the call sites -------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's own binding of the functions it calls."""
        from pbcjones import cli, cutoff, io_formats, jones3d, pbc
        from pbcjones.diagram import Diagram
        from pbcjones.errors import NonGenericDirectionError, StateSumTooLargeError

        # the package attribute ``pbcjones.bracket`` is the function
        bracket_mod = sys.modules["pbcjones.bracket"]

        def counts(key: str, amount: int = 1) -> None:
            self.counts[key] += amount

        def projected(diagram, args):
            n = len(diagram.crossings)
            counts("geometry.crossings_sum", n)
            self.counts["geometry.crossings_max"] = max(self.counts["geometry.crossings_max"], n)

        def nongeneric(exc, args):
            if isinstance(exc, NonGenericDirectionError):
                counts("geometry.project.nongeneric")

        def bracketed(res, args):
            counts("bracket.states", res.states_expanded)
            counts("bracket.merges", res.cache_hits)
            self._note_diagram(args[0])

        def capped(exc, args):
            if isinstance(exc, StateSumTooLargeError):
                counts("bracket.capped")
            self._note_diagram(args[0])

        def direction(out, args):
            counts("jones3d.dirs_skipped" if out[0] is None else "jones3d.dirs_used")
            counts("jones3d.retries", out[1])

        def verified(rep, args):
            counts("cutoff.states_enumerated", rep.states_enumerated)

        def reported(text, args):
            counts("io_formats.report.bytes", len(text.encode("utf-8")))

        def slk_projection(out, args):
            counts("pbc.slk_p.projections")

        self.patch(jones3d, "project", "geometry.project", on_result=projected,
                   on_error=nongeneric)
        self.patch(bracket_mod, "terminal_graph", "diagram.terminal_graph")
        self.patch(Diagram, "smooth", "diagram.smooth")
        for owner in (jones3d, cutoff):
            self.patch(owner, "bracket", "bracket", on_result=bracketed, on_error=capped,
                       samples=self.bracket_ms)
        self.patch(jones3d, "_direction_term", "jones3d.direction", on_result=direction,
                   samples=self.direction_ms)
        for owner in (jones3d, pbc, cli):
            self.patch(owner, "jones", "jones3d.jones")
        self.patch(pbc, "project_generic", None, on_result=slk_projection)
        self.patch(cutoff, "project_generic", None)
        for owner in (pbc, cutoff, cli):
            self.patch(owner, "minimal_periodic_link", "pbc.link")
        for owner in (pbc, cli):
            self.patch(owner, "cell_curves", "pbc.cell_curves")
        for owner in (pbc, cutoff):
            self.patch(owner, "slk_p", "pbc.slk_p")
        self.patch(cutoff, "verify_cutoff_factorization", "cutoff.verify", on_result=verified)
        self.patch(cutoff, "split_bracket", "cutoff.split_bracket")
        self.patch(cli, "read_trajectory", "io_formats.read_trajectory")
        self.patch(cli, "select_interior_chains", "io_formats.select_interior_chains")
        self.patch(cli, "read_system", "io_formats.system_io")
        self.patch(cli, "write_system", "io_formats.system_io")
        self.patch(io_formats.AnalysisReport, "to_json", "io_formats.report", on_result=reported)
        self.patch(pbc, "divide_by_d_power", "laurent.normalize")
        self.patch(cli, "main", "cli.main")

    def _note_diagram(self, diagram) -> None:
        self._diagram_keys.add((diagram.components, tuple(sorted(diagram.crossings.items()))))

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": p, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def layer_metrics(counters: Dict[str, int], self_times: List[Dict[str, float]],
                  tracer: Tracer, traced_solve: List[float],
                  untraced_solve: List[float]) -> Dict[str, dict]:
    """Per-layer metrics from one pass's counters and every traced pass's times."""
    c = counters
    values: Dict[str, float] = {
        "geometry.project.calls": c["geometry.project.calls"],
        "geometry.project.nongeneric": c["geometry.project.nongeneric"],
        "geometry.crossings_mean": c["geometry.crossings_sum"] / max(
            1, c["geometry.project.calls"] - c["geometry.project.nongeneric"]),
        "geometry.crossings_max": c["geometry.crossings_max"],
        "diagram.smooth.calls": c["diagram.smooth.calls"],
        "diagram.distinct_ratio": c["diagram.distinct"] / max(1, c["bracket.calls"]),
        "bracket.calls": c["bracket.calls"],
        "bracket.call_ms_p50": _percentile(tracer.bracket_ms, 50),
        "bracket.call_ms_p99": _percentile(tracer.bracket_ms, 99),
        "bracket.states": c["bracket.states"],
        "bracket.merges": c["bracket.merges"],
        "bracket.merge_ratio": c["bracket.merges"] / max(1, c["bracket.states"] + c["bracket.merges"]),
        "bracket.capped": c["bracket.capped"],
        "jones3d.dir_ms_p50": _percentile(tracer.direction_ms, 50),
        "jones3d.dir_ms_p99": _percentile(tracer.direction_ms, 99),
        "jones3d.dirs_used": c["jones3d.dirs_used"],
        "jones3d.dirs_skipped": c["jones3d.dirs_skipped"],
        "jones3d.retries": c["jones3d.retries"],
        "pbc.slk_p.calls": c["pbc.slk_p.calls"],
        "pbc.slk_p.projections": c["pbc.slk_p.projections"],
        "cutoff.split_bracket.calls": c["cutoff.split_bracket.calls"],
        "cutoff.states_enumerated": c["cutoff.states_enumerated"],
        "io_formats.report.bytes": c["io_formats.report.bytes"],
        "trace.solve_s": statistics.median(traced_solve),
        "trace.overhead_s": statistics.median(traced_solve) - statistics.median(untraced_solve),
    }
    for metric in SELF_TIME_SPANS:
        values[metric] = statistics.median(t[metric] for t in self_times)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
