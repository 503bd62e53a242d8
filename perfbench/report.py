"""Metrics of one run: end-to-end from the client ledger, per layer from spans.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from a traced run: the loop alternates blocks of steps with tracing on and
off, per-layer figures are normalised per traced loop step (``/step``
units), and ``trace.overhead`` compares the two kinds of block.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from perfbench import tracer
from perfbench.workloads import Run

#: ``(name, unit, better)`` of every end-to-end metric, in report order.
#: ``error_rate`` is computed and printed but is not one of them: over ten
#: seeds its spread reached the largest bound the benchmark may set (one EM
#: fit in a few lands on a much worse labelling of a column).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tasks_p50_ms", "ms", "lower"),
    ("tasks_p90_ms", "ms", "lower"),
    ("answers_p50_ms", "ms", "lower"),
    ("answers_p90_ms", "ms", "lower"),
    ("estimates_p50_ms", "ms", "lower"),
    ("answers_per_s", "1/s", "higher"),
    ("mnad", "ratio", "lower"),
    ("restart_s", "s", "lower"),
    ("server_peak_rss_mb", "MB", "lower"),
]


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> Optional[float]:
    """Inclusive-method quantile ``q`` in (0, 1); ``None`` without samples."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


#: Span names whose time the layer split files under each layer group.
GROUPS = ("service", "engine", "core", "trace")


def end_to_end(run: Run) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for every end-to-end metric."""
    ledger = run.ledger
    out = {}

    def latency(name, op, q):
        values = ledger.latencies(op)
        value = percentile(values, q)
        out[name] = (float("nan") if value is None else value * 1e3, "ms", len(values))

    out["setup_s"] = (median(run.setup_s), "s", len(run.setup_s))
    latency("tasks_p50_ms", "tasks", 0.5)
    latency("tasks_p90_ms", "tasks", 0.9)
    latency("answers_p50_ms", "answers", 0.5)
    latency("answers_p90_ms", "answers", 0.9)
    latency("estimates_p50_ms", "estimates", 0.5)
    rate = run.answers_accepted / run.loop_s if run.loop_s > 0 else float("nan")
    out["answers_per_s"] = (rate, "1/s", run.answers_accepted)
    for key in ("error_rate", "mnad"):
        values = [q[key] for q in run.quality]
        out[key] = (statistics.fmean(values) if values else float("nan"), "ratio", len(values))
    out["restart_s"] = (median(run.restart_s), "s", len(run.restart_s))
    out["server_peak_rss_mb"] = (run.peak_rss_mb, "MB", 1)
    return out


def _load(path) -> Tuple[List[tracer.Span], List[str]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return tracer.spans_from_json(document["spans"]), document["absent"]


class LayerReport:
    """Per-layer metrics of a traced run (``--trace 1``)."""

    def __init__(self, run: Run) -> None:
        self.run = run
        spans, self.absent = _load(run.trace_files["loop"])
        self.spans = spans
        self.selfs = tracer.self_times(spans)
        self.table = tracer.aggregate(spans, self.selfs)
        traced = [b for b in run.blocks if b.traced]
        plain = [b for b in run.blocks if not b.traced]
        self.steps = sum(b.steps for b in traced)
        self.overhead = float("nan")
        if traced and plain and sum(b.steps for b in plain):
            per_traced = sum(b.seconds for b in traced) / self.steps
            per_plain = sum(b.seconds for b in plain) / sum(b.steps for b in plain)
            self.overhead = per_traced / per_plain - 1.0
        self.request_roots = {s.id: s for s in spans if tracer.is_request_root(s)}
        self.app_by_request = {
            s.attrs.get("request"): s for s in self.request_roots.values() if s.attrs
        }
        self.recovery = [
            self._recovery(path)
            for key, path in sorted(run.trace_files.items())
            if key.startswith("restart-")
        ]

    def _recovery(self, path) -> Tuple[float, float]:
        """``(recover_all wall, storage read self-time under it)`` of one restart."""
        spans, _absent = _load(path)
        selfs = tracer.self_times(spans)
        roots = {s.id for s in spans if s.name == "service.registry.recover_all"}
        total = sum(s.duration for s in spans if s.id in roots)
        reads = sum(
            selfs[s.id]
            for s in spans
            if s.root in roots and s.name in ("service.storage.read", "service.storage.open")
        )
        return total, reads

    def per_step(self, value: float) -> float:
        return value / self.steps if self.steps else float("nan")

    def row(self, name: str) -> dict:
        return self.table.get(name) or {
            "calls": 0, "self_s": 0.0, "wall_s": 0.0, "request_self_s": 0.0,
            "background_self_s": 0.0, "background_calls": 0, "attrs": {},
        }

    def transport_s(self) -> float:
        total = 0.0
        for _op, request_id, seconds in self.run.ledger.timings:
            span = self.app_by_request.get(request_id)
            if span is not None:
                total += seconds - span.duration
        return total

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        step = self.per_step

        def calls(metric, name):
            out[metric] = (step(self.row(name)["calls"]), "1/step")

        def self_s(metric, name):
            out[metric] = (step(self.row(name)["self_s"]), "s/step")

        fit = self.row("core.inference.fit")
        calls("core.inference.fit.calls", "core.inference.fit")
        self_s("core.inference.fit.self_s", "core.inference.fit")
        iterations = fit["attrs"].get("iterations", 0.0)
        out["core.inference.fit.iterations"] = (
            iterations / fit["calls"] if fit["calls"] else 0.0, "count",
        )
        out["core.inference.fit.request_s"] = (step(fit["request_self_s"]), "s/step")
        out["core.inference.fit.background_s"] = (step(fit["background_self_s"]), "s/step")
        calls("core.correlation.fit.calls", "core.correlation.fit")
        self_s("core.correlation.fit.self_s", "core.correlation.fit")
        self_s("core.structure_gain.build.self_s", "core.structure_gain.build")
        self_s("core.structure_gain.gains_batch.self_s", "core.structure_gain.gains_batch")
        cells = self.row("core.structure_gain.gains_batch")["attrs"].get("cells", 0.0)
        out["core.structure_gain.gains_batch.cells_scored"] = (step(cells), "1/step")
        self_s("core.assignment.top_k.self_s", "core.assignment.top_k")
        self_s("core.assignment.select.self_s", "core.assignment.select")
        self_s("core.assignment.candidates.self_s", "core.assignment.candidates")
        calls("engine.provenance.record.calls", "engine.provenance.record")
        self_s("engine.provenance.record.self_s", "engine.provenance.record")
        calls("engine.provenance.model_hashes", "engine.provenance.model_hash")
        self_s("engine.provenance.model_hash.self_s", "engine.provenance.model_hash")
        out["engine.refit_worker.snapshot_for.wait_s"] = (
            step(self.row("engine.refit_worker.snapshot_for")["wall_s"]), "s/step",
        )
        blocking = self._fits_under("engine.refit_worker.refit_now")
        background = fit["background_calls"]
        out["engine.refit_worker.blocking_refits"] = (step(blocking), "1/step")
        out["engine.refit_worker.background_refits"] = (step(background), "1/step")
        answers = sum(b.answers for b in self.run.blocks if b.traced)
        fits = fit["calls"]
        out["engine.refit_worker.answers_per_fit"] = (answers / fits if fits else 0.0, "count")
        self_s("engine.state.ingest.self_s", "engine.state.ingest")
        for op in ("append_answers", "select", "snapshot", "estimates"):
            self_s(f"service.wal.{op}.self_s", f"service.wal.{op}")
        for op in ("append", "save_snapshot", "truncate_before"):
            name = f"service.storage.{op}"
            calls(f"{name}.calls", name)
            self_s(f"{name}.self_s", name)
            if op != "truncate_before":
                out[f"{name}.bytes"] = (step(self.row(name)["attrs"].get("bytes", 0.0)), "B/step")
        out["service.storage.disk_mb"] = (self.run.disk_mb, "MB")
        out["service.registry.recover_all.s"] = (
            median([t for t, _ in self.recovery]) if self.recovery else 0.0, "s",
        )
        out["service.storage.recovery_reads.s"] = (
            median([r for _, r in self.recovery]) if self.recovery else 0.0, "s",
        )
        for op in ("select", "ingest", "estimates", "decisions"):
            self_s(f"service.registry.{op}.self_s", f"service.registry.{op}")
        for endpoint in ("tasks", "answers", "estimates", "decisions"):
            name = f"service.app.{endpoint}"
            row = self.row(name)
            self_s(f"{name}.self_s", name)
            out[f"{name}.bytes_in"] = (step(row["attrs"].get("bytes_in", 0.0)), "B/step")
            out[f"{name}.bytes_out"] = (step(row["attrs"].get("bytes_out", 0.0)), "B/step")
        out["transport.s"] = (step(self.transport_s()), "s/step")
        self_s("trace.accounting.self_s", tracer.ACCOUNTING)
        out["trace.reconciliation"] = (tracer.reconciliation(self.spans, self.selfs), "ratio")
        out["trace.overhead"] = (self.overhead, "ratio")
        out["trace.absent_targets"] = (float(len(self.absent)), "count")
        return out

    def _fits_under(self, parent_name: str) -> int:
        parents = {s.id for s in self.spans if s.name == parent_name}
        return sum(1 for s in self.spans if s.name == "core.inference.fit" and s.parent in parents)

    # -- layer split ----------------------------------------------------------------

    def split(self) -> Dict[str, Dict[str, float]]:
        """Per endpoint: share of server request time in each layer group."""
        shares: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        walls: Dict[str, float] = defaultdict(float)
        for root in self.request_roots.values():
            walls[root.name] += root.duration
        for span in self.spans:
            root = self.request_roots.get(span.root)
            if root is None:
                continue
            shares[root.name][span.name.split(".")[0]] += self.selfs[span.id]
        return {
            name.replace(tracer.REQUEST_PREFIX, ""): {
                group: shares[name][group] / walls[name] for group in GROUPS
            }
            for name in walls
            if walls[name] > 0
        }

    def slow_tasks_wait_share(self) -> Tuple[float, int]:
        """Share of ``snapshot_for`` wait in traced polls at or above their p90."""
        polls = [
            (seconds, self.app_by_request[rid])
            for op, rid, seconds in self.run.ledger.timings
            if op == "tasks" and rid in self.app_by_request
        ]
        if not polls:
            return float("nan"), 0
        cut = percentile([s for s, _ in polls], 0.9)
        slow = [span for seconds, span in polls if seconds >= cut]
        slow_ids = {span.id for span in slow}
        wait = sum(
            s.duration for s in self.spans
            if s.name == "engine.refit_worker.snapshot_for" and s.root in slow_ids
        )
        total = sum(span.duration for span in slow)
        return (wait / total if total else float("nan")), len(slow)


def finite_or_zero(value: float) -> float:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0
