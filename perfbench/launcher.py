"""Traced server launcher: ``python perfbench/launcher.py --trace-out FILE -- <service args>``.

Installs :class:`perfbench.tracer.Tracer` wrappers on the service's layer
boundaries (:func:`_targets`) and on the WSGI entry point, then runs
``repro.service``'s own ``main`` with the arguments after ``--``.  The
server is otherwise the real one: same registry, same routes, same
threads.

Two control routes, answered by the wrapper and never by the service:

* ``POST /__perfbench/tracing?on=1`` (or ``on=0``) turns recording on or
  off between requests, which is how the client measures the tracing
  overhead inside one run;
* ``POST /__perfbench/flush`` writes the spans recorded so far to
  ``--trace-out`` (the client calls it before it kills the server).

Spans are also written when the server exits on SIGINT or SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
from urllib.parse import parse_qs

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.tracer import Target, Tracer  # noqa: E402


def _fit_iterations(args, kwargs, result):
    return {"iterations": getattr(result, "n_iterations", 0)}


def _cells_scored(args, kwargs, result):
    cells = args[2] if len(args) > 2 else kwargs.get("cells", ())
    return {"cells": len(cells)}


def _record_bytes(args, kwargs, result):
    record = args[1] if len(args) > 1 else kwargs.get("record")
    return {"bytes": len(json.dumps(record, separators=(",", ":"))) + 1}


def _payload_bytes(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return {"bytes": len(json.dumps(payload)) + 1}


def _targets():
    """Every layer boundary the traced run times, by module path."""
    targets = [
        Target("repro.service.registry:SessionRegistry.create", "service.registry.create"),
        Target(
            "repro.service.registry:SessionRegistry.recover_all",
            "service.registry.recover_all",
        ),
    ]
    for op in ("select", "ingest", "estimates", "decisions", "stats"):
        targets.append(
            Target(f"repro.service.registry:ServedSession.{op}", f"service.registry.{op}")
        )
    for op in ("select", "append_answers", "estimates", "snapshot"):
        targets.append(Target(f"repro.service.wal:DurableSession.{op}", f"service.wal.{op}"))
    targets.append(Target("repro.service.wal:create_backend", "service.storage.open"))
    for backend in ("JsonlBackend", "SqliteBackend"):
        prefix = f"repro.service.storage:{backend}"
        targets += [
            Target(f"{prefix}.append", "service.storage.append", _record_bytes),
            Target(f"{prefix}.save_snapshot", "service.storage.save_snapshot", _payload_bytes),
            Target(f"{prefix}.truncate_before", "service.storage.truncate_before"),
            Target(f"{prefix}.records", "service.storage.read"),
            Target(f"{prefix}.load_snapshot", "service.storage.read"),
        ]
    targets += [
        Target(
            "repro.engine.refit_worker:AsyncRefitEngine.snapshot_for",
            "engine.refit_worker.snapshot_for",
        ),
        Target(
            "repro.engine.refit_worker:AsyncRefitEngine.refit_now",
            "engine.refit_worker.refit_now",
        ),
        Target(
            "repro.engine.refit_worker:AsyncRefitPolicy.select",
            "engine.refit_worker.select",
        ),
        Target("repro.engine.state:SessionState.ingest", "engine.state.ingest"),
        Target("repro.engine.state:SessionState.sync", "engine.state.sync"),
        Target("repro.engine.provenance:DecisionRecorder.record", "engine.provenance.record"),
        Target("repro.engine.provenance:model_state_hash", "engine.provenance.model_hash"),
        Target("repro.core.assignment:TCrowdAssigner.select", "core.assignment.select"),
        Target(
            "repro.core.assignment:AssignmentPolicy.candidate_cells",
            "core.assignment.candidates",
        ),
        Target("repro.core.assignment:top_k_stable", "core.assignment.top_k"),
        Target("repro.core.inference:TCrowdModel.fit", "core.inference.fit", _fit_iterations),
        Target(
            "repro.core.correlation:AttributeCorrelationModel.fit",
            "core.correlation.fit",
        ),
        Target(
            "repro.core.structure_gain:StructureAwareGainCalculator.__init__",
            "core.structure_gain.build",
        ),
        Target(
            "repro.core.structure_gain:StructureAwareGainCalculator.gains_batch",
            "core.structure_gain.gains_batch",
            _cells_scored,
        ),
    ]
    return targets


def endpoint_of(path: str) -> str:
    """The ``/metrics`` endpoint label of a request path."""
    parts = [part for part in path.split("/") if part]
    if not parts:
        return "other"
    if parts[0] != "sessions":
        return parts[0]
    if len(parts) == 1:
        return "sessions"
    if len(parts) == 2:
        return "session"
    return parts[2]


class TracedApp:
    """Request-root spans around ``ServiceApp.__call__`` plus the control routes."""

    def __init__(self, tracer: Tracer, original, out_path: pathlib.Path) -> None:
        self.tracer = tracer
        self.original = original
        self.out_path = out_path

    def flush(self) -> dict:
        spans = list(self.tracer.spans)
        document = {"spans": [list(span) for span in spans], "absent": self.tracer.absent}
        tmp = self.out_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(tmp, self.out_path)
        return {"path": str(self.out_path), "spans": len(spans)}

    def _control(self, environ, start_response):
        path = environ.get("PATH_INFO", "")
        if path == "/__perfbench/tracing":
            query = parse_qs(environ.get("QUERY_STRING", ""))
            self.tracer.enabled = (query.get("on") or ["1"])[0] == "1"
            body = {"enabled": self.tracer.enabled}
        elif path == "/__perfbench/flush":
            body = self.flush()
        else:
            start_response("404 Not Found", [("Content-Type", "application/json")])
            return [b'{"error": "unknown control route"}\n']
        payload = (json.dumps(body) + "\n").encode("utf-8")
        start_response(
            "200 OK",
            [("Content-Type", "application/json"), ("Content-Length", str(len(payload)))],
        )
        return [payload]

    def __call__(self, app, environ, start_response):
        path = environ.get("PATH_INFO", "") or "/"
        if path.startswith("/__perfbench/"):
            return self._control(environ, start_response)
        if not self.tracer.enabled:
            return self.original(app, environ, start_response)
        entry = self.tracer.open("service.app." + endpoint_of(path))
        body = None
        try:
            body = self.original(app, environ, start_response)
            return body
        finally:
            try:
                bytes_in = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                bytes_in = 0
            attrs = {
                "bytes_in": bytes_in,
                "bytes_out": sum(len(chunk) for chunk in body or ()),
                "request": int(environ.get("HTTP_X_PERFBENCH_REQUEST") or 0),
            }
            self.tracer.close(entry, attrs)


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument(
        "--trace-on", action="store_true", help="record from start-up (recovery included)"
    )
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = [arg for arg in args.service_args if arg != "--"]

    from repro.service import __main__ as service_main
    from repro.service.app import ServiceApp

    tracer = Tracer(enabled=args.trace_on)
    tracer.install(_targets())
    traced = TracedApp(tracer, ServiceApp.__call__, pathlib.Path(args.trace_out))

    def call(app, environ, start_response):
        return traced(app, environ, start_response)

    ServiceApp.__call__ = call
    signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        return service_main.main(service_args)
    finally:
        traced.flush()


if __name__ == "__main__":
    sys.exit(main())
