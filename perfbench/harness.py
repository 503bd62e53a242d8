"""Server processes, the HTTP client and the per-operation ledger.

* :class:`Server` spawns ``python -m repro.service`` (or, for traced runs,
  ``perfbench/launcher.py``) with BLAS and OpenMP pinned to one thread,
  waits for its ``listening on`` line and stops it again.
* :class:`Client` sends one request per connection (the service speaks
  HTTP/1.0) and records every attempt in a :class:`Ledger`.
* :class:`Ledger` counts attempted / succeeded / failed requests per phase
  and operation and keeps the round-trip time of each timed request.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import pathlib
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Environment that pins every BLAS / OpenMP pool of the server to one
#: thread, so a run measures the service and not the thread scheduler.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 20.0


class BenchError(RuntimeError):
    """The benchmark cannot go on (server died, setup request failed)."""


class Ledger:
    """Thread-safe request accounting: per ``(phase, op)`` counts and timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[Tuple[str, str], List[int]] = defaultdict(lambda: [0, 0, 0])
        #: ``(op, request_id, seconds)`` of every successful timed request.
        self.timings: List[Tuple[str, int, float]] = []
        self.errors: List[str] = []

    def record(self, phase: str, op: str, ok: bool, detail: str = "") -> None:
        with self._lock:
            row = self.counts[(phase, op)]
            row[0] += 1
            row[1 if ok else 2] += 1
            if not ok and len(self.errors) < 20:
                self.errors.append(f"{phase}/{op}: {detail}")

    def time(self, op: str, request_id: int, seconds: float) -> None:
        with self._lock:
            self.timings.append((op, request_id, seconds))

    def latencies(self, op: str) -> List[float]:
        return [seconds for name, _rid, seconds in self.timings if name == op]

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(row[2] for row in self.counts.values())

    def table(self) -> List[dict]:
        return [
            {"phase": phase, "op": op, "attempted": a, "succeeded": s, "failed": f}
            for (phase, op), (a, s, f) in sorted(self.counts.items())
        ]


class Client:
    """One-request-per-connection JSON client that records into a ledger."""

    _ids = itertools.count(1)

    def __init__(self, port: int, ledger: Ledger) -> None:
        self.port = port
        self.ledger = ledger

    def call(
        self,
        phase: str,
        op: str,
        method: str,
        path: str,
        payload=None,
        timed: bool = False,
    ):
        """Send one request; returns the decoded body, or ``None`` on failure.

        A status other than 200/201, a timeout or a connection error counts
        as a failed operation (409 "no candidates" and 5xx included).
        """
        request_id = next(self._ids)
        headers = {"X-Perfbench-Request": str(request_id)}
        data = None
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.ledger.record(phase, op, False, f"{method} {path}: {exc!r}")
            return None
        finally:
            connection.close()
        elapsed = time.perf_counter() - start
        if status not in (200, 201):
            self.ledger.record(phase, op, False, f"{method} {path} -> {status} {raw[:200]!r}")
            return None
        self.ledger.record(phase, op, True)
        if timed:
            self.ledger.time(op, request_id, elapsed)
        return json.loads(raw.decode("utf-8"))

    def control(self, path: str) -> dict:
        """A launcher control route (traced runs only); not a service operation."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("POST", path, body=b"")
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"control route {path} failed: {response.status}")
        return json.loads(raw.decode("utf-8"))


class Server:
    """One service process (``python -m repro.service --port 0``)."""

    def __init__(
        self,
        root: pathlib.Path,
        work: pathlib.Path,
        name: str,
        durable_root: Optional[pathlib.Path] = None,
        trace_out: Optional[pathlib.Path] = None,
        trace_on: bool = False,
    ) -> None:
        self.root = root
        self.work = work
        self.name = name
        self.durable_root = durable_root
        self.trace_out = trace_out
        self.trace_on = trace_on
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._log = None

    def command(self) -> List[str]:
        service = ["--port", "0", "--log-level", "WARNING"]
        if self.durable_root is not None:
            service += ["--durable-root", str(self.durable_root)]
        if self.trace_out is None:
            return [sys.executable, "-m", "repro.service", *service]
        launcher = [
            sys.executable,
            str(self.root / "perfbench" / "launcher.py"),
            "--trace-out",
            str(self.trace_out),
        ]
        if self.trace_on:
            launcher.append("--trace-on")
        return [*launcher, "--", *service]

    def start(self) -> int:
        """Spawn the server and block until it listens; returns the port."""
        env = dict(os.environ)
        env.update(SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.work / f"{self.name}.log", "ab")
        self.proc = subprocess.Popen(
            self.command(),
            cwd=str(self.root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise BenchError(f"{self.name}: no 'listening on' line within {START_TIMEOUT_S}s")
            if line is None:
                self.kill()
                raise BenchError(f"{self.name}: exited before listening (see {self.name}.log)")
            if line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
                return self.port

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process in MB (0 where /proc is missing)."""
        try:
            status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def kill(self) -> float:
        """SIGKILL and reap; returns the monotonic time the signal was sent."""
        sent = time.perf_counter()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self._reap()
        return sent

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            if self._reader is not None:
                self._reader.join(timeout=10.0)
            self.proc.stdout.close()
        if self._log is not None:
            self._log.close()
            self._log = None
