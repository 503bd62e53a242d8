"""The three seeded workloads and the client-side crowd that drives them.

Every workload is a closed loop: each simulated worker waits for its reply
before it acts again.  The generator (the paper's synthetic table of
Section 6.5.1, a worker pool and its answer oracle) and the ground truth
stay in this client process; the server only sees HTTP requests.

* ``sync-online`` — one plain synchronous session at the Algorithm 2
  cadence (``refit_every=1``).  Each step is one worker's poll (``k=10``)
  followed by that worker's answer POST, plus an estimates read every few
  steps.  Every POST pays a warm EM refit; every poll pays a correlation
  fit, a full-table ``gains_batch`` and a model-state hash.
* ``async-burst`` — one session with background refits
  (``async_refit``, ``max_stale_answers=20``, ``refit_tol=1e-3``) over a
  table twice as large.  Each step has four distinct workers poll before
  their forty answers post, so the first poll of a step waits on a
  blocking catch-up refit and the others each rebuild the calculator.
* ``durable-tenants`` — eight small durable sessions (half jsonl, half
  sqlite), EM every 50 answers, driven by two client threads.  A poll
  (``k=3``) is followed by three single-answer POSTs, with estimates and
  decision-page reads every ten steps.  The run ends with SIGKILL and
  restarts, after which every tenant must come back unchanged.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import threading
import time
from typing import Dict, List

import numpy as np

from perfbench.harness import BenchError, Client, Ledger, Server

#: Model settings of the scale tier, shared by every workload.
MODEL = {"max_iterations": 8, "m_step_iterations": 15}

#: Workload sizes.  ``full`` is what the benchmark measures; ``selfcheck``
#: runs the same code in seconds (the benchmark's own tests use it).
#: ``trace_block`` is the number of steps (per client thread) between the
#: traced run's on/off switches; it must not line up with the estimates
#: cadence, or every estimates read would fall in blocks of one kind.
SIZES = {
    "full": {
        "sync-online": {
            "tenants": 1, "rows": 360, "columns": 10, "workers": 300, "crew": 10,
            "k": 10, "polls_per_step": 1, "post_size": 10, "estimates_every": 5,
            "setups": 3, "restarts": 5,
            "trace_block": 3,
        },
        "async-burst": {
            "tenants": 1, "rows": 600, "columns": 10, "workers": 300, "crew": 10,
            "k": 10, "polls_per_step": 4, "post_size": 4, "estimates_every": 5,
            "setups": 3, "restarts": 7,
            "trace_block": 2,
        },
        "durable-tenants": {
            "tenants": 8, "rows": 40, "columns": 8, "workers": 60, "crew": 10,
            "k": 3, "polls_per_step": 1, "post_size": 1, "estimates_every": 10,
            "setups": 3, "restarts": 4, "tail_steps": 4,
            "trace_block": 23, "threads": 2,
        },
    },
    "selfcheck": {
        "sync-online": {
            "tenants": 1, "rows": 30, "columns": 6, "workers": 40, "crew": 5,
            "k": 4, "polls_per_step": 1, "post_size": 4, "estimates_every": 3,
            "setups": 2, "restarts": 1,
            "trace_block": 2,
        },
        "async-burst": {
            "tenants": 1, "rows": 40, "columns": 6, "workers": 40, "crew": 5,
            "k": 4, "polls_per_step": 4, "post_size": 1, "estimates_every": 3,
            "setups": 2, "restarts": 1,
            "trace_block": 2,
        },
        "durable-tenants": {
            "tenants": 4, "rows": 20, "columns": 6, "workers": 30, "crew": 5,
            "k": 3, "polls_per_step": 1, "post_size": 1, "estimates_every": 5,
            "setups": 2, "restarts": 2, "tail_steps": 2,
            "trace_block": 7, "threads": 2,
        },
    },
}

#: ``snapshot_every_answers`` of the durable tenants: the service cuts a
#: snapshot after the POST that brings the answers since the last one to it.
SNAPSHOT_EVERY = 50

#: Label-set size of every categorical column.  Fixed (the paper draws it
#: from U(2, 10)) so that the error rate compares like with like across
#: seeds instead of following the seed's label counts.
LABELS = 4


def session_body(workload: str, session_id: str, schema, tenant_index: int) -> dict:
    """The v1 ``POST /sessions`` body of one tenant."""
    columns = []
    for column in schema.columns:
        if column.is_categorical:
            columns.append(
                {"name": column.name, "type": "categorical", "labels": list(column.labels)}
            )
        else:
            columns.append(
                {"name": column.name, "type": "continuous", "domain": list(column.domain)}
            )
    body = {
        "version": 1,
        "session_id": session_id,
        "schema": {
            "entity_attribute": schema.entity_attribute,
            "num_rows": schema.num_rows,
            "columns": columns,
        },
        "policy": {"model": dict(MODEL), "refit_every": 1},
    }
    if workload == "async-burst":
        body["serving"] = {"async_refit": True, "max_stale_answers": 20, "refit_tol": 1e-3}
    if workload == "durable-tenants":
        body["policy"]["refit_every"] = 50
        body["durable"] = True
        backend = "jsonl" if tenant_index % 2 == 0 else "sqlite"
        body["durability"] = {
            "backend": backend,
            "snapshot_every_answers": SNAPSHOT_EVERY,
            "keep_snapshots": 2,
            "rotate_every_records": 200,
        }
    return body


class Tenant:
    """One session's table, crowd, oracle and the answers it collected."""

    def __init__(self, seed: int, index: int, size: dict) -> None:
        from repro.core.answers import AnswerSet
        from repro.datasets import generate_synthetic

        self.index = index
        self.session_id = f"t{index}"
        self.dataset = generate_synthetic(
            num_rows=size["rows"],
            num_columns=size["columns"],
            categorical_ratio=0.5,
            answers_per_task=1,
            num_workers=size["workers"],
            label_count_range=(LABELS, LABELS),
            seed=seed * 1009 + index,
        )
        self.schema = self.dataset.schema
        self.oracle = self.dataset.oracle
        self.rng = np.random.default_rng([seed, index, 7])
        pool = self.dataset.worker_pool
        ids = pool.worker_ids()
        # The seed crew are the pool's most typical honest workers (lowest
        # contamination, variance nearest the median), so the seeded model's
        # quality does not hinge on drawing a spammer into the crew.
        log_var = np.log([pool.worker(w).variance for w in ids])
        contamination = np.array([pool.worker(w).contamination for w in ids])
        typical = np.lexsort((np.abs(log_var - np.median(log_var)), contamination))
        self.crew = [ids[i] for i in sorted(typical[: size["crew"]])]
        crew = set(self.crew)
        self.crowd = [w for w in ids if w not in crew]
        self.activity = np.array([pool.worker(w).activity for w in self.crowd])
        self.answered = np.zeros(len(self.crowd), dtype=int)
        #: Answers accepted since the service last cut a snapshot (durable
        #: tenants), following the service's rule POST by POST.
        self.since_snapshot = 0
        self._crowd_index = {w: i for i, w in enumerate(self.crowd)}
        self.collected = AnswerSet(self.schema)
        self.seed_batches = self._seed_batches()

    def _seed_batches(self) -> List[tuple]:
        """One answer per cell, one batch of whole rows per crew member."""
        rows, crew = self.schema.num_rows, len(self.crew)
        batches = []
        for b, worker in enumerate(self.crew):
            items = [
                (row, col, self.oracle.answer(worker, row, col, self.rng))
                for row in range(b * rows // crew, (b + 1) * rows // crew)
                for col in range(self.schema.num_columns)
            ]
            batches.append((worker, items))
        return batches

    def draw_workers(self, count: int) -> List[str]:
        """``count`` distinct crowd workers by activity.

        A worker who has answered every cell has no task left and leaves
        the crowd, so no poll is refused for want of candidates.
        """
        weights = np.where(self.answered < self.schema.num_cells, self.activity, 0.0)
        p = weights / weights.sum()
        picks = self.rng.choice(len(self.crowd), size=count, replace=False, p=p)
        return [self.crowd[i] for i in picks]

    def answers_for(self, worker: str, cells) -> List[tuple]:
        return [
            (int(row), int(col), self.oracle.answer(worker, int(row), int(col), self.rng))
            for row, col in cells
        ]

    def accept(self, worker: str, items) -> None:
        """Record one accepted POST."""
        for row, col, value in items:
            self.collected.add_answer(worker, row, col, value)
        self.since_snapshot += len(items)
        if self.since_snapshot >= SNAPSHOT_EVERY:
            self.since_snapshot = 0
        index = self._crowd_index.get(worker)
        if index is not None:
            self.answered[index] += len(items)

    def quality(self, estimates: Dict[str, object]) -> dict:
        """Check the served estimates and score them against the truth."""
        from repro.metrics import error_rate, mnad

        table = {}
        problems = []
        for row in range(self.schema.num_rows):
            for col, column in enumerate(self.schema.columns):
                value = estimates.get(f"{row},{col}")
                if value is None:
                    problems.append(f"{self.session_id}: cell ({row},{col}) not estimated")
                elif column.is_categorical and value not in column.labels:
                    problems.append(f"{self.session_id}: ({row},{col}) label {value!r}")
                elif column.is_continuous and not (
                    isinstance(value, (int, float)) and math.isfinite(value)
                ):
                    problems.append(f"{self.session_id}: ({row},{col}) value {value!r}")
                table[(row, col)] = value
        scored = dataclasses.replace(self.dataset, answers=self.collected)
        return {
            "problems": problems,
            "error_rate": error_rate(table, scored),
            "mnad": mnad(table, scored),
        }


def answers_payload(worker: str, items) -> dict:
    return {
        "worker": worker,
        "answers": [{"row": row, "col": col, "value": value} for row, col, value in items],
    }


def verify_chain(client: Client, phase: str, tenant: Tenant, expected_head: str):
    """Re-hash the whole decision ledger client-side.

    Returns ``(record_hashes, problems)``.
    """
    from repro.core.codec import payload_hash
    from repro.engine.provenance import record_core

    records, since = [], 0
    while since is not None:
        page = client.call(
            phase,
            "decisions",
            "GET",
            f"/sessions/{tenant.session_id}/decisions?since={since}&limit=1000",
        )
        if page is None:
            return [], [f"{tenant.session_id}: decisions page {since} failed"]
        records += page["decisions"]
        since = page["next_since"]
    problems = []
    previous = None
    for record in records:
        if payload_hash(record_core(record)) != record["record_hash"]:
            problems.append(f"{tenant.session_id}: decision {record['decision_id']} hash")
        if previous is not None and record["prev_hash"] != previous:
            problems.append(f"{tenant.session_id}: decision {record['decision_id']} link")
        previous = record["record_hash"]
    if previous != expected_head:
        problems.append(f"{tenant.session_id}: chain head {previous} != {expected_head}")
    return [record["record_hash"] for record in records], problems


@dataclasses.dataclass
class Block:
    """A stretch of loop steps run with tracing on or off."""

    traced: bool
    steps: int = 0
    answers: int = 0
    seconds: float = 0.0


@dataclasses.dataclass
class Run:
    """Everything one workload run measured, handed to the report."""

    workload: str
    ledger: Ledger
    tenants: List[Tenant]
    setup_s: List[float] = dataclasses.field(default_factory=list)
    restart_s: List[float] = dataclasses.field(default_factory=list)
    loop_s: float = 0.0
    answers_accepted: int = 0
    peak_rss_mb: float = 0.0
    disk_mb: float = 0.0
    quality: List[dict] = dataclasses.field(default_factory=list)
    problems: List[str] = dataclasses.field(default_factory=list)
    blocks: List[Block] = dataclasses.field(default_factory=list)
    #: Per tenant, the ``record_hash`` of every served decision, in order.
    chains: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    trace_files: Dict[str, pathlib.Path] = dataclasses.field(default_factory=dict)


class WorkloadRunner:
    """Runs one workload end to end: set-ups, loop, checks, restarts."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        root: pathlib.Path,
        work: pathlib.Path,
        size: str = "full",
    ) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = work
        self.size = SIZES[size][workload]
        self.servers: List[Server] = []
        self.run = Run(
            workload,
            Ledger(),
            [Tenant(seed, i, self.size) for i in range(self.size["tenants"])],
        )
        self._lock = threading.Lock()
        self._stop = False

    # -- servers ----------------------------------------------------------------

    def _server(self, name: str, durable_root, trace_on: bool = False) -> Server:
        trace_out = self.work / f"{name}.spans.json" if self.trace else None
        server = Server(self.root, self.work, name, durable_root, trace_out, trace_on)
        self.servers.append(server)
        return server

    def close(self) -> None:
        """Kill and reap every server this runner started."""
        for server in self.servers:
            server.kill()

    # -- phases -------------------------------------------------------------------

    def setup(self, index: int):
        """Spawn a server, create + seed every session, answer one warm-up poll."""
        durable = self.workload == "durable-tenants"
        durable_root = self.work / f"durable-{index}" if durable else None
        if durable_root is not None:
            durable_root.mkdir(parents=True, exist_ok=True)
        server = self._server(f"setup-{index}", durable_root)
        started = time.perf_counter()
        port = server.start()
        client = Client(port, self.run.ledger)
        for tenant in self.run.tenants:
            body = session_body(self.workload, tenant.session_id, tenant.schema, tenant.index)
            if client.call("setup", "create", "POST", "/sessions", body) is None:
                raise BenchError(f"creating {tenant.session_id} failed")
            path = f"/sessions/{tenant.session_id}/answers"
            for worker, items in tenant.seed_batches:
                body = answers_payload(worker, items)
                if client.call("setup", "answers", "POST", path, body) is None:
                    raise BenchError(f"seeding {tenant.session_id} failed")
            worker, k = tenant.crowd[0], self.size["k"]
            path = f"/sessions/{tenant.session_id}/tasks?worker={worker}&k={k}"
            if client.call("setup", "tasks", "GET", path) is None:
                raise BenchError(f"warm-up poll of {tenant.session_id} failed")
        self.run.setup_s.append(time.perf_counter() - started)
        heads = []
        for tenant in self.run.tenants:
            stats = client.call("setup", "stats", "GET", f"/sessions/{tenant.session_id}")
            heads.append(None if stats is None else stats["decision_chain_hash"])
        return server, client, durable_root, heads

    def execute(self) -> Run:
        run = self.run
        setups = []
        for index in range(self.size["setups"]):
            server, client, durable_root, heads = self.setup(index)
            setups.append(heads)
            if index < self.size["setups"] - 1:
                server.kill()
        # Sync sessions are deterministic, so set-ups of one seed agree on
        # every chain head; background refits make async heads timing-bound.
        if self.workload != "async-burst" and any(h != setups[0] for h in setups):
            run.problems.append(f"set-ups of one seed disagree on the chain head: {setups}")
        for tenant in run.tenants:
            for worker, items in tenant.seed_batches:
                tenant.accept(worker, items)
        self.loop(client)
        run.peak_rss_mb = server.peak_rss_mb()
        if durable_root is not None:
            run.disk_mb = sum(
                path.stat().st_size for path in durable_root.rglob("*") if path.is_file()
            ) / 1e6
        self.final_checks(client)
        if self.trace:
            client.control("/__perfbench/flush")
            run.trace_files["loop"] = server.trace_out
        self.restarts(server, durable_root)
        return run

    # -- the loop -------------------------------------------------------------------

    def loop(self, client: Client) -> None:
        run = self.run
        threads = self.size.get("threads", 1)
        groups = [run.tenants[t::threads] for t in range(threads)]
        deadline = time.perf_counter() + self.seconds
        barrier = threading.Barrier(threads) if self.trace else None
        started = time.perf_counter()
        if threads == 1:
            self._drive(client, groups[0], deadline, barrier)
        else:
            workers = [
                threading.Thread(
                    target=self._drive,
                    args=(client, groups[t], deadline, barrier),
                    daemon=True,
                )
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        run.loop_s = time.perf_counter() - started

    def _drive(self, client, tenants, deadline, barrier) -> None:
        """One client thread's closed loop over its tenants until ``deadline``."""
        steps = {tenant.session_id: 0 for tenant in tenants}
        block_len = self.size["trace_block"]
        traced = False
        turn = 0
        while True:
            if barrier is not None:
                # Tracing flips only while no request is in flight.
                if barrier.wait() == 0:
                    expired = time.perf_counter() >= deadline
                    self._stop = expired
                    on = 0 if traced or expired else 1
                    client.control(f"/__perfbench/tracing?on={on}")
                barrier.wait()
                if self._stop:
                    break
                traced = not traced
            elif time.perf_counter() >= deadline:
                break
            block = Block(traced)
            started = time.perf_counter()
            for _ in range(block_len):
                tenant = tenants[turn % len(tenants)]
                turn += 1
                block.answers += self._step(client, tenant, steps[tenant.session_id])
                steps[tenant.session_id] += 1
                block.steps += 1
                if barrier is None and time.perf_counter() >= deadline:
                    break
            block.seconds = time.perf_counter() - started
            with self._lock:
                self.run.blocks.append(block)
                self.run.answers_accepted += block.answers

    def _step(self, client: Client, tenant: Tenant, step: int, phase: str = "loop") -> int:
        """One closed-loop step; returns the answers the server accepted.

        Only ``loop`` steps are timed.
        """
        sid = tenant.session_id
        timed = phase == "loop"
        k = self.size["k"]
        polled = []
        for worker in tenant.draw_workers(self.size["polls_per_step"]):
            body = client.call(
                phase, "tasks", "GET", f"/sessions/{sid}/tasks?worker={worker}&k={k}", timed=timed
            )
            if body is not None:
                polled.append((worker, tenant.answers_for(worker, body["cells"])))
        post_size = self.size["post_size"]
        accepted = 0
        for worker, items in polled:
            for start in range(0, len(items), post_size):
                batch = items[start:start + post_size]
                ack = client.call(
                    phase,
                    "answers",
                    "POST",
                    f"/sessions/{sid}/answers",
                    answers_payload(worker, batch),
                    timed=timed,
                )
                if ack is not None:
                    tenant.accept(worker, batch)
                    accepted += len(batch)
        if (step + 1) % self.size["estimates_every"] == 0:
            client.call(phase, "estimates", "GET", f"/sessions/{sid}/estimates", timed=timed)
            if self.workload == "durable-tenants":
                client.call(
                    phase, "decisions", "GET", f"/sessions/{sid}/decisions?limit=50", timed=timed
                )
        return accepted

    # -- checks and restarts ---------------------------------------------------------

    def final_checks(self, client: Client) -> None:
        """Estimates quality, answers held and ledger verification."""
        run = self.run
        for tenant in run.tenants:
            sid = tenant.session_id
            estimates = client.call("final", "estimates", "GET", f"/sessions/{sid}/estimates")
            stats = client.call("final", "stats", "GET", f"/sessions/{sid}")
            if estimates is None or stats is None:
                run.problems.append(f"{sid}: final reads failed")
                continue
            quality = tenant.quality(estimates["estimates"])
            run.problems += quality.pop("problems")
            run.quality.append(quality)
            if stats["answers_collected"] != len(tenant.collected):
                run.problems.append(
                    f"{sid}: server holds {stats['answers_collected']} answers, "
                    f"client sent {len(tenant.collected)}"
                )
            chain, problems = verify_chain(client, "final", tenant, stats["decision_chain_hash"])
            run.chains[sid] = chain
            run.problems += problems

    def _advance(self, client: Client) -> Dict[str, dict]:
        """Move every durable tenant to a new crash point; returns their stats.

        One POST closes the tenant's current snapshot interval, so the
        service cuts a snapshot, then ``tail_steps`` loop steps (a poll and
        three single-answer POSTs each, no reads) follow it.  Every crash
        therefore leaves the same WAL tail to replay, whatever the loop left
        behind, and ``restart_s`` measures the same recovery work each time.
        """
        stats = {}
        for tenant in self.run.tenants:
            sid = tenant.session_id
            need = SNAPSHOT_EVERY - tenant.since_snapshot
            while need > 0:
                worker = tenant.draw_workers(1)[0]
                body = client.call(
                    "restart", "tasks", "GET", f"/sessions/{sid}/tasks?worker={worker}&k={need}"
                )
                if body is None or not body["cells"]:
                    break
                items = tenant.answers_for(worker, body["cells"])
                path = f"/sessions/{sid}/answers"
                if client.call(
                    "restart", "answers", "POST", path, answers_payload(worker, items)
                ) is None:
                    break
                tenant.accept(worker, items)
                need -= len(items)
            for step in range(self.size["tail_steps"]):
                self._step(client, tenant, step, phase="restart")
            stats[sid] = client.call("restart", "stats", "GET", f"/sessions/{sid}") or {}
        return stats

    def restarts(self, server: Server, durable_root) -> None:
        """SIGKILL → new server listening with every tenant recovered, repeatedly.

        Durable tenants are moved to a crash point before every kill and
        checked after every restart against their stats just before it.
        """
        run = self.run
        if durable_root is not None:
            before = self._advance(Client(server.port, run.ledger))
        for index in range(self.size["restarts"]):
            killed = server.kill()
            server = self._server(f"restart-{index}", durable_root, trace_on=True)
            port = server.start()
            run.restart_s.append(time.perf_counter() - killed)
            client = Client(port, run.ledger)
            if durable_root is not None:
                for tenant in run.tenants:
                    sid = tenant.session_id
                    stats = client.call("restart", "stats", "GET", f"/sessions/{sid}")
                    if stats is None:
                        run.problems.append(f"{sid}: not recovered after restart {index}")
                        continue
                    for key in ("answers_collected", "decision_chain_hash"):
                        if stats[key] != before[sid].get(key):
                            run.problems.append(
                                f"{sid}: {key} {stats[key]!r} after restart {index}, "
                                f"{before[sid].get(key)!r} before"
                            )
                    if stats["audit_replay_mismatches"] != 0:
                        run.problems.append(
                            f"{sid}: audit replay mismatches {stats['audit_replay_mismatches']}"
                        )
                if index < self.size["restarts"] - 1:
                    before = self._advance(client)
            if self.trace:
                client.control("/__perfbench/flush")
                run.trace_files[f"restart-{index}"] = server.trace_out
        server.kill()


def run_workload(workload, seed, seconds, trace, root, work, size="full") -> Run:
    """Run one workload; every server it started is reaped before returning."""
    work.mkdir(parents=True, exist_ok=True)
    runner = WorkloadRunner(workload, seed, seconds, trace, root, work, size)
    try:
        return runner.execute()
    finally:
        runner.close()
