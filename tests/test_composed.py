"""Unit tests for the async serving mode as the service composes it.

:class:`~repro.engine.AsyncRefitPolicy` composes bounded-staleness refits,
the snapshot-keyed scoring cache and the durable snapshot protocol.  Its
end-to-end bit-identity is pinned by the golden-trace matrix
(``tests/test_golden_trace.py``) and the benchmark's
``identical_assignments_async`` / ``identical_estimates_async`` bits; these
tests cover the policy surface itself — construction, the snapshot/restore
durability protocol, bounded staleness on a virtual clock, and the speedup
harness's async path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.assignment import TCrowdAssigner
from repro.core.inference import TCrowdModel
from repro.engine import AsyncRefitEngine, AsyncRefitPolicy, VirtualClock
from repro.utils.exceptions import AssignmentError, ConfigurationError

FAST_MODEL = {"max_iterations": 3, "m_step_iterations": 6}


def _assigner(schema, **kwargs):
    options = dict(refit_every=1, warm_start=True)
    options.update(kwargs)
    return TCrowdAssigner(schema, model=TCrowdModel(**FAST_MODEL), **options)


def _seeded_answers(schema, answers_per_cell=2, seed=0):
    rng = np.random.default_rng(seed)
    answers = AnswerSet(schema)
    for row in range(schema.num_rows):
        for col, column in enumerate(schema.columns):
            for index in range(answers_per_cell):
                worker = f"w{(row + index) % 5}"
                if column.is_categorical:
                    value = column.labels[int(rng.integers(column.num_labels))]
                else:
                    low, high = column.domain
                    value = float(rng.uniform(low, high))
                answers.add_answer(worker, row, col, value)
    return answers


class TestConstruction:
    def test_name_reflects_async_mode(self, mixed_schema):
        policy = AsyncRefitPolicy(_assigner(mixed_schema), clock=VirtualClock())
        assert policy.name.endswith("[async refit]")
        policy.close()

    def test_rejects_monte_carlo_gains(self, mixed_schema):
        with pytest.raises(ConfigurationError):
            AsyncRefitPolicy(_assigner(mixed_schema, continuous_samples=8))

    def test_empty_answers_rejected(self, mixed_schema):
        policy = AsyncRefitPolicy(_assigner(mixed_schema), clock=VirtualClock())
        with pytest.raises(AssignmentError):
            policy.select("w0", AnswerSet(mixed_schema), k=1)
        policy.close()

    def test_close_is_idempotent(self, mixed_schema):
        policy = AsyncRefitPolicy(_assigner(mixed_schema))
        policy.close()
        policy.close()


class TestServing:
    def test_matches_plain_assigner_at_zero_staleness(self, mixed_schema):
        answers_a = _seeded_answers(mixed_schema)
        answers_b = _seeded_answers(mixed_schema)
        plain = _assigner(mixed_schema)
        served = AsyncRefitPolicy(
            _assigner(mixed_schema), max_stale_answers=0, clock=VirtualClock()
        )
        for worker in ("w0", "w3", "w0"):
            expected = plain.select(worker, answers_a, k=4)
            actual = served.select(worker, answers_b, k=4)
            assert actual.cells == expected.cells
            assert actual.gains == expected.gains
        # Selects two and three reused the first calculator.
        assert served.scoring_cache_hits == 2
        served.close()

    def test_bounded_staleness_serves_stale_snapshot(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        clock = VirtualClock()
        policy = AsyncRefitPolicy(
            _assigner(mixed_schema), max_stale_answers=100, clock=clock
        )
        policy.select("w0", answers, k=1)
        epoch_before = policy.engine.epoch
        answers.add_answer("w9", 0, 0, "red")
        policy.observe(answers)  # schedules a background refit
        assert clock.pending_jobs == 1
        policy.select("w0", answers, k=1)  # lock-free on the stale snapshot
        assert policy.engine.epoch == epoch_before
        clock.run_pending()
        assert policy.engine.epoch == epoch_before + 1
        assert policy.last_result is not None
        policy.close()

    def test_final_result_catches_up(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = AsyncRefitPolicy(
            _assigner(mixed_schema), max_stale_answers=100, clock=VirtualClock()
        )
        result = policy.final_result(answers)
        assert policy.engine.snapshot.answers_seen == len(answers)
        assert result is policy.last_result
        policy.close()


class TestDurabilityProtocol:
    def test_snapshot_state_round_trip(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        policy = AsyncRefitPolicy(
            _assigner(mixed_schema), max_stale_answers=0, clock=VirtualClock()
        )
        assert policy.snapshot_state() is None
        policy.select("w0", answers, k=1)
        state = policy.snapshot_state()
        assert state is not None
        result, answers_seen = state
        assert answers_seen == len(answers)

        fresh = AsyncRefitPolicy(
            _assigner(mixed_schema), max_stale_answers=0, clock=VirtualClock()
        )
        fresh.restore_state(result, answers_seen)
        assert fresh.last_result is result
        assert fresh.engine.snapshot.answers_seen == answers_seen
        policy.close()
        fresh.close()

    def test_engine_restore_advances_epoch(self, mixed_schema, fitted_result):
        engine = AsyncRefitEngine(
            TCrowdModel(**FAST_MODEL), mixed_schema, clock=VirtualClock()
        )
        snapshot = engine.restore(fitted_result, answers_seen=12)
        assert snapshot.epoch == 0
        snapshot = engine.restore(fitted_result, answers_seen=20)
        assert snapshot.epoch == 1
        snapshot = engine.restore(fitted_result, answers_seen=25, epoch=9)
        assert engine.epoch == 9
        engine.close()

    def test_plain_assigner_snapshot_protocol(self, mixed_schema):
        answers = _seeded_answers(mixed_schema)
        assigner = _assigner(mixed_schema)
        assert assigner.snapshot_state() is None
        assigner.observe(answers)
        result, seen = assigner.snapshot_state()
        assert seen == len(answers)
        fresh = _assigner(mixed_schema)
        fresh.restore_state(result, seen)
        assert fresh.last_result is result
        assert fresh.answers_at_last_fit == seen

    def test_final_result_records_the_fit(self, mixed_schema):
        """final_result is a real chain event: bookkeeping must advance."""
        answers = _seeded_answers(mixed_schema)
        assigner = _assigner(mixed_schema, refit_every=50)
        first = assigner.final_result(answers)
        assert assigner.answers_at_last_fit == len(answers)
        # Up to date: a second call is a no-op returning the same object.
        assert assigner.final_result(answers) is first


@pytest.mark.slow
class TestSpeedupHarnessAsyncPath:
    def test_measure_engine_speedup_records_async_bits(self):
        from repro.experiments.efficiency import measure_engine_speedup

        stats = measure_engine_speedup(
            seed=3,
            num_rows=8,
            target_answers_per_task=1.3,
            model_kwargs={"max_iterations": 3, "m_step_iterations": 6},
            async_refit=True,
        )
        assert stats["identical_assignments_async"] is True
        assert stats["identical_estimates_async"] is True
        assert stats["speedup_async"] > 0
        assert "seconds_engine_async_path" in stats
