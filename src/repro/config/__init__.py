"""One versioned, serializable configuration API for the whole system.

:class:`SessionSpec` is the single way to describe a serving session —
policy + model options, serving mode (incremental or async refit),
durability, and simulation budget — consumed by every entry point:

* ``CrowdsourcingSession.from_spec(dataset, spec)`` (the platform
  simulator);
* ``measure_engine_speedup(spec=...)`` and ``benchmarks/run_bench.py``;
* the HTTP service: ``POST /sessions`` takes a v1 spec body (the PR-4
  dialect upgrades via :func:`upgrade_legacy_config`), the canonical spec
  is pinned to durable ``session.json`` manifests and served back on
  ``GET /sessions/{id}/config``.

:mod:`repro.config.factory` turns specs into live policies (the shared
serving-mode switch); ``python -m repro.config.validate`` checks spec
JSON files from the command line.
"""

from repro.config.spec import (
    ENVELOPE_KEYS,
    REMOVED_SERVING_FIELDS,
    SPEC_VERSION,
    STRATEGY_NAMES,
    DurabilitySpec,
    ModelSpec,
    PolicySpec,
    ServingSpec,
    SessionSpec,
    SessionSpecBuilder,
    SimulationSpec,
    SpecValidationError,
    StrategySpec,
    split_envelope,
    upgrade_legacy_config,
)

__all__ = [
    "ENVELOPE_KEYS",
    "REMOVED_SERVING_FIELDS",
    "SPEC_VERSION",
    "STRATEGY_NAMES",
    "DurabilitySpec",
    "ModelSpec",
    "PolicySpec",
    "ServingSpec",
    "SessionSpec",
    "SessionSpecBuilder",
    "SimulationSpec",
    "SpecValidationError",
    "StrategySpec",
    "split_envelope",
    "upgrade_legacy_config",
]
