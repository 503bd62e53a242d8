"""Exact-float model-state codec and canonical hashing.

The write-ahead log and the decision-provenance layer share one
serialization discipline: every float goes through Python's ``repr``-based
JSON encoding, which round-trips IEEE-754 doubles bit for bit, and every
hash is computed over *canonical* JSON (sorted keys, no whitespace) so two
processes that hold the same model state produce the same digest.

:func:`serialize_result` / :func:`deserialize_result` moved here from
:mod:`repro.service.wal` (which re-exports them unchanged) so the engine
layer can hash model states without importing the service layer.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.inference import InferenceResult
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.core.schema import TableSchema
from repro.core.worker_model import WorkerModel
from repro.utils.exceptions import DurabilityError, InferenceError


def serialize_result(result: InferenceResult) -> dict:
    """Serialize an :class:`InferenceResult` to a JSON-safe dict, exactly.

    Every float goes through Python's ``repr``-based JSON encoding, which
    round-trips IEEE-754 doubles bit for bit; categorical posteriors are
    restored without renormalisation
    (:meth:`~repro.core.posteriors.CategoricalPosterior.from_normalized`),
    so ``deserialize_result(serialize_result(r), r.schema)`` reproduces the
    result's arrays and posteriors to the last bit — the precondition for
    replaying the warm-start chain identically after recovery.
    """
    posteriors = []
    for (row, col), posterior in result.posteriors.items():
        if posterior.is_categorical:
            payload = [float(p) for p in posterior.probs]
            kind = "c"
        else:
            payload = [float(posterior.mean), float(posterior.variance)]
            kind = "g"
        posteriors.append([int(row), int(col), kind, payload])
    return {
        "epsilon": float(result.worker_model.epsilon),
        "worker_ids": list(result.worker_ids),
        "alpha": [float(x) for x in result.alpha],
        "beta": [float(x) for x in result.beta],
        "phi": [float(x) for x in result.phi],
        "column_scale": [float(x) for x in result.column_scale],
        "column_offset": [float(x) for x in result.column_offset],
        "posteriors": posteriors,
        "objective_trace": [float(x) for x in result.objective_trace],
        "n_iterations": int(result.n_iterations),
        "converged": bool(result.converged),
        "stopped_by": str(result.stopped_by),
    }


def deserialize_result(payload: dict, schema: TableSchema) -> InferenceResult:
    """Rebuild the :class:`InferenceResult` serialized by :func:`serialize_result`."""
    posteriors = {}
    for row, col, kind, data in payload["posteriors"]:
        row, col = int(row), int(col)
        if kind == "c":
            posteriors[(row, col)] = CategoricalPosterior.from_normalized(
                schema.columns[col].labels, np.asarray(data, dtype=float)
            )
        elif kind == "g":
            posteriors[(row, col)] = GaussianPosterior(
                float(data[0]), float(data[1])
            )
        else:
            raise DurabilityError(f"Unknown posterior kind {kind!r} in snapshot")
    return InferenceResult(
        schema=schema,
        worker_model=WorkerModel(float(payload["epsilon"])),
        worker_ids=list(payload["worker_ids"]),
        alpha=np.asarray(payload["alpha"], dtype=float),
        beta=np.asarray(payload["beta"], dtype=float),
        phi=np.asarray(payload["phi"], dtype=float),
        column_scale=np.asarray(payload["column_scale"], dtype=float),
        column_offset=np.asarray(payload["column_offset"], dtype=float),
        posteriors=posteriors,
        objective_trace=list(payload["objective_trace"]),
        n_iterations=int(payload["n_iterations"]),
        converged=bool(payload["converged"]),
        stopped_by=str(payload["stopped_by"]),
    )


def canonical_json(payload) -> str:
    """The one canonical JSON text of a payload: sorted keys, no whitespace.

    Floats encode via ``repr`` (the stdlib default), so bit-identical
    doubles — and only bit-identical doubles — produce identical text.
    ``NaN``/``Infinity`` are not JSON: a payload carrying one raises
    :class:`~repro.utils.exceptions.InferenceError`, so a model that EM
    left non-finite is never hashed into a decision.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise InferenceError(
            f"cannot hash a payload holding a non-finite number: {exc}"
        ) from exc


def payload_hash(payload) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def model_state_hash(result: InferenceResult) -> str:
    """Canonical hash of a model state: two equal digests mean two refits
    landed on bit-identical inference results."""
    return payload_hash(serialize_result(result))
