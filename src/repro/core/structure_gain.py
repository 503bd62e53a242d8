"""Structure-aware information gain (Section 5.2).

The inherent gain of Eq. 6 treats the incoming worker's quality on a cell as
independent of their previous answers.  The structure-aware extension uses
the worker's *observed errors on other cells of the same row* — combined via
the attribute error-correlation models of Tables 4-5 and the Eq. 7/8
weighting — to produce a better prediction of the error the worker would make
on the candidate cell, and feeds that prediction into the delta-entropy
computation:

* categorical candidate: the predicted probability of a *correct* answer
  replaces the worker's inherent cell quality ``q^u_ij``;
* continuous candidate: the second moment of the predicted error replaces the
  worker's inherent answer variance.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.correlation import (
    AttributeCorrelationModel,
    BernoulliError,
    GaussianError,
    answer_errors,
)
from repro.core.inference import InferenceResult
from repro.core.information_gain import InformationGainCalculator


class StructureAwareGainCalculator:
    """Computes the structure-aware information gain for (worker, cell) pairs."""

    def __init__(
        self,
        result: InferenceResult,
        answers: AnswerSet,
        correlation_model: Optional[AttributeCorrelationModel] = None,
        continuous_samples: int = 0,
        min_pairs: int = 5,
        seed=None,
    ) -> None:
        self.result = result
        self.answers = answers
        self.correlation = correlation_model or AttributeCorrelationModel.fit(
            answers, result, min_pairs=min_pairs
        )
        self._inherent = InformationGainCalculator(
            result, continuous_samples=continuous_samples, seed=seed
        )

    # -- public API -----------------------------------------------------------

    def gain(self, worker: str, row: int, col: int) -> float:
        """Structure-aware information gain of assigning (row, col) to worker.

        Falls back to the inherent gain when the worker has not answered any
        other cell of the row (no structural evidence).
        """
        observed = self._observed_errors(worker, row, col)
        if not observed:
            return self._inherent.gain(worker, row, col)
        predicted = self.correlation.predict_error(col, observed)
        column = self.result.schema.columns[col]
        if column.is_categorical:
            assert isinstance(predicted, BernoulliError)
            return self._inherent.gain(
                worker, row, col, quality_override=predicted.quality()
            )
        assert isinstance(predicted, GaussianError)
        return self._inherent.gain(
            worker, row, col, variance_override=max(predicted.second_moment(), 1e-9)
        )

    def gains_for_worker(self, worker: str, candidates) -> Dict[tuple, float]:
        """Structure-aware gain for every candidate cell."""
        return {cell: self.gain(worker, cell[0], cell[1]) for cell in candidates}

    def prewarm(self) -> None:
        """Eagerly build the inherent calculator's cached scoring tables.

        The structure-aware layer itself keeps no mutable state across
        :meth:`gains_batch` calls; see
        :meth:`InformationGainCalculator.prewarm`.
        """
        self._inherent.prewarm()

    def gains_batch(self, worker: str, cells) -> np.ndarray:
        """Structure-aware gain for many candidate cells in one pass.

        The worker's observed errors are computed once per call, in one
        vector expression against the result's cached estimate grids, and
        the per-cell quality/variance predictions are handed to
        :meth:`InformationGainCalculator.gains_batch` as override arrays;
        cells without structural evidence keep ``NaN`` overrides and fall
        back to the inherent gain, as in :meth:`gain`.
        """
        cells = list(cells)
        quality_overrides = np.full(len(cells), np.nan)
        variance_overrides = np.full(len(cells), np.nan)
        errors_by_row = self._worker_errors(worker)
        columns = self.result.schema.columns
        for idx, (row, col) in enumerate(cells):
            errors = errors_by_row.get(row)
            if errors is None:
                continue
            observed = {c: e for c, e in errors.items() if c != col}
            if not observed:
                continue
            predicted = self.correlation.predict_error(col, observed)
            if columns[col].is_categorical:
                quality_overrides[idx] = predicted.quality()
            else:
                variance_overrides[idx] = max(predicted.second_moment(), 1e-9)
        return self._inherent.gains_batch(
            worker,
            cells,
            quality_overrides=quality_overrides,
            variance_overrides=variance_overrides,
        )

    # -- internals ------------------------------------------------------------

    def _observed_errors(self, worker: str, row: int, col: int) -> Dict[int, float]:
        """Errors of the worker's previous answers on other cells of ``row``."""
        errors = self._worker_errors(worker).get(row, {})
        return {c: e for c, e in errors.items() if c != col}

    def _worker_errors(self, worker: str) -> Dict[int, Dict[int, float]]:
        """The worker's answer errors as ``{row: {col: error}}``.

        Columns are keyed in order of the worker's first answer to the cell
        and hold the error of the last one, the order Eq. 7 sums in.
        """
        rows, cols, _workers, values, labels = self.answers.arrays(worker)
        errors = answer_errors(self.result, rows, cols, values, labels)
        by_row: Dict[int, Dict[int, float]] = {}
        for row, col, error in zip(rows.tolist(), cols.tolist(), errors.tolist()):
            by_row.setdefault(row, {})[col] = error
        return by_row
