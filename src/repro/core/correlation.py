"""Attribute error-correlation models of Section 5.2 (Tables 4 and 5, Eq. 7-8).

For every ordered pair of columns ``(j, k)`` the model learns, from all
collected answers, how a worker's error on column ``k`` of an entity predicts
the same worker's error on column ``j`` of that entity:

* both categorical  -> Bernoulli conditionals ``P(e_j | e_k = 0/1)``;
* both continuous   -> bivariate Gaussian, conditioned analytically;
* j continuous, k categorical -> two Gaussians (``e_k`` right / wrong);
* j categorical, k continuous -> Bayes over two Gaussians for ``e_k`` plus
  the Bernoulli marginal of ``e_j``.

Conditioning on several observed errors in the same row uses the linear
combination of Eq. 7 weighted by the Pearson coefficients ``W_jk`` of Eq. 8.

Errors are defined against the *estimated* truths of an
:class:`~repro.core.inference.InferenceResult`: continuous errors are
``a - T^hat`` and categorical errors are 0 (correct) / 1 (wrong).

The fit is columnar: it runs on every calculator build of the online loop,
so no step loops over answers in Python.

1. **Errors.** One vector expression over :meth:`AnswerSet.arrays` against
   the result's cached :meth:`InferenceResult.estimate_grids`.
2. **Marginals.** Column ``j``'s marginal is fitted on ``errors[cols == j]``:
   every answer, duplicates included, in insertion order.
3. **Groups.** Answers are grouped by (worker, row), groups ordered by their
   first answer.  The errors go into a dense ``columns x groups`` matrix with
   a boolean presence mask; when a worker answered a cell twice, the later
   answer wins.
4. **Pairs.** For each unordered column pair one mask selects the groups
   that answered both columns; the error vectors of ``(j, k)`` and
   ``(k, j)`` are the two matrix rows under that mask, in group order.  The
   Pearson weight is symmetric, so it is computed once per unordered pair.

These orders fix every float reduction, so the fit is a pure function of
the answer sequence and the result: the golden trace depends on it bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.answers import Answer, AnswerSet
from repro.core.inference import InferenceResult
from repro.core.schema import TableSchema
from repro.utils.exceptions import DataError
from repro.utils.numerics import safe_var


@dataclass(frozen=True)
class BernoulliError:
    """Error distribution of a categorical column: probability of being wrong."""

    p_wrong: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_wrong", float(np.clip(self.p_wrong, 0.0, 1.0)))

    @property
    def is_categorical(self) -> bool:
        """True — categorical error model."""
        return True

    def quality(self) -> float:
        """Probability of a correct answer implied by the error model."""
        return 1.0 - self.p_wrong


@dataclass(frozen=True)
class GaussianError:
    """Error distribution of a continuous column: ``e ~ N(mean, variance)``."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", float(max(self.variance, 1e-9)))

    @property
    def is_categorical(self) -> bool:
        """False — continuous error model."""
        return False

    def second_moment(self) -> float:
        """``E[e^2] = variance + mean^2`` (the effective answer noise)."""
        return self.variance + self.mean**2


def answer_error(answer: Answer, result: InferenceResult) -> float:
    """Error of one answer against the estimated truth.

    Continuous columns: ``a - T^hat``.  Categorical columns: 0 if the answer
    matches the estimated truth, 1 otherwise.  :func:`answer_errors` is the
    vectorised form.
    """
    column = result.schema.columns[answer.col]
    estimate = result.estimate(answer.row, answer.col)
    if column.is_categorical:
        return 0.0 if answer.value == estimate else 1.0
    return float(answer.value) - float(estimate)


def answer_errors(
    result: InferenceResult,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """:func:`answer_error` of many answers given as :meth:`AnswerSet.arrays`."""
    estimate_values, estimate_labels = result.estimate_grids()
    categorical = np.array(
        [column.is_categorical for column in result.schema.columns], dtype=bool
    )
    wrong = (labels != estimate_labels[rows, cols]).astype(float)
    return np.where(categorical[cols], wrong, values - estimate_values[rows, cols])


class _PairStats:
    """Fitted conditional model for one ordered column pair (j | k)."""

    def __init__(
        self,
        target_categorical: bool,
        given_categorical: bool,
        errors_j: np.ndarray,
        errors_k: np.ndarray,
    ) -> None:
        self.target_categorical = target_categorical
        self.given_categorical = given_categorical
        self.errors_j = errors_j
        self.errors_k = errors_k
        self._fit()

    def _fit(self) -> None:
        ej, ek = self.errors_j, self.errors_k
        if self.target_categorical and self.given_categorical:
            # Case (a): two Bernoulli conditionals.
            self.p_wrong_given_right = _bernoulli_rate(ej[ek == 0.0])
            self.p_wrong_given_wrong = _bernoulli_rate(ej[ek == 1.0])
        elif not self.target_categorical and not self.given_categorical:
            # Case (b): bivariate Gaussian.
            self.mean_j = float(np.mean(ej))
            self.mean_k = float(np.mean(ek))
            self.var_j = safe_var(ej)
            self.var_k = safe_var(ek)
            if len(ej) > 1:
                cov = float(np.mean(ej * ek)) - self.mean_j * self.mean_k
            else:
                cov = 0.0
            limit = 0.999 * np.sqrt(self.var_j * self.var_k)
            self.cov = float(np.clip(cov, -limit, limit))
        elif not self.target_categorical and self.given_categorical:
            # Case (c): Gaussian error of j conditioned on k right / wrong.
            self.gauss_given_right = _gaussian_from(ej[ek == 0.0], fallback=ej)
            self.gauss_given_wrong = _gaussian_from(ej[ek == 1.0], fallback=ej)
        else:
            # Case (d): Bayes with Gaussian likelihoods of e_k given e_j.
            self.p_wrong_prior = _bernoulli_rate(ej)
            self.gauss_k_given_right = _gaussian_from(ek[ej == 0.0], fallback=ek)
            self.gauss_k_given_wrong = _gaussian_from(ek[ej == 1.0], fallback=ek)

    def conditional(self, observed_error: float):
        """Distribution of the target error given the observed error on k."""
        if self.target_categorical and self.given_categorical:
            if observed_error == 0.0:
                return BernoulliError(self.p_wrong_given_right)
            return BernoulliError(self.p_wrong_given_wrong)
        if not self.target_categorical and not self.given_categorical:
            slope = self.cov / self.var_k
            mean = self.mean_j + slope * (observed_error - self.mean_k)
            variance = self.var_j - self.cov**2 / self.var_k
            return GaussianError(mean, variance)
        if not self.target_categorical and self.given_categorical:
            chosen = (
                self.gauss_given_right
                if observed_error == 0.0
                else self.gauss_given_wrong
            )
            return GaussianError(chosen[0], chosen[1])
        # Case (d): P(e_j | e_k = x) via Bayes.
        like_wrong = _gaussian_pdf(observed_error, *self.gauss_k_given_wrong)
        like_right = _gaussian_pdf(observed_error, *self.gauss_k_given_right)
        prior_wrong = self.p_wrong_prior
        numerator = like_wrong * prior_wrong
        denominator = numerator + like_right * (1.0 - prior_wrong)
        if denominator <= 0:
            return BernoulliError(prior_wrong)
        return BernoulliError(numerator / denominator)


def _bernoulli_rate(values: np.ndarray) -> float:
    """Smoothed error rate (Laplace +1/+2) of a 0/1 error vector."""
    return float((np.sum(values) + 1.0) / (len(values) + 2.0))


def _gaussian_from(values: np.ndarray, fallback: np.ndarray) -> Tuple[float, float]:
    """Mean/variance of ``values``; falls back to the pooled vector if empty."""
    source = values if len(values) >= 2 else fallback
    if len(source) == 0:
        return 0.0, 1.0
    return float(np.mean(source)), safe_var(source)


def _gaussian_pdf(x: float, mean: float, variance: float) -> float:
    variance = max(variance, 1e-9)
    return float(
        np.exp(-((x - mean) ** 2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    )


class AttributeCorrelationModel:
    """Learned marginal and pairwise error models over the table's columns."""

    def __init__(
        self,
        schema: TableSchema,
        marginals: Dict[int, object],
        pair_models: Dict[Tuple[int, int], _PairStats],
        weights: Dict[Tuple[int, int], float],
    ) -> None:
        self.schema = schema
        self._marginals = marginals
        self._pair_models = pair_models
        self._weights = weights

    # -- fitting -------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        answers: AnswerSet,
        result: InferenceResult,
        min_pairs: int = 5,
    ) -> "AttributeCorrelationModel":
        """Fit the correlation model from all collected answers.

        ``min_pairs`` is the minimum number of (worker, row) pairs with
        answers on both columns required to fit a pairwise model; column
        pairs below the threshold fall back to the marginal model.
        """
        schema = answers.schema
        num_cols = schema.num_columns
        categorical = [column.is_categorical for column in schema.columns]
        rows, cols, workers, values, labels = answers.arrays()
        errors = answer_errors(result, rows, cols, values, labels)

        marginals: Dict[int, object] = {}
        for j in range(num_cols):
            column_errors = errors[cols == j]
            if categorical[j]:
                marginals[j] = BernoulliError(_bernoulli_rate(column_errors))
            else:
                mean, var = _gaussian_from(column_errors, column_errors)
                marginals[j] = GaussianError(mean, var)

        # Group answers by (worker, row), numbered in order of first answer.
        keys = workers * schema.num_rows + rows
        _unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(first))
        groups = rank[inverse]
        # The last answer of each (group, column) cell wins.
        cells = groups * num_cols + cols
        _unique, from_end = np.unique(cells[::-1], return_index=True)
        last = len(cells) - 1 - from_end
        grid = np.zeros((num_cols, len(first)))
        present = np.zeros((num_cols, len(first)), dtype=bool)
        grid[cols[last], groups[last]] = errors[last]
        present[cols[last], groups[last]] = True

        pair_models: Dict[Tuple[int, int], _PairStats] = {}
        weights: Dict[Tuple[int, int], float] = {}
        for j in range(num_cols):
            for k in range(j + 1, num_cols):
                both = present[j] & present[k]
                count = int(np.count_nonzero(both))
                if count == 0 or count < min_pairs:
                    continue
                ej = grid[j][both]
                ek = grid[k][both]
                pair_models[(j, k)] = _PairStats(categorical[j], categorical[k], ej, ek)
                pair_models[(k, j)] = _PairStats(categorical[k], categorical[j], ek, ej)
                weights[(j, k)] = weights[(k, j)] = _pearson(ej, ek)
        return cls(schema, marginals, pair_models, weights)

    # -- queries -------------------------------------------------------------

    def has_pair(self, target_col: int, given_col: int) -> bool:
        """True if a pairwise model was fitted for (target | given)."""
        return (target_col, given_col) in self._pair_models

    def weight(self, target_col: int, given_col: int) -> float:
        """Correlation coefficient ``W_jk`` of Eq. 8 (0 if not fitted)."""
        return self._weights.get((target_col, given_col), 0.0)

    def marginal_error(self, col: int):
        """Marginal error distribution ``P(e_j)`` of Table 4."""
        try:
            return self._marginals[col]
        except KeyError as exc:
            raise DataError(f"No marginal error model for column {col}") from exc

    def conditional_error(self, target_col: int, given_col: int, observed_error: float):
        """``P(e_j | e_k = observed_error)`` of Table 5.

        Falls back to the marginal of the target column when the pair was
        not fitted (too few joint observations).
        """
        pair = self._pair_models.get((target_col, given_col))
        if pair is None:
            return self.marginal_error(target_col)
        return pair.conditional(observed_error)

    def predict_error(self, target_col: int, observed_errors: Dict[int, float]):
        """Combine the conditionals for all observed columns via Eq. 7.

        ``observed_errors`` maps column index -> the worker's observed error
        on that column (same row).  Returns a :class:`BernoulliError` or
        :class:`GaussianError` for the target column, or the marginal if no
        usable evidence exists.
        """
        conditionals = []
        weights = []
        for given_col, observed in observed_errors.items():
            if given_col == target_col or not self.has_pair(target_col, given_col):
                continue
            weight = abs(self.weight(target_col, given_col))
            if weight <= 1e-9:
                continue
            conditionals.append(self.conditional_error(target_col, given_col, observed))
            weights.append(weight)
        if not conditionals:
            return self.marginal_error(target_col)
        weights = np.asarray(weights, dtype=float)
        weights = weights / weights.sum()
        if self.schema.columns[target_col].is_categorical:
            p_wrong = float(
                np.sum(weights * np.array([c.p_wrong for c in conditionals]))
            )
            return BernoulliError(p_wrong)
        means = np.array([c.mean for c in conditionals])
        variances = np.array([c.variance for c in conditionals])
        mixture_mean = float(np.sum(weights * means))
        mixture_second = float(np.sum(weights * (variances + means**2)))
        return GaussianError(mixture_mean, max(mixture_second - mixture_mean**2, 1e-9))


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient (Eq. 8), 0 for degenerate vectors."""
    if len(x) < 2:
        return 0.0
    mean_x = float(np.mean(x))
    mean_y = float(np.mean(y))
    std_x = float(np.std(x))
    std_y = float(np.std(y))
    if std_x < 1e-12 or std_y < 1e-12:
        return 0.0
    cov = float(np.mean(x * y)) - mean_x * mean_y
    return float(np.clip(cov / (std_x * std_y), -1.0, 1.0))
