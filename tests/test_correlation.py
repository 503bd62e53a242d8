"""Tests for the attribute error-correlation models (repro.core.correlation)."""

from dataclasses import astuple
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.correlation import (
    AttributeCorrelationModel,
    BernoulliError,
    GaussianError,
    _bernoulli_rate,
    _gaussian_from,
    _pearson,
    _PairStats,
    answer_error,
)
from repro.core.inference import InferenceResult, TCrowdModel
from repro.core.posteriors import CategoricalPosterior, GaussianPosterior
from repro.core.schema import Column, TableSchema
from repro.core.worker_model import WorkerModel
from repro.utils.exceptions import DataError


@pytest.fixture(scope="module")
def correlation_setup(request):
    """Fit a correlation model on the shared mixed answers."""
    mixed_schema = request.getfixturevalue("mixed_schema")
    mixed_answers = request.getfixturevalue("mixed_answers")
    result = TCrowdModel(max_iterations=15, seed=2).fit(mixed_schema, mixed_answers)
    model = AttributeCorrelationModel.fit(mixed_answers, result, min_pairs=3)
    return mixed_schema, mixed_answers, result, model


class TestErrorDistributions:
    def test_bernoulli_error_clipped(self):
        assert BernoulliError(1.7).p_wrong == 1.0
        assert BernoulliError(-0.3).p_wrong == 0.0
        assert BernoulliError(0.3).quality() == pytest.approx(0.7)
        assert BernoulliError(0.3).is_categorical

    def test_gaussian_error_floor_and_moment(self):
        error = GaussianError(2.0, 0.0)
        assert error.variance > 0
        assert error.second_moment() == pytest.approx(error.variance + 4.0)
        assert not error.is_categorical


class TestAnswerError:
    def test_categorical_error_is_indicator(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        for answer in answers:
            if schema.columns[answer.col].is_categorical:
                error = answer_error(answer, result)
                assert error in (0.0, 1.0)
                expected = 0.0 if answer.value == result.estimate(answer.row, answer.col) else 1.0
                assert error == expected
                break

    def test_continuous_error_is_signed_difference(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        for answer in answers:
            if schema.columns[answer.col].is_continuous:
                error = answer_error(answer, result)
                expected = float(answer.value) - float(result.estimate(answer.row, answer.col))
                assert error == pytest.approx(expected)
                break


class TestAttributeCorrelationModel:
    def test_marginals_exist_for_every_column(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        for col, column in enumerate(schema.columns):
            marginal = model.marginal_error(col)
            assert marginal.is_categorical == column.is_categorical

    def test_marginal_unknown_column(self, correlation_setup):
        *_rest, model = correlation_setup
        with pytest.raises(DataError):
            model.marginal_error(99)

    def test_pairwise_models_fitted(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        # The fixture answers are dense enough to fit every ordered pair.
        fitted = [
            (j, k)
            for j in range(schema.num_columns)
            for k in range(schema.num_columns)
            if j != k and model.has_pair(j, k)
        ]
        assert fitted, "expected at least one fitted column pair"

    def test_weight_symmetric_in_magnitude(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        for j in range(schema.num_columns):
            for k in range(schema.num_columns):
                if j != k and model.has_pair(j, k) and model.has_pair(k, j):
                    assert abs(model.weight(j, k)) == pytest.approx(
                        abs(model.weight(k, j)), abs=1e-9
                    )

    def test_weight_zero_for_missing_pair(self, correlation_setup):
        *_rest, model = correlation_setup
        assert model.weight(0, 0) == 0.0

    def test_conditional_error_types(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cat = schema.categorical_indices[0]
        cont = schema.continuous_indices[0]
        if model.has_pair(cat, cont):
            assert model.conditional_error(cat, cont, 0.5).is_categorical
        if model.has_pair(cont, cat):
            assert not model.conditional_error(cont, cat, 1.0).is_categorical
        if model.has_pair(cat, schema.categorical_indices[1]):
            conditional = model.conditional_error(cat, schema.categorical_indices[1], 1.0)
            assert 0.0 <= conditional.p_wrong <= 1.0

    def test_conditional_falls_back_to_marginal(self, correlation_setup):
        schema, answers, result, _model = correlation_setup
        sparse = AttributeCorrelationModel.fit(answers, result, min_pairs=10**9)
        marginal = sparse.marginal_error(0)
        conditional = sparse.conditional_error(0, 1, 1.0)
        assert conditional.p_wrong == pytest.approx(marginal.p_wrong)

    def test_predict_error_without_evidence_is_marginal(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        prediction = model.predict_error(0, {})
        assert prediction.p_wrong == pytest.approx(model.marginal_error(0).p_wrong)

    def test_predict_error_with_evidence(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cat0, cat1 = schema.categorical_indices[:2]
        if not model.has_pair(cat0, cat1):
            pytest.skip("pair not fitted in fixture")
        wrong_prediction = model.predict_error(cat0, {cat1: 1.0})
        right_prediction = model.predict_error(cat0, {cat1: 0.0})
        assert 0.0 <= wrong_prediction.p_wrong <= 1.0
        assert 0.0 <= right_prediction.p_wrong <= 1.0

    def test_predict_error_continuous_target(self, correlation_setup):
        schema, _answers, _result, model = correlation_setup
        cont0, cont1 = schema.continuous_indices[:2]
        if not model.has_pair(cont0, cont1):
            pytest.skip("pair not fitted in fixture")
        prediction = model.predict_error(cont0, {cont1: 2.0})
        assert prediction.variance > 0


class TestSyntheticCorrelationRecovery:
    def test_strong_positive_continuous_correlation_recovered(self, mixed_schema):
        """Errors generated with a shared per-(worker,row) shift must yield a
        clearly positive fitted correlation between the two continuous columns."""
        from repro.core.answers import AnswerSet

        rng = np.random.default_rng(9)
        answers = AnswerSet(mixed_schema)
        cont_cols = mixed_schema.continuous_indices
        for i in range(mixed_schema.num_rows):
            for worker in ("a", "b", "c", "d"):
                shared = rng.normal(0.0, 5.0)
                for j in range(mixed_schema.num_columns):
                    column = mixed_schema.columns[j]
                    if column.is_categorical:
                        answers.add_answer(worker, i, j, column.labels[0])
                    else:
                        answers.add_answer(
                            worker, i, j, 50.0 + shared + rng.normal(0.0, 1.0)
                        )
        result = TCrowdModel(max_iterations=10).fit(mixed_schema, answers)
        model = AttributeCorrelationModel.fit(answers, result, min_pairs=5)
        weight = model.weight(cont_cols[0], cont_cols[1])
        assert weight > 0.5


# -- the columnar fit against the per-answer loop it replaced -----------------


def reference_fit(answers: AnswerSet, result: InferenceResult, min_pairs: int = 5):
    """The per-answer dict loop the columnar fit replaced, kept as an oracle.

    Returns ``(marginals, pair_models, weights)`` as the fit stores them.
    """
    schema = answers.schema
    errors_by_cell: Dict[Tuple[str, int, int], float] = {}
    errors_by_col: Dict[int, List[float]] = {j: [] for j in range(schema.num_columns)}
    for answer in answers:
        error = answer_error(answer, result)
        errors_by_cell[(answer.worker, answer.row, answer.col)] = error
        errors_by_col[answer.col].append(error)

    marginals = {}
    for j, column in enumerate(schema.columns):
        values = np.asarray(errors_by_col[j], dtype=float)
        if column.is_categorical:
            marginals[j] = BernoulliError(_bernoulli_rate(values))
        else:
            marginals[j] = GaussianError(*_gaussian_from(values, values))

    paired: Dict[Tuple[int, int], Tuple[List[float], List[float]]] = {}
    by_worker_row: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
    for (worker, row, col), error in errors_by_cell.items():
        by_worker_row.setdefault((worker, row), []).append((col, error))
    for observations in by_worker_row.values():
        for col_j, err_j in observations:
            for col_k, err_k in observations:
                if col_j == col_k:
                    continue
                bucket = paired.setdefault((col_j, col_k), ([], []))
                bucket[0].append(err_j)
                bucket[1].append(err_k)

    pair_models = {}
    weights = {}
    for (col_j, col_k), (list_j, list_k) in paired.items():
        if len(list_j) < min_pairs:
            continue
        ej = np.asarray(list_j, dtype=float)
        ek = np.asarray(list_k, dtype=float)
        pair_models[(col_j, col_k)] = _PairStats(
            schema.columns[col_j].is_categorical,
            schema.columns[col_k].is_categorical,
            ej,
            ek,
        )
        weights[(col_j, col_k)] = _pearson(ej, ek)
    return marginals, pair_models, weights


def _same_bits(a, b) -> bool:
    """Equal as IEEE-754 doubles (NaN equal to NaN, -0.0 distinct from 0.0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_PAIR_FIELDS = (
    "p_wrong_given_right", "p_wrong_given_wrong",
    "mean_j", "mean_k", "var_j", "var_k", "cov",
    "gauss_given_right", "gauss_given_wrong",
    "p_wrong_prior", "gauss_k_given_right", "gauss_k_given_wrong",
)


def assert_matches_reference(answers, result, min_pairs):
    model = AttributeCorrelationModel.fit(answers, result, min_pairs=min_pairs)
    marginals, pair_models, weights = reference_fit(answers, result, min_pairs)
    assert model._marginals.keys() == marginals.keys()
    for col, expected in marginals.items():
        fitted = model._marginals[col]
        assert type(fitted) is type(expected)
        assert _same_bits(astuple(fitted), astuple(expected)), col
    assert set(model._pair_models) == set(pair_models)
    assert {
        (j, k)
        for j in range(answers.schema.num_columns)
        for k in range(answers.schema.num_columns)
        if model.has_pair(j, k)
    } == set(pair_models)
    assert model._weights.keys() == weights.keys()
    for key, weight in weights.items():
        assert _same_bits(model._weights[key], weight), key
    for key, expected in pair_models.items():
        fitted = model._pair_models[key]
        assert fitted.target_categorical is expected.target_categorical
        assert fitted.given_categorical is expected.given_categorical
        assert _same_bits(fitted.errors_j, expected.errors_j), key
        assert _same_bits(fitted.errors_k, expected.errors_k), key
        for name in _PAIR_FIELDS:
            assert hasattr(fitted, name) == hasattr(expected, name), (key, name)
            if hasattr(expected, name):
                assert _same_bits(getattr(fitted, name), getattr(expected, name)), (
                    key, name,
                )
    return model


def _synthetic_result(schema, data, worker_ids) -> InferenceResult:
    """An InferenceResult with drawn posteriors on a drawn subset of cells.

    Cells left out take the prior's estimate; categorical posteriors are
    drawn from a small value pool so argmax ties occur.
    """
    posteriors = {}
    for row in range(schema.num_rows):
        for col, column in enumerate(schema.columns):
            if not data.draw(st.booleans()):
                continue
            if column.is_categorical:
                weights = data.draw(
                    st.lists(
                        st.sampled_from([0.5, 1.0, 1.0, 2.0]),
                        min_size=column.num_labels,
                        max_size=column.num_labels,
                    )
                )
                probs = np.asarray(weights) / np.sum(weights)
                posteriors[(row, col)] = CategoricalPosterior(column.labels, probs)
            else:
                mean = data.draw(st.floats(-50.0, 50.0, allow_nan=False))
                posteriors[(row, col)] = GaussianPosterior(mean, 1.0)
    num_cols = schema.num_columns
    offsets = data.draw(
        st.lists(st.floats(-5.0, 5.0), min_size=num_cols, max_size=num_cols)
    )
    return InferenceResult(
        schema=schema,
        worker_model=WorkerModel(1.0),
        worker_ids=list(worker_ids),
        alpha=np.ones(schema.num_rows),
        beta=np.ones(num_cols),
        phi=np.ones(max(len(worker_ids), 1)),
        column_scale=np.ones(num_cols),
        column_offset=np.asarray(offsets, dtype=float),
        posteriors=posteriors,
    )


@st.composite
def _fit_cases(draw):
    kinds = draw(st.sampled_from(["mixed", "categorical", "continuous"]))
    num_cols = draw(st.integers(min_value=1, max_value=5))
    columns = []
    for j in range(num_cols):
        categorical = {
            "mixed": draw(st.booleans()),
            "categorical": True,
            "continuous": False,
        }[kinds]
        if categorical:
            num_labels = draw(st.integers(min_value=2, max_value=4))
            columns.append(
                Column.categorical(f"c{j}", [f"l{i}" for i in range(num_labels)])
            )
        else:
            columns.append(Column.continuous(f"c{j}"))
    schema = TableSchema.build("e", columns, num_rows=draw(st.integers(1, 5)))
    workers = [f"w{u}" for u in range(draw(st.integers(1, 4)))]
    # Few distinct (worker, row, col) keys, so duplicates and single-answer
    # rows are common.
    entries = draw(
        st.lists(
            st.tuples(
                st.sampled_from(workers),
                st.integers(0, schema.num_rows - 1),
                st.integers(0, num_cols - 1),
                st.integers(0, 3),
                st.sampled_from([-2.5, 0.0, 1.0, 3.25, 40.0]),
            ),
            max_size=40,
        )
    )
    answers = AnswerSet(schema)
    for worker, row, col, label, number in entries:
        column = schema.columns[col]
        value = column.labels[label % column.num_labels] if column.is_categorical else number
        answers.add_answer(worker, row, col, value)
    return schema, answers


class TestColumnarFitMatchesReference:
    @given(case=_fit_cases(), min_pairs=st.sampled_from([0, 1, 5]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference_loop(self, case, min_pairs, data):
        schema, answers = case
        result = _synthetic_result(schema, data, answers.workers)
        assert_matches_reference(answers, result, min_pairs)

    @pytest.mark.parametrize("min_pairs", [0, 1, 3, 5])
    def test_fitted_em_result(self, correlation_setup, min_pairs):
        _schema, answers, result, _model = correlation_setup
        model = assert_matches_reference(answers, result, min_pairs)
        assert model._pair_models

    def test_duplicate_answers_last_wins(self, mixed_schema, fitted_result):
        answers = AnswerSet(mixed_schema)
        for worker in ("a", "b", "c"):
            for row in range(4):
                answers.add_answer(worker, row, 2, 10.0 + row)
                answers.add_answer(worker, row, 3, 500.0)
                answers.add_answer(worker, row, 2, 90.0 - row)
        model = assert_matches_reference(answers, fitted_result, min_pairs=1)
        expected = [
            90.0 - row - fitted_result.estimate(row, 2)
            for _worker in range(3)
            for row in range(4)
        ]
        assert list(model._pair_models[(2, 3)].errors_j) == expected

    def test_empty_answer_set(self, mixed_schema, fitted_result):
        model = assert_matches_reference(AnswerSet(mixed_schema), fitted_result, 0)
        assert not model._pair_models
        assert model.marginal_error(0).p_wrong == 0.5
        assert model.marginal_error(2) == GaussianError(0.0, 1.0)

    def test_estimate_grids_match_estimate(self, correlation_setup):
        schema, _answers, result, _model = correlation_setup
        values, labels = result.estimate_grids()
        assert result.estimate_grids()[0] is values
        for row in range(schema.num_rows):
            for col, column in enumerate(schema.columns):
                estimate = result.estimate(row, col)
                if column.is_categorical:
                    assert column.labels[labels[row, col]] == estimate
                    assert np.isnan(values[row, col])
                else:
                    assert values[row, col] == estimate
                    assert labels[row, col] == -1
