import warnings

import numpy as np
import pytest

from persreg.simulate import (
    evaluate_recovery,
    generate,
    recovery_error,
    score_predictions,
)


class TestGenerate:
    def test_shapes_and_ranges(self):
        inst = generate(50, 3, 4, seed=0)
        ds = inst.dataset
        assert ds.predictors.shape == (50, 3)
        assert ds.responses.shape == (50,)
        assert ds.k == 4
        assert inst.coefficients_true.shape == (3, 50)
        assert np.all(ds.predictors > -1.0) and np.all(ds.predictors < 1.0)
        U = np.column_stack(ds.covariates.columns)
        assert np.all(U >= 0.0) and np.all(U <= 1.0)

    def test_coefficients_follow_threshold_sine_rule(self):
        inst = generate(30, 4, 3, seed=1)
        U = np.column_stack(inst.dataset.covariates.columns)
        for j in range(4):
            driving = U[:, inst.covariate_index[j]]
            want = (driving > inst.thresholds[j]).astype(float) + inst.sine_scales[
                j
            ] * np.sin(driving)
            assert np.array_equal(inst.coefficients_true[j], want)

    def test_coefficient_range_bound(self):
        for seed in range(5):
            inst = generate(40, 3, 2, seed=seed)
            theta = inst.coefficients_true
            assert np.all(theta >= 0.0)
            assert np.all(theta <= 1.0 + np.sin(1.0))

    def test_noise_free_responses_are_exact(self):
        inst = generate(25, 2, 2, seed=2, noise_std=0.0)
        y = np.einsum(
            "ij,ji->i", inst.dataset.predictors, inst.coefficients_true
        )
        assert np.array_equal(inst.dataset.responses, y)

    def test_same_seed_reproduces_everything(self):
        a = generate(20, 2, 3, seed=7)
        b = generate(20, 2, 3, seed=7)
        assert np.array_equal(a.dataset.predictors, b.dataset.predictors)
        assert np.array_equal(a.dataset.responses, b.dataset.responses)
        assert np.array_equal(a.coefficients_true, b.coefficients_true)
        assert np.array_equal(a.train_rows, b.train_rows)

    def test_split_is_a_partition(self):
        inst = generate(37, 2, 2, seed=3)
        both = np.concatenate([inst.train_rows, inst.test_rows])
        assert np.array_equal(np.sort(both), np.arange(37))
        assert len(inst.train_rows) == int(np.ceil(0.8 * 37))

    def test_normalized_rows(self):
        inst = generate(30, 3, 2, seed=4, normalize_rows=True)
        X = inst.dataset.predictors
        assert np.allclose(np.sum(np.abs(X), axis=1), 1.0)
        assert np.max(np.abs(X)) <= 1.0
        noise_free = generate(30, 3, 2, seed=4, noise_std=0.0, normalize_rows=True)
        y = np.einsum(
            "ij,ji->i", noise_free.dataset.predictors, noise_free.coefficients_true
        )
        assert np.array_equal(noise_free.dataset.responses, y)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate(0, 2, 2, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"n": 2.5}, "n must be an integer, got 2.5"),
         ({"p": 2.0}, "p must be an integer, got 2.0"),
         ({"n_covariates": True}, "n_covariates must be an integer, got True"),
         ({"noise_std": -1.0}, "noise_std must be >= 0, got -1.0"),
         ({"noise_std": float("nan")}, "noise_std must be finite, got nan"),
         ({"noise_std": float("inf")}, "noise_std must be finite, got inf"),
         ({"seed": None}, "seed must be an integer, got None"),
         ({"seed": -1}, "seed must be >= 0, got -1")],
    )
    def test_bad_argument_is_named(self, kwargs, message):
        args = {"n": 10, "p": 2, "n_covariates": 2, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(**args)

    @pytest.mark.parametrize(
        "name, edge, past, message",
        [("n", 1, 0, "n must be >= 1, got 0"),
         ("p", 1, 0, "p must be >= 1, got 0"),
         ("n_covariates", 1, 0, "n_covariates must be >= 1, got 0"),
         ("noise_std", 0.0, -5e-324, "noise_std must be >= 0, got -5e-324"),
         ("seed", 0, -1, "seed must be >= 0, got -1")],
    )
    def test_argument_at_its_bound_is_taken_and_past_it_named(
        self, name, edge, past, message
    ):
        args = {"n": 10, "p": 2, "n_covariates": 2, "seed": 0}
        generate(**{**args, name: edge})
        with pytest.raises(ValueError) as refused:
            generate(**{**args, name: past})
        assert str(refused.value) == message


class TestEvaluateRecovery:
    def test_exact_recovery_is_zero(self):
        omega = np.arange(6.0).reshape(2, 3)
        y = np.array([1.0, 2.0, 3.0])
        m = evaluate_recovery(omega, omega, y, y)
        assert m.recovery == 0.0
        assert m.r2 == pytest.approx(1.0)
        assert m.mse == 0.0
        assert not m.r2_degenerate

    def test_hand_frobenius_norm(self):
        base = np.zeros((2, 2))
        m = evaluate_recovery(base + 1.0, base, [0.0, 1.0], [0.0, 2.0])
        assert m.recovery == pytest.approx(2.0)

    def test_constant_predictions_flagged(self):
        omega = np.zeros((1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = evaluate_recovery(omega, omega, [1.0, 1.0], [0.0, 2.0])
        assert m.r2 == 0.0
        assert m.r2_degenerate

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_recovery(np.zeros((2, 2)), np.zeros((2, 3)), [1.0], [1.0])

    @pytest.mark.parametrize("constant", [False, True])
    def test_fields_are_the_shared_scores(self, constant):
        rng = np.random.default_rng(4)
        est, true = rng.normal(size=(3, 20)), rng.normal(size=(3, 20))
        y_pred, y_true = rng.normal(size=20), rng.normal(size=20)
        if constant:
            y_pred[:] = 0.5
        m = evaluate_recovery(est, true, y_pred, y_true)
        scores = score_predictions(y_pred, y_true)
        assert m.recovery == recovery_error(est, true)
        assert m.r2 == scores["r2"] and m.mse == scores["mse"]
        assert m.r2_degenerate is scores.get("r2_degenerate", False) is constant


class TestScorePredictions:
    def test_keys_by_task(self):
        y_pred, y_true = [0.2, 0.9, 0.6, 0.1], [0.0, 1.0, 1.0, 0.0]
        assert set(score_predictions(y_pred, y_true)) == {"mse", "r2"}
        scores = score_predictions(y_pred, y_true, "classification")
        assert set(scores) == {"mse", "r2", "auroc", "accuracy"}
        assert scores["auroc"] == 1.0 and scores["accuracy"] == 1.0
        assert set(score_predictions([1.0, 1.0], [0.0, 1.0])) == {
            "mse", "r2", "r2_degenerate"}

    @pytest.mark.parametrize(
        "y_pred, y_true, task",
        [([0.1, 0.2], [0.0], "regression"),
         ([0.1, 0.2], [0.0, 2.0], "classification"),
         ([0.1, 0.2], [0.0, 1.0], "ranking")],
        ids=["length", "non-binary-truth", "unknown-task"],
    )
    def test_bad_input_rejected(self, y_pred, y_true, task):
        with pytest.raises(ValueError):
            score_predictions(y_pred, y_true, task)

    def test_recovery_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must match"):
            recovery_error(np.zeros((2, 2)), np.zeros((2, 3)))
