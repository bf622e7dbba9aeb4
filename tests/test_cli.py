import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from persreg import cli, optimizer, storage
from persreg.cli import main
from persreg.model import (
    INTEGER_HYPERS,
    CovariateTable,
    Dataset,
    HyperParams,
    coefficient_matrix,
)
from persreg.optimizer import fit
from persreg.predictor import predict_batch
from persreg.simulate import (
    auroc_rank_sum,
    generate,
    recovery_error,
    score_predictions,
)


TRACE_KEYS = {"t", "alpha", "objective", "com_step", "com_drift", "mean_neighbors",
              "radius"}


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--n", 60, "--p", 2, "--k", 3, "--seed", 5, "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        for name in ("X.csv", "Y.csv", "U.csv", "omega_true.csv", "meta.json"):
            assert (sim_dir / name).exists()
        _, X = storage.read_matrix_csv(sim_dir / "X.csv")
        _, omega = storage.read_matrix_csv(sim_dir / "omega_true.csv")
        assert X.shape == (60, 2)
        assert omega.shape == (60, 2)
        meta = storage.load_json(sim_dir / "meta.json")
        assert meta["seed"] == 5
        assert sorted(meta["train_rows"] + meta["test_rows"]) == list(range(60))

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        run_cli("simulate", "--n", 60, "--p", 2, "--k", 3, "--seed", 5, "--out", again)
        for name in ("X.csv", "Y.csv", "U.csv", "omega_true.csv", "meta.json"):
            assert (sim_dir / name).read_bytes() == (again / name).read_bytes()

    def test_zero_samples_is_input_error(self, tmp_path):
        assert run_cli(
            "simulate", "--n", 0, "--p", 2, "--k", 3, "--seed", 1, "--out", tmp_path / "x"
        ) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "value, message",
        [("-1", "noise_std must be >= 0, got -1.0"),
         ("nan", "noise_std must be finite, got nan"),
         ("inf", "noise_std must be finite, got inf")],
    )
    def test_bad_noise_std_is_named(self, tmp_path, capsys, value, message):
        out = tmp_path / "x"
        assert run_cli(
            "simulate", "--n", 10, "--p", 2, "--k", 3, "--seed", 1,
            f"--noise-std={value}", "--out", out,
        ) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, name", [("--n", "n"), ("--p", "p"), ("--k", "n_covariates")]
    )
    def test_size_below_one_is_named(self, tmp_path, capsys, flag, name):
        sizes = {"--n": 10, "--p": 2, "--k": 3, flag: 0}
        out = tmp_path / "x"
        assert run_cli("simulate", *[a for kv in sizes.items() for a in kv],
                       "--seed", 1, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got 0\n"
        assert not out.exists()


def train_args(sim_dir, out, *extra):
    return (
        "train",
        "--x", sim_dir / "X.csv",
        "--y", sim_dir / "Y.csv",
        "--u", sim_dir / "U.csv",
        "--out", out,
        "--seed", 5,
        *extra,
    )


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_negative_seed_exits_2_before_any_work(sim_dir, tmp_path, capsys, monkeypatch,
                                               command):
    monkeypatch.setattr(optimizer, "fit_population",
                        lambda *args: pytest.fail("population fit ran"))
    out = tmp_path / "out"
    if command == "simulate":
        args = ("simulate", "--n", 10, "--p", 2, "--k", 3, "--seed", -1, "--out", out)
    else:
        args = train_args(sim_dir, out, "--seed", -1)  # the last --seed wins
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


class TestTrain:
    def test_outputs_and_shapes(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        assert run_cli(*train_args(sim_dir, out, "--max-iters", 30)) == 0
        model = storage.load_model(out / "model.json")
        assert model.weights.shape == (3,)
        _, Z = storage.read_matrix_csv(out / "Z_embedding.csv")
        assert Z.shape == (60, model.factorization.latent_dim)
        _, phi = storage.read_matrix_csv(out / "phi.csv")
        assert phi.shape == (3, 1)

    def test_model_roundtrip_is_byte_identical(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        run_cli(*train_args(sim_dir, out, "--max-iters", 10))
        path = out / "model.json"
        model = storage.load_model(path)
        storage.save_model(out / "model2.json", model)
        assert path.read_bytes() == (out / "model2.json").read_bytes()

    def test_zero_iterations_equals_initialization(self, sim_dir, tmp_path):
        out = tmp_path / "fit0"
        assert run_cli(*train_args(sim_dir, out, "--max-iters", 0)) == 0
        cli_model = storage.load_model(out / "model.json")
        _, X = storage.read_matrix_csv(sim_dir / "X.csv")
        _, Y = storage.read_matrix_csv(sim_dir / "Y.csv")
        table = storage.read_covariates_csv(sim_dir / "U.csv")
        from persreg.model import Dataset

        ds = Dataset(predictors=X, responses=Y[:, 0], covariates=table)
        api_model = fit(ds, HyperParams(max_iters=0), seed=5)
        assert np.array_equal(
            cli_model.factorization.loadings, api_model.factorization.loadings
        )
        assert np.array_equal(cli_model.weights, api_model.weights)

    def test_traced_run_has_one_schema_and_keeps_the_step_bound(
        self, sim_dir, tmp_path
    ):
        out = tmp_path / "fit_tr"
        assert run_cli(
            *train_args(
                sim_dir, out, "--max-iters", 40, "--distance-match", 0.0,
                "--rate-floor", 1.0, "--trace",
            )
        ) == 0
        hyper = storage.load_model(out / "model.json").hyper
        lines = (out / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 40
        for r in records:
            assert set(r) == TRACE_KEYS
            assert r["com_step"] <= optimizer.com_bounds(hyper, r["t"])[0] + 1e-10

        # a classification fit traces the same keys
        ds = generate(40, 2, 2, seed=9).train_dataset()
        labels = (ds.responses > np.median(ds.responses)).astype(float)
        clf = Dataset(ds.predictors, labels, ds.covariates, "classification")
        records = []
        fit(clf, HyperParams(max_iters=5), seed=9, trace_fn=records.append)
        assert len(records) == 5
        assert all(set(r) == TRACE_KEYS for r in records)

        # train has no --instrument option
        with pytest.raises(SystemExit) as exc:
            run_cli(*train_args(sim_dir, tmp_path / "f", "--instrument"))
        assert exc.value.code == 2

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l1": 0.1, "momentum": 0.9}))
        assert run_cli(*train_args(sim_dir, tmp_path / "f", "--config", cfg)) == 2

    @pytest.mark.parametrize(
        "config", [{"l1": "abc"}, {"latent_dim": 1.5}, {"max_iters": 2.5}]
    )
    def test_config_value_of_wrong_type_is_input_error(self, sim_dir, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(*train_args(sim_dir, tmp_path / "f", "--config", cfg)) == 2

    @pytest.mark.parametrize(
        "setting, value",
        [(name, value)
         for name in HyperParams.__dataclass_fields__ if name not in INTEGER_HYPERS
         for value in ("inf", "-inf", "nan")]
        + [("config", "Infinity")],
    )
    def test_non_finite_setting_exits_2_before_any_fit(
        self, sim_dir, tmp_path, capsys, monkeypatch, setting, value
    ):
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: pytest.fail("fit ran"))
        if setting == "config":
            config = tmp_path / "cfg.json"
            config.write_text('{"rel_tol": Infinity}')
            setting, flag = "rel_tol", ("--config", config)
        else:
            flag = (f"--{setting.replace('_', '-')}={value}",)
        out = tmp_path / "fit"
        capsys.readouterr()
        assert run_cli(*train_args(sim_dir, out, *flag)) == 2
        got = float(value.replace("Infinity", "inf"))
        assert capsys.readouterr().err == f"error: {setting} must be finite, got {got}\n"
        assert not out.exists()

    def test_schema_without_column_list_is_input_error(self, sim_dir, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": 3}))
        assert run_cli(*train_args(sim_dir, tmp_path / "f", "--schema", schema)) == 2

    @pytest.mark.parametrize(
        "columns",
        [[{"name": "u1", "kind": "continuous"}, {"name": "u0", "kind": "categorical"},
          {"name": "u2", "kind": "continuous"}],
         [{"name": "u0", "kind": "continuous"}, {"kind": "categorical"},
          {"name": "u2", "kind": "continuous"}]],
        ids=["out-of-order", "entry-without-name"],
    )
    def test_schema_must_name_the_header_in_order(self, sim_dir, tmp_path, columns):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": columns}))
        out = tmp_path / "f"
        assert run_cli(*train_args(sim_dir, out, "--schema", schema)) == 2
        assert not out.exists()

    def test_schema_kind_typo_names_its_file_and_column(self, sim_dir, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        kinds = ["continuous", "continous", "continuous"]
        schema.write_text(json.dumps(
            {"columns": [{"name": f"u{i}", "kind": k} for i, k in enumerate(kinds)]}))
        out = tmp_path / "f"
        assert run_cli(*train_args(sim_dir, out, "--schema", schema)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: column 'u1' has unknown kind 'continous'")

    def test_schema_sets_the_kinds(self, sim_dir, tmp_path):
        schema = tmp_path / "schema.json"
        kinds = ["continuous", "categorical", "continuous"]
        schema.write_text(json.dumps(
            {"columns": [{"name": f"u{i}", "kind": k} for i, k in enumerate(kinds)]}))
        out = tmp_path / "f"
        assert run_cli(*train_args(sim_dir, out, "--schema", schema, "--max-iters", 2)) == 0
        model = storage.load_model(out / "model.json")
        assert model.train_covariates.kinds == tuple(kinds)

    def test_config_merged_under_flags(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 5, "l1": 0.7}))
        out = tmp_path / "fit_cfg"
        assert run_cli(*train_args(sim_dir, out, "--config", cfg, "--l1", 0.2)) == 0
        model = storage.load_model(out / "model.json")
        assert model.hyper.max_iters == 5  # from config
        assert model.hyper.l1 == 0.2  # flag wins

    def test_config_task_used_unless_flag_overrides(self, sim_dir, tmp_path):
        _, Y = storage.read_matrix_csv(sim_dir / "Y.csv")
        labels = tmp_path / "labels.csv"
        storage.write_matrix_csv(labels, (Y[:, 0] > np.median(Y[:, 0])).astype(float), ["y"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "classification", "max_iters": 3}))
        for extra, task in (((), "classification"), (("--task", "regression"), "regression")):
            out = tmp_path / task
            assert run_cli(
                "train", "--x", sim_dir / "X.csv", "--y", labels, "--u", sim_dir / "U.csv",
                "--out", out, "--seed", 5, "--config", cfg, *extra,
            ) == 0
            model = storage.load_model(out / "model.json")
            assert model.task == task
            assert model.hyper.max_iters == 3

    def test_dimension_mismatch_is_input_error(self, sim_dir, tmp_path):
        other = tmp_path / "other"
        run_cli("simulate", "--n", 30, "--p", 2, "--k", 3, "--seed", 1, "--out", other)
        code = run_cli(
            "train",
            "--x", sim_dir / "X.csv",
            "--y", other / "Y.csv",
            "--u", sim_dir / "U.csv",
            "--out", tmp_path / "bad",
            "--seed", 1,
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numerical_blowup_is_exit_3(self, sim_dir, tmp_path):
        code = run_cli(
            *train_args(
                sim_dir, tmp_path / "boom", "--max-iters", 50,
                "--distance-match", 0.0, "--lr-init", 1e300,
            )
        )
        assert code == 3


    def test_fixed_radius_flag_drops_the_neighbor_target(self, sim_dir, tmp_path):
        out = tmp_path / "fixed"
        assert run_cli(*train_args(
            sim_dir, out, "--max-iters", 3, "--radius", 0.5, "--trace")) == 0
        hyper = storage.load_json(out / "model.json")["hyper"]
        assert hyper["radius"] == 0.5 and hyper["target_neighbors"] is None
        records = [json.loads(line) for line in
                   (out / "trace.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert all(r["radius"] == 0.5 for r in records)

    def test_explicit_neighbor_target_kept_beside_config_radius(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"radius": 0.5}))
        out = tmp_path / "both"
        assert run_cli(*train_args(
            sim_dir, out, "--max-iters", 2, "--config", cfg,
            "--target-neighbors", 4)) == 0
        model = storage.load_model(out / "model.json")
        assert model.hyper.radius == 0.5 and model.hyper.target_neighbors == 4.0


def run_quietly(capsys, *args):
    """Exit code and stderr of one CLI run, asserting that numpy warned of
    nothing on the way."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*args)
    assert [str(w.message) for w in caught] == []
    return code, capsys.readouterr().err


class TestOverflowingInputs:
    """Finite inputs whose arithmetic overflows: a failed train says so in
    one line with exit 3, and an overflowing covariate distance at predict
    time ranks as farthest, with no numpy warning in either."""

    @pytest.mark.parametrize("huge", [1e10, 1e200, 1.7e308])
    def test_huge_predictors_fail_train_in_one_line(self, sim_dir, tmp_path, capsys, huge):
        _, X = storage.read_matrix_csv(sim_dir / "X.csv")
        X[4, 1] = huge
        storage.write_matrix_csv(sim_dir / "X.csv", X, ["x0", "x1"])
        out = tmp_path / "fit"
        code, err = run_quietly(capsys, *train_args(sim_dir, out, "--max-iters", 5))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--init-noise", 1e150, "non-finite gradient in composite objective"),
            ("--init-noise", 1e160, "squared loading distances overflow float64"),
            ("--init-noise", 1e308, "non-finite start loadings"),
            ("--lr-init", 1.7e308, "non-finite update at iteration 0"),
        ],
    )
    def test_overflowing_hyperparameter_fails_train_in_one_line(
        self, sim_dir, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "fit"
        code, err = run_quietly(
            capsys, *train_args(sim_dir, out, "--max-iters", 3, flag, value))
        assert (code, err) == (3, f"error: {message}\n")
        assert not out.exists()

    def test_overflowing_covariate_distances_fail_train_in_one_line(
        self, sim_dir, tmp_path, capsys
    ):
        table = storage.read_covariates_csv(sim_dir / "U.csv")
        cols = list(table.columns)
        cols[0] = np.where(np.arange(len(table)) % 2 == 0, 1.7e308, -1.7e308)
        storage.write_covariates_csv(
            sim_dir / "U.csv", CovariateTable.from_columns(cols, table.kinds, table.names))
        out = tmp_path / "fit"
        code, err = run_quietly(capsys, *train_args(sim_dir, out, "--max-iters", 5))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_covariate_distance_ranks_farthest(self, sim_dir, tmp_path, capsys):
        table = storage.read_covariates_csv(sim_dir / "U.csv")
        cols = list(table.columns)
        cols[0] = cols[0].copy()
        cols[0][[2, 7]] = 1.7e308
        storage.write_covariates_csv(
            sim_dir / "U.csv", CovariateTable.from_columns(cols, table.kinds, table.names))
        fitted = tmp_path / "fit"
        assert run_cli(*train_args(sim_dir, fitted, "--max-iters", 0)) == 0
        model = storage.load_model(fitted / "model.json")
        test_x, test_u = tmp_path / "tx.csv", tmp_path / "tu.csv"
        test_x.write_text("x0,x1\n0.5,0.25\n0.1,0.2\n")
        test_u.write_text("u0,u1,u2\n-1.7e308,0.5,0.5\n0.3,0.1,0.9\n")
        out = tmp_path / "pred.csv"
        code, err = run_quietly(
            capsys, "predict", "--model", fitted / "model.json", "--x", test_x,
            "--u", test_u, "--out", out, "--n-neighbors", 58)
        assert (code, err) == (0, "")
        # the reference ranking: float sums in column order, whose overflow
        # Python makes inf without a word, ties to the lower index; the two
        # rows at an infinite distance from the first query are its last
        train = model.train_covariates
        assert len(train) == 60
        got = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        for query, ids in zip(((-1.7e308, 0.5, 0.5), (0.3, 0.1, 0.9)), got):
            dists = []
            for i in range(len(train)):
                d = 0.0
                for w, a, b in zip(model.weights, train.row(i), query):
                    d += float(w) * abs(float(a) - b)
                dists.append(d)
            want = np.argsort(dists, kind="stable")[:58]
            assert ids == ";".join(str(j) for j in want)
        assert not {"2", "7"} & set(got[0].split(";"))


@pytest.fixture
def fitted(sim_dir, tmp_path):
    out = tmp_path / "fit"
    run_cli(*train_args(sim_dir, out, "--max-iters", 30))
    return out


class TestPredict:
    def test_nearest_copy_roundtrip(self, sim_dir, fitted, tmp_path):
        # predicting at a training covariate row with one neighbor echoes
        # that row's coefficients
        model = storage.load_model(fitted / "model.json")
        _, X = storage.read_matrix_csv(sim_dir / "X.csv")
        test_x = tmp_path / "tx.csv"
        test_u = tmp_path / "tu.csv"
        storage.write_matrix_csv(test_x, X[3:4], ["x0", "x1"])
        storage.write_covariates_csv(test_u, model.train_covariates.take([3]))
        out = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--model", fitted / "model.json", "--x", test_x,
            "--u", test_u, "--out", out, "--n-neighbors", 1, "--include-theta",
        ) == 0
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[2] == "3"
        theta = model.factorization.dictionary.T @ model.factorization.loadings[:, 3]
        got = np.array([float(v) for v in cells[3:]])
        assert np.array_equal(got, theta)

    def test_empty_input_gives_header_only(self, fitted, tmp_path):
        test_x = tmp_path / "tx.csv"
        test_u = tmp_path / "tu.csv"
        test_x.write_text("x0,x1\n")
        test_u.write_text("u0,u1,u2\n")
        out = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--model", fitted / "model.json", "--x", test_x,
            "--u", test_u, "--out", out,
        ) == 0
        assert out.read_text() == "row_id,y_hat,neighbor_ids\n"

    def test_corrupted_model_is_input_error(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"task\": \"regression\"}")
        code = run_cli(
            "predict", "--model", bad, "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", tmp_path / "p.csv",
        )
        assert code == 2

    @pytest.mark.parametrize("extra", [True, False], ids=["long", "short"])
    def test_ragged_covariate_row_in_model_is_input_error(
        self, sim_dir, fitted, tmp_path, capsys, extra
    ):
        data = storage.load_json(fitted / "model.json")
        row = data["covariates"]["rows"][7]
        if extra:
            row.append(0.5)
        else:
            row.pop()
        bad = tmp_path / "bad.json"
        storage.dump_json(bad, data)
        code = run_cli(
            "predict", "--model", bad, "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", tmp_path / "p.csv",
        )
        assert code == 2
        assert "covariate row 7 has" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [pytest.param(*case, id=case[0]) for case in [
            ("n_neighbors", "n_neighbors must be >= 1"),
            ("rel_tol", "rel_tol must be finite, got inf"),
            ("ragged-loadings", "loadings must be a rectangular array of numbers"),
            ("short-kinds", "columns, kinds and names must align"),
            ("extra-latent-row", "latent dim 3 must lie in [1, min(p=2, n=60)]"),
            ("negative-phi", "metric weights must be nonnegative"),
            ("short-loadings", "factorization column count must match"),
            ("short-population", "population coefficients must have length p"),
        ]],
    )
    def test_rejected_model_file_is_named(
        self, sim_dir, fitted, tmp_path, capsys, case, message
    ):
        data = storage.load_json(fitted / "model.json")
        if case == "n_neighbors":
            data["hyper"]["n_neighbors"] = 0
        elif case == "rel_tol":
            data["hyper"]["rel_tol"] = float("inf")
        elif case == "ragged-loadings":
            data["loadings"][1].pop()
        elif case == "short-kinds":
            data["covariates"]["kinds"].pop()
        elif case == "extra-latent-row":
            data["loadings"].append([0.0] * 60)
            data["dictionary"].append([0.0] * 2)
        elif case == "negative-phi":
            data["weights"][0] = -1.0
        elif case == "short-loadings":
            data["loadings"] = [row[:-1] for row in data["loadings"]]
        else:
            data["population_coef"].pop()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))  # json writes Infinity
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = run_cli(
            "predict", "--model", model, "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", out,
        )
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {model}: ")
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_predictor_is_input_error(self, sim_dir, fitted, tmp_path, cell):
        model = storage.load_model(fitted / "model.json")
        test_x = tmp_path / "tx.csv"
        test_u = tmp_path / "tu.csv"
        test_x.write_text(f"x0,x1\n0.5,0.25\n{cell},0.1\n")
        storage.write_covariates_csv(test_u, model.train_covariates.take([0, 1]))
        out = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--model", fitted / "model.json", "--x", test_x,
            "--u", test_u, "--out", out,
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", ["weights", "population_coef"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_model_is_input_error(
        self, sim_dir, fitted, tmp_path, field, bad
    ):
        data = storage.load_json(fitted / "model.json")
        data[field][0] = bad
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data))  # json writes NaN and Infinity
        out = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--model", model, "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", out,
        )
        assert code == 2
        assert not out.exists()

    def test_schema_mismatch_is_input_error(self, sim_dir, fitted, tmp_path):
        narrow = tmp_path / "tu.csv"
        narrow.write_text("u0,u1\n0.1,0.2\n")
        code = run_cli(
            "predict", "--model", fitted / "model.json", "--x", sim_dir / "X.csv",
            "--u", narrow, "--out", tmp_path / "p.csv",
        )
        assert code == 2

    def test_swapped_covariate_columns_is_input_error(self, fitted, tmp_path):
        model = storage.load_model(fitted / "model.json")
        table = model.train_covariates.take([0, 1])
        swapped = CovariateTable.from_columns(
            [table.columns[1], table.columns[0], table.columns[2]], table.kinds,
            ["u1", "u0", "u2"])
        test_u = tmp_path / "tu.csv"
        storage.write_covariates_csv(test_u, swapped)
        test_x = tmp_path / "tx.csv"
        test_x.write_text("x0,x1\n0.5,0.25\n0.1,0.2\n")
        out = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--model", fitted / "model.json", "--x", test_x,
            "--u", test_u, "--out", out,
        )
        assert code == 2
        assert not out.exists()

    def test_overflowing_prediction_is_input_error(self, sim_dir, tmp_path, capsys):
        # responses scaled up give coefficients whose l1 norm exceeds one
        _, Y = storage.read_matrix_csv(sim_dir / "Y.csv")
        scaled = tmp_path / "y4.csv"
        storage.write_matrix_csv(scaled, 4.0 * Y, ["y"])
        fitted = tmp_path / "fit"
        assert run_cli(
            "train", "--x", sim_dir / "X.csv", "--y", scaled, "--u", sim_dir / "U.csv",
            "--out", fitted, "--seed", 5, "--max-iters", 5,
        ) == 0
        model = storage.load_model(fitted / "model.json")
        huge = np.array([[1.79e308, 1.79e308], [1.79e308, -1.79e308]])
        rows = model.train_covariates.take([0, 0])
        # the inputs are finite, but the product with the coefficients is not
        preds = predict_batch(model, huge, [rows.row(i) for i in range(2)])
        assert not all(np.isfinite(p.y_hat) for p in preds)
        test_x = tmp_path / "tx.csv"
        test_u = tmp_path / "tu.csv"
        storage.write_matrix_csv(test_x, huge, ["x0", "x1"])
        storage.write_covariates_csv(test_u, rows)
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        # the overflow is refused once, with no numpy warning before it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "predict", "--model", fitted / "model.json", "--x", test_x,
                "--u", test_u, "--out", out,
            )
        assert code == 2
        assert not out.exists()
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestClassificationPipeline:
    def test_end_to_end(self, sim_dir, tmp_path):
        # relabel the simulated responses and run the logistic path
        _, Y = storage.read_matrix_csv(sim_dir / "Y.csv")
        labels = (Y[:, 0] > np.median(Y[:, 0])).astype(float)
        ycsv = tmp_path / "labels.csv"
        storage.write_matrix_csv(ycsv, labels, ["y"])
        out = tmp_path / "clf"
        assert run_cli(
            "train", "--x", sim_dir / "X.csv", "--y", ycsv,
            "--u", sim_dir / "U.csv", "--out", out, "--seed", 5,
            "--task", "classification", "--max-iters", 20,
        ) == 0
        pred = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--model", out / "model.json", "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", pred,
        ) == 0
        y_hat = np.array([
            float(line.split(",")[1]) for line in pred.read_text().splitlines()[1:]
        ])
        assert np.all((y_hat > 0.0) & (y_hat < 1.0))
        metrics = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", ycsv,
            "--out", metrics, "--task", "classification",
        ) == 0
        got = storage.load_json(metrics)
        assert {"auroc", "accuracy", "mse", "r2"} <= set(got)
        assert got["auroc"] > 0.5  # better than chance on training data


class TestEvaluate:
    def write_predictions(self, path, values):
        lines = ["row_id,y_hat,neighbor_ids"]
        lines += [f"{i},{float(v)!r},0" for i, v in enumerate(values)]
        path.write_text("\n".join(lines) + "\n")

    def test_perfect_predictions(self, tmp_path):
        y = [0.5, 1.5, -0.25, 2.0]
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, y)
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array(y), ["y"])
        out = tmp_path / "m.json"
        assert run_cli("evaluate", "--predictions", pred, "--responses", truth, "--out", out) == 0
        metrics = storage.load_json(out)
        assert metrics["r2"] == pytest.approx(1.0)
        assert metrics["mse"] == 0.0

    @pytest.mark.parametrize("values", [[0.5, 0.5, 0.5], [2.0]])
    def test_degenerate_r2_is_flagged_without_warning(self, tmp_path, values):
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, values)
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.arange(len(values), dtype=float), ["y"])
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(
                "evaluate", "--predictions", pred, "--responses", truth, "--out", out
            ) == 0
        metrics = storage.load_json(out)
        assert metrics["r2"] == 0.0 and metrics["r2_degenerate"] is True

    def test_uninformative_classifier_auroc(self, tmp_path):
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, [0.5, 0.5, 0.5, 0.5])
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array([0.0, 1.0, 0.0, 1.0]), ["y"])
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth,
            "--out", out, "--task", "classification",
        ) == 0
        assert storage.load_json(out)["auroc"] == pytest.approx(0.5)

    def test_four_point_auroc_hand_case(self, tmp_path):
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, [0.1, 0.4, 0.35, 0.8])
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array([0.0, 0.0, 1.0, 1.0]), ["y"])
        out = tmp_path / "m.json"
        run_cli(
            "evaluate", "--predictions", pred, "--responses", truth,
            "--out", out, "--task", "classification",
        )
        assert storage.load_json(out)["auroc"] == pytest.approx(0.75)

    def test_length_mismatch_is_input_error(self, tmp_path):
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, [0.1, 0.2])
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array([1.0]), ["y"])
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth,
            "--out", tmp_path / "m.json",
        ) == 2

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_empty_input_is_input_error(self, tmp_path, task, capsys):
        # a header-only file has no rows to score: no perfect mse of 0.0
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, [])
        truth = tmp_path / "y.csv"
        truth.write_text("y\n")
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth, "--out", out,
            "--task", task,
        ) == 2
        assert not out.exists()
        assert "no predictions to score" in capsys.readouterr().err

    def test_short_prediction_row_is_input_error(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("row_id,y_hat,neighbor_ids\n0,0.5,0\n1\n")
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array([0.5, 1.0]), ["y"])
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth, "--out", out,
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize("side", ["predictions", "responses"])
    def test_non_finite_input_is_input_error(self, tmp_path, side):
        values = [0.5, 1.5, -0.25]
        bad = [0.5, float("nan"), -0.25]
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, bad if side == "predictions" else values)
        truth = tmp_path / "y.csv"
        truth.write_text("y\n" + "\n".join(
            repr(v) for v in (bad if side == "responses" else values)) + "\n")
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth, "--out", out,
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize("side", ["predictions", "omega-true"])
    def test_overflowing_scores_are_refused_in_one_line(
        self, sim_dir, fitted, tmp_path, capsys, side
    ):
        y = storage.read_column_csv(sim_dir / "Y.csv")
        pred = tmp_path / "p.csv"
        self.write_predictions(pred, np.where(np.arange(len(y)) % 2, 1e200, -1e200)
                               if side == "predictions" else y)
        args = ("evaluate", "--predictions", pred, "--responses", sim_dir / "Y.csv")
        if side == "omega-true":
            omega = tmp_path / "omega.csv"
            storage.write_matrix_csv(omega, np.full((len(y), 2), 1e200), ["t0", "t1"])
            args += ("--omega-true", omega, "--model", fitted / "model.json")
        out = tmp_path / "m.json"
        code, err = run_quietly(capsys, *args, "--out", out)
        assert (code, err) == (2, f"error: {out}: refusing to write a non-finite value\n")
        assert not out.exists()

    def test_recovery_against_truth(self, sim_dir, fitted, tmp_path):
        meta = storage.load_json(sim_dir / "meta.json")
        _, omega = storage.read_matrix_csv(sim_dir / "omega_true.csv")
        pred = tmp_path / "p.csv"
        _, Y = storage.read_matrix_csv(sim_dir / "Y.csv")
        self.write_predictions(pred, list(Y[:, 0]))
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", sim_dir / "Y.csv",
            "--out", out, "--omega-true", sim_dir / "omega_true.csv",
            "--model", fitted / "model.json",
        ) == 0
        metrics = storage.load_json(out)
        model = storage.load_model(fitted / "model.json")
        est = model.factorization.dictionary.T @ model.factorization.loadings
        assert metrics["recovery"] == pytest.approx(np.linalg.norm(est - omega.T))
        assert meta["n"] == 60


class TestEvaluateUsesTheLibraryScores:
    def test_regression_with_recovery(self, sim_dir, fitted, tmp_path):
        pred = tmp_path / "pred.csv"
        assert run_cli(
            "predict", "--model", fitted / "model.json", "--x", sim_dir / "X.csv",
            "--u", sim_dir / "U.csv", "--out", pred,
        ) == 0
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", sim_dir / "Y.csv",
            "--out", out, "--omega-true", sim_dir / "omega_true.csv",
            "--model", fitted / "model.json",
        ) == 0
        model = storage.load_model(fitted / "model.json")
        _, omega = storage.read_matrix_csv(sim_dir / "omega_true.csv")
        want = score_predictions(storage.read_column_csv(pred, "y_hat"),
                                 storage.read_column_csv(sim_dir / "Y.csv"))
        want["recovery"] = recovery_error(
            coefficient_matrix(model.factorization), omega.T)
        assert storage.load_json(out) == want

    def test_classification(self, tmp_path):
        rng = np.random.default_rng(2)
        y_hat = rng.uniform(size=40)
        y = (rng.uniform(size=40) < y_hat).astype(float)
        pred = tmp_path / "pred.csv"
        pred.write_text("row_id,y_hat,neighbor_ids\n" + "".join(
            f"{i},{v!r},0\n" for i, v in enumerate(y_hat.tolist())))
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, y, ["y"])
        out = tmp_path / "m.json"
        assert run_cli(
            "evaluate", "--predictions", pred, "--responses", truth,
            "--out", out, "--task", "classification",
        ) == 0
        want = score_predictions(y_hat, y, "classification")
        assert set(want) == {"mse", "r2", "auroc", "accuracy"}
        assert storage.load_json(out) == want


def test_json_output_rejects_non_finite(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        storage.dump_json(path, {"mse": float("nan")})
    assert not path.exists()
    storage.dump_json(path, {"a": 1})
    with pytest.raises(ValueError, match=f"^{path}: refusing to write a non-finite value$"):
        storage.dump_json(path, {"a": [float("inf")]})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        storage.dump_json(path, {"a": float("nan")})
    with pytest.raises(TypeError):
        storage.dump_json(path, {"a": object()})
    assert path.read_bytes() == before
    trace = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match=f"^{trace}: refusing to write a non-finite value$"):
        storage.write_trace_jsonl(trace, [{"objective": float("inf")}])


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("matrix", "a,b\n1.0,2.0\n\n3.0\n", 4),
        ("covariates", "u0,u1\n1.0,x\n\n2.0\n", 4),
        ("predictions", "row_id,y_hat,neighbor_ids\n0,0.5,0\n\n1\n", 4),
        ("matrix", "a,b\n\n\n1.0,2.0\n\n1.0,oops\n", 6),
        # a quoted cell spanning two lines
        ("covariates", 'u0,u1\n1.0,"x\ny"\n2.0\n', 4),
    ],
    ids=["matrix", "covariates", "predictions", "matrix-cell", "covariates-quoted"],
)
def test_malformed_row_is_reported_at_its_line(tmp_path, capsys, name, text, line):
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    if name == "predictions":
        truth = tmp_path / "y.csv"
        storage.write_matrix_csv(truth, np.array([0.5, 1.0]), ["y"])
        assert run_cli(
            "evaluate", "--predictions", path, "--responses", truth,
            "--out", tmp_path / "m.json",
        ) == 2
        assert f"{path}:{line}:" in capsys.readouterr().err
        return
    read = storage.read_matrix_csv if name == "matrix" else storage.read_covariates_csv
    with pytest.raises(ValueError, match=f":{line}:"):
        read(path)


@pytest.mark.parametrize(
    "text, kinds, message",
    [("u0,u1\n1.5,a\n\nnan,b\n", None, ":4: column 'u0' is not finite"),
     ("u0,u1\n1.5,2.0\n\n2.0,x\n", ["continuous", "continuous"],
      ":4: column 'u1' is not a number")],
    ids=["non-finite", "non-numeric"],
)
def test_covariate_cell_error_names_its_file_line(tmp_path, text, kinds, message):
    path = tmp_path / "u.csv"
    path.write_text(text)
    schema = None if kinds is None else (["u0", "u1"], kinds)
    with pytest.raises(ValueError) as err:
        storage.read_covariates_csv(path, schema)
    assert str(err.value).startswith(f"{path}{message}")


def spoil_cell(path, line, column, cell):
    """Replace the cell of ``column`` on file line ``line`` of a CSV."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("cell, what", [("abc", "is not a number"), ("nan", "is not finite")])
@pytest.mark.parametrize(
    "command, flag, column",
    [("train", "--x", "x1"), ("train", "--y", "y"), ("train", "--u", "u1"),
     ("predict", "--x", "x1"), ("predict", "--u", "u1"),
     ("evaluate", "--predictions", "y_hat"), ("evaluate", "--responses", "y"),
     ("evaluate", "--omega-true", "theta1")],
)
def test_bad_numeric_cell_exits_2_naming_file_line_and_column(
    sim_dir, fitted, tmp_path, capsys, command, flag, column, cell, what
):
    out = tmp_path / "out"
    if command == "train":
        # the schema makes every covariate continuous, so "abc" is refused
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(
            {"columns": [{"name": f"u{i}", "kind": "continuous"} for i in range(3)]}))
        args = train_args(sim_dir, out, "--schema", schema, "--max-iters", 2)
    elif command == "predict":
        args = ("predict", "--model", fitted / "model.json", "--x", sim_dir / "X.csv",
                "--u", sim_dir / "U.csv", "--out", out)
    else:
        pred = tmp_path / "pred.csv"
        y = storage.read_column_csv(sim_dir / "Y.csv")
        storage.write_csv(pred, ["row_id", "y_hat", "neighbor_ids"],
                          [[i, v, "0"] for i, v in enumerate(y.tolist())])
        args = ("evaluate", "--predictions", pred, "--responses", sim_dir / "Y.csv",
                "--omega-true", sim_dir / "omega_true.csv",
                "--model", fitted / "model.json", "--out", out)
    path = Path(args[args.index(flag) + 1])
    spoil_cell(path, 3, column, cell)
    capsys.readouterr()
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == f"error: {path}:3: column {column!r} {what}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--x"), ("train", "--y"), ("train", "--u"),
     ("predict", "--x"), ("predict", "--u"),
     ("evaluate", "--predictions"), ("evaluate", "--responses"),
     ("evaluate", "--omega-true")],
)
def test_csv_that_is_not_utf8_exits_2_naming_its_file(
    sim_dir, fitted, tmp_path, capsys, command, flag
):
    out = tmp_path / "out"
    if command == "train":
        args = train_args(sim_dir, out, "--max-iters", 2)
    elif command == "predict":
        args = ("predict", "--model", fitted / "model.json", "--x", sim_dir / "X.csv",
                "--u", sim_dir / "U.csv", "--out", out)
    else:
        pred = tmp_path / "pred.csv"
        y = storage.read_column_csv(sim_dir / "Y.csv")
        storage.write_csv(pred, ["row_id", "y_hat", "neighbor_ids"],
                          [[i, v, "0"] for i, v in enumerate(y.tolist())])
        args = ("evaluate", "--predictions", pred, "--responses", sim_dir / "Y.csv",
                "--omega-true", sim_dir / "omega_true.csv",
                "--model", fitted / "model.json", "--out", out)
    path = Path(args[args.index(flag) + 1])
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n\xe9" + rest)  # a Latin-1 "é" opens row 1
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1
    assert not out.exists()


def test_inputs_with_a_byte_order_mark_give_the_same_artifacts(sim_dir, tmp_path):
    """Spreadsheet tools start a UTF-8 file with a byte-order mark; a
    reader takes it for neither a header name nor JSON."""
    (sim_dir / "config.json").write_text(json.dumps({"max_iters": 5}))
    marked = tmp_path / "marked"
    marked.mkdir()
    for name in ("X.csv", "Y.csv", "U.csv", "config.json"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (sim_dir / name).read_bytes())
    for src in (sim_dir, marked):
        assert run_cli(
            "train", "--x", src / "X.csv", "--y", src / "Y.csv", "--u", src / "U.csv",
            "--config", src / "config.json", "--seed", 5, "--trace", "--out", src / "fit",
        ) == 0
        assert run_cli(
            "predict", "--model", src / "fit" / "model.json", "--x", src / "X.csv",
            "--u", src / "U.csv", "--out", src / "pred.csv",
        ) == 0
    for name in ("fit/model.json", "fit/Z_embedding.csv", "fit/phi.csv",
                 "fit/trace.jsonl", "pred.csv"):
        assert (marked / name).read_bytes() == (sim_dir / name).read_bytes()


@pytest.mark.parametrize(
    "case, message",
    [
        ("config-list", "config file must hold a JSON object"),
        ("config-trailing-comma", "Expecting property name enclosed in double quotes"),
        ("schema-truncated", "Expecting value: line 1 column 14 (char 13)"),
        ("model-truncated", "Expecting property name enclosed in double quotes"),
        ("omega-without-model", "--omega-true requires --model"),
        ("no-y-hat", "missing y_hat column"),
        ("two-column-responses", "expected one column, found 2"),
        ("empty-csv", "empty CSV"),
        ("short-covariates", "covariate table length must match sample count"),
        ("one-class-truth", "AUROC needs both classes present"),
    ],
)
def test_rejected_input_exits_2_with_its_message(sim_dir, tmp_path, capsys, case, message):
    pred, truth = tmp_path / "p.csv", tmp_path / "y.csv"
    pred.write_text("row_id,y_hat,neighbor_ids\n0,0.5,0\n")
    truth.write_text("y\n0.5\n")
    args = ("evaluate", "--predictions", pred, "--responses", truth,
            "--out", tmp_path / "m.json")
    named = None  # the JSON file that a message must name, once
    if case.startswith("config"):
        named = tmp_path / "c.json"
        named.write_text("[1, 2]" if case == "config-list" else '{"l1": 0.1,}')
        args = train_args(sim_dir, tmp_path / "fit", "--config", named)
    elif case == "schema-truncated":
        named = tmp_path / "s.json"
        named.write_text('{"columns": [')
        args = train_args(sim_dir, tmp_path / "fit", "--schema", named)
    elif case == "model-truncated":
        named = tmp_path / "model.json"
        named.write_text("{")
        args = ("predict", "--model", named, "--x", sim_dir / "X.csv",
                "--u", sim_dir / "U.csv", "--out", tmp_path / "p2.csv")
    elif case == "omega-without-model":
        args += ("--omega-true", sim_dir / "omega_true.csv")
    elif case == "no-y-hat":
        pred.write_text("row_id,score\n0,0.5\n")
    elif case == "two-column-responses":
        truth.write_text("y,z\n0.5,1.0\n")
    elif case == "short-covariates":
        table = storage.read_covariates_csv(sim_dir / "U.csv")
        storage.write_covariates_csv(sim_dir / "U.csv", table.take(range(len(table) - 1)))
        args = train_args(sim_dir, tmp_path / "fit")
    elif case == "one-class-truth":
        truth.write_text("y\n1.0\n")
        args += ("--task", "classification")
    else:
        truth.write_bytes(b"")
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    if named is not None:
        assert err.startswith(f"error: {named}: {message}")
        assert err.count(str(named)) == 1


def test_matrix_header_must_match_its_width(tmp_path):
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="header width must match matrix"):
        storage.write_matrix_csv(path, np.zeros((2, 3)), ["a", "b"])
    assert not path.exists()


def test_csv_readers_skip_blank_lines(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("u0,u1\n\n1.5,a\n\n\n-2.0,b\n\n")
    table = storage.read_covariates_csv(path)
    assert table.kinds == ("continuous", "categorical")
    assert table.columns[0].tolist() == [1.5, -2.0]
    assert table.columns[1].tolist() == ["a", "b"]
    path.write_text("a,b\n\n1.5,2.0\n\n")
    assert storage.read_matrix_csv(path)[1].tolist() == [[1.5, 2.0]]


def test_artifacts_are_utf8_under_an_ascii_locale(tmp_path):
    # the C locale without UTF-8 mode makes ASCII the default encoding
    schema, covariates, out = tmp_path / "s.json", tmp_path / "u.csv", tmp_path / "o.csv"
    schema.write_bytes('{"columns": [{"name": "région", "kind": "categorical"}]}'.encode())
    covariates.write_bytes("région\ncafé\nthé\n".encode())
    script = (
        "import sys; from persreg import storage; "
        "schema = storage.read_schema(sys.argv[1]); "
        "storage.write_covariates_csv("
        "sys.argv[3], storage.read_covariates_csv(sys.argv[2], schema))"
    )
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=str(Path(storage.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script, schema, covariates, out],
                   env=env, check=True)
    assert out.read_bytes() == covariates.read_bytes()


@pytest.mark.parametrize(
    "kinds, message",
    [(["continuous", "continuous"], "'u1' is not a number"),
     (["continuous", ""], "kind ''")],
    ids=["non-numeric", "unknown-kind"],
)
def test_covariate_schema_is_checked_against_the_columns(tmp_path, kinds, message):
    path = tmp_path / "u.csv"
    path.write_text("u0,u1\n1.5,a\n")
    with pytest.raises(ValueError, match=message):
        storage.read_covariates_csv(path, (["u0", "u1"], kinds))


@pytest.fixture(params=["json", "matrix", "covariates", "trace", "predict"])
def writer(request, tmp_path):
    """A function ``write(path, version)`` through one artifact writer; each
    integer version writes different bytes, and the version NaN asks the
    writer for a non-finite value."""
    kind = request.param
    if kind == "json":
        return lambda path, v: storage.dump_json(path, {"a": v})
    if kind == "matrix":
        return lambda path, v: storage.write_matrix_csv(path, [float(v)], ["a"])
    if kind == "covariates":
        return lambda path, v: storage.write_covariates_csv(
            path, CovariateTable.continuous([[float(v)]]))
    if kind == "trace":
        return lambda path, v: storage.write_trace_jsonl(path, [{"a": v}])

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    rng = np.random.default_rng(0)
    X, U = rng.normal(size=(8, 2)), rng.normal(size=(8, 1))
    # responses 4 x0 give a coefficient near 4, so x0 = 1e308 overflows
    ds = Dataset(predictors=X, responses=4.0 * X[:, 0],
                 covariates=CovariateTable.continuous(U))
    storage.save_model(inputs / "model.json", fit(ds, HyperParams(max_iters=0), seed=0))
    storage.write_matrix_csv(inputs / "X.csv", X, ["x0", "x1"])
    storage.write_matrix_csv(inputs / "huge.csv", np.full((8, 2), [1e308, 0.0]),
                             ["x0", "x1"])
    storage.write_matrix_csv(inputs / "U.csv", U, ["u0"])

    def predict(path, v):
        # main() turns an OSError into exit 2 and an "error:" line on stderr
        x, k = ("huge.csv", 1) if np.isnan(v) else ("X.csv", v)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run_cli(
                "predict", "--model", inputs / "model.json", "--x", inputs / x,
                "--u", inputs / "U.csv", "--out", path, "--n-neighbors", k,
            )
        if code:
            raise OSError(err.getvalue())

    return predict


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "artifact"
    writer(path, 1)
    before = path.read_bytes()

    def replace_fails(src, dst):
        raise OSError("disk full")

    # a failure after the temporary file is written
    monkeypatch.setattr(storage.os, "replace", replace_fails)
    with pytest.raises(OSError, match="disk full"):
        writer(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["artifact"]


def test_non_finite_value_keeps_the_old_file(tmp_path, writer):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "artifact"
    writer(path, 1)
    before = path.read_bytes()
    with pytest.raises((ValueError, OSError), match="non-finite|Out of range float"):
        writer(path, float("nan"))
    assert path.read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["artifact"]


def test_overwrite_keeps_mode_and_writes_through_symlinks(tmp_path, writer):
    out = tmp_path / "out"
    out.mkdir()
    plain = out / "plain"
    with open(plain, "w"):
        pass
    fresh = out / "fresh"
    writer(fresh, 1)
    assert fresh.stat().st_mode == plain.stat().st_mode

    private = out / "private"
    writer(private, 1)
    before = private.read_bytes()
    private.chmod(0o600)
    writer(private, 2)
    assert private.stat().st_mode & 0o777 == 0o600
    want = tmp_path / "want"
    writer(want, 2)
    assert private.read_bytes() == want.read_bytes()

    link = out / "link"
    link.symlink_to(private)
    writer(link, 3)
    writer(want, 3)
    assert link.is_symlink()
    assert private.read_bytes() == want.read_bytes() != before
    assert private.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in out.iterdir()) == [
        "fresh", "link", "plain", "private"]


def test_auroc_rank_sum_ties_and_separation():
    assert auroc_rank_sum([0.2, 0.8], [0.0, 1.0]) == 1.0
    assert auroc_rank_sum([0.8, 0.2], [0.0, 1.0]) == 0.0
    assert auroc_rank_sum([0.5, 0.5, 0.5], [0.0, 1.0, 0.0]) == 0.5


@pytest.mark.parametrize("seed", range(5))
def test_auroc_rank_sum_matches_scipy_midranks_under_heavy_ties(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 4, size=60) / 4.0
    labels = rng.integers(0, 2, size=60).astype(float)
    labels[:2] = (0.0, 1.0)
    ranks = scipy.stats.rankdata(scores, method="average")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    want = (float(np.sum(ranks[labels == 1.0])) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )
    assert auroc_rank_sum(scores, labels) == want
