"""Command-line behavior: determinism, validation, exit codes, schemas."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mcbridge import cli
from mcbridge.cli import main
from mcbridge.discrete import JointDist
from mcbridge.metrics import GapNode, GapReport
from mcbridge.predictors import TrainConfig, TrainedPredictor, train_predictor
from mcbridge.seeding import derive_rng

QUICK_VERIFY = {
    "levels": [0.5, 2.0],
    "states_per_level": 2,
    "moment_trials": 5,
    "bound_instances": 2,
    "bound_n_mc": 2000,
    "gap_steps": 4,
    "gap_n_mc": 2000,
}


def _write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def copy_dist(tmp_path):
    path = tmp_path / "copy.json"
    assert main(["gen-dist", "--kind", "copy", "--vocab", "3", "--length", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def product_dist(tmp_path):
    path = tmp_path / "product.json"
    marg = json.dumps([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    code = main(
        ["gen-dist", "--kind", "product", "--vocab", "3", "--length", "2", "--marginals", marg, "--out", str(path)]
    )
    assert code == 0
    return str(path)


class TestGenDist:
    def test_uniform_entries(self, tmp_path):
        out = tmp_path / "u.json"
        assert main(["gen-dist", "--kind", "uniform", "--vocab", "2", "--length", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["probs"] == [0.25, 0.25, 0.25, 0.25]

    def test_seeded_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            args = ["gen-dist", "--kind", "dirichlet", "--vocab", "3", "--length", "2",
                    "--seed", "9", "--out", str(out)]
            assert main(args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dirichlet_validates_on_load(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["gen-dist", "--kind", "dirichlet", "--vocab", "3", "--length", "2",
                     "--alpha", "1.0", "--seed", "3", "--out", str(out)]) == 0
        nu = JointDist.load(out)
        assert abs(nu.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, alpha):
        out = tmp_path / "d.json"
        assert main(["gen-dist", "--kind", "dirichlet", "--vocab", "3", "--length", "2",
                     "--alpha", alpha, "--seed", "3", "--out", str(out)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_product_marginals_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["gen-dist", "--kind", "product", "--vocab", "2", "--length", "1",
                     "--marginals", "[[NaN, 1.0]]", "--out", str(out)]) == 2
        assert "marginals" in capsys.readouterr().err
        assert not out.exists()

    def test_cap_exceeded_fails(self, tmp_path):
        code = main(["gen-dist", "--kind", "uniform", "--vocab", "10", "--length", "5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestSample:
    def test_writes_one_sequence_per_line(self, tmp_path, copy_dist):
        out = tmp_path / "run"
        assert main(["sample", "--dist", copy_dist, "--oracle", "--method", "mcb",
                     "--steps", "4", "--chains", "8", "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "samples.txt").read_text().strip().split("\n")
        assert len(lines) == 8
        assert all(len(line.split()) == 2 for line in lines)

    def test_trace_steps_csv(self, tmp_path, copy_dist):
        args = ["sample", "--dist", copy_dist, "--oracle", "--method", "mcb",
                "--steps", "3", "--chains", "5", "--seed", "1"]
        for name, trace in (("plain", []), ("t1", ["--trace"]), ("t2", ["--trace"])):
            assert main(args + trace + ["--out", str(tmp_path / name)]) == 0
        plain, t1, t2 = tmp_path / "plain", tmp_path / "t1", tmp_path / "t2"
        with (t1 / "steps.csv").open() as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["step", "level", "entropy_mean", "switch_rate", "state_norm", "nonfinite"]
        assert [r["step"] for r in rows] == ["0", "1", "2"]
        assert [r["switch_rate"] == "" for r in rows] == [True, False, False]
        assert (t1 / "samples.txt").read_bytes() == (plain / "samples.txt").read_bytes()
        assert (t1 / "steps.csv").read_bytes() == (t2 / "steps.csv").read_bytes()
        assert not (t1 / "trace.jsonl").exists() and not (plain / "steps.csv").exists()

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_predictor_shape_mismatch_exits_2(self, tmp_path, capsys, command):
        dist = tmp_path / "nu43.json"
        assert main(["gen-dist", "--kind", "uniform", "--vocab", "4", "--length", "3", "--out", str(dist)]) == 0
        pred = tmp_path / "predictor.json"
        TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).save(pred)
        out = tmp_path / "r"
        code = main([command, "--dist", str(dist), "--predictor", str(pred), "--chains", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "V=3, L=2" in err and "V=4, L=3" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_zero_chains_exits_2(self, tmp_path, copy_dist, capsys, command):
        out = tmp_path / "r"
        assert main([command, "--dist", copy_dist, "--oracle", "--chains", "0", "--out", str(out)]) == 2
        assert "'chains'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sample", "--method", "sde", "--sde-floor", "6"], "'sde_floor'"),
            (["sample", "--grid", "geometric", "--sde-floor", "10"], "'sde_floor'"),
            (["sample", "--horizon", "0"], "'horizon'"),
            (["sample", "--steps", "0"], "'steps'"),
            (["sample", "--horizon", "800"], "horizon"),
            (["sample", "--method", "ddpm", "--horizon", "800"], "horizon"),
            (["sweep", "--horizon", "800"], "horizon"),
            (["sweep", "--grid", "geometric", "--sde-floor", "10"], "'sde_floor'"),
            (["sweep", "--horizon", "0"], "'horizon'"),
            (["sample", "--method", "sde", "--sde-floor", "0"], "'sde_floor'"),
            (["sample", "--grid", "geometric", "--sde-floor", "-1"], "'sde_floor'"),
            (["sample", "--grid", "geometric", "--sde-floor", "0"], "'sde_floor'"),
            (["sweep", "--grid", "geometric", "--sde-floor", "-1"], "'sde_floor'"),
            (["sweep", "--grid", "geometric", "--sde-floor", "0"], "'sde_floor'"),
            (["sample", "--nucleus-p", "1.5"], "'nucleus_p' must be <= 1.0, got 1.5"),
            (["sample", "--nucleus-p", "0"], "'nucleus_p' must be > 0.0, got 0.0"),
            (["sample", "--temperature", "-2"], "'temperature' must be > 0.0, got -2.0"),
        ],
        ids=["sde-floor-at-horizon", "geometric-floor-past-horizon", "zero-horizon", "zero-steps",
             "mcb-past-bridge-limit", "ddpm-past-bridge-limit", "sweep-past-bridge-limit",
             "sweep-geometric-floor", "sweep-zero-horizon", "sde-zero-floor", "geometric-negative-floor",
             "geometric-zero-floor", "sweep-geometric-negative-floor", "sweep-geometric-zero-floor",
             "nucleus-above-one", "zero-nucleus", "negative-temperature"],
    )
    def test_bad_grid_exits_2_naming_the_option(self, tmp_path, copy_dist, capsys, argv, named):
        out = tmp_path / "r"
        assert main(argv + ["--dist", copy_dist, "--oracle", "--chains", "4", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ode", "sde"])
    def test_horizon_past_the_bridge_limit_runs_without_a_bridge(self, tmp_path, copy_dist, method):
        out = tmp_path / "r"
        assert main(["sample", "--dist", copy_dist, "--oracle", "--method", method, "--horizon", "800",
                     "--steps", "8", "--chains", "4", "--out", str(out)]) == 0
        assert len((out / "samples.txt").read_text().splitlines()) == 4

    def test_requires_predictor_source(self, tmp_path, copy_dist):
        code = main(["sample", "--dist", copy_dist, "--method", "mcb", "--out", str(tmp_path / "r")])
        assert code == 2

    def test_sde_method_with_floor(self, tmp_path, copy_dist):
        out = tmp_path / "sde"
        assert main(["sample", "--dist", copy_dist, "--oracle", "--method", "sde",
                     "--steps", "16", "--sde-floor", "0.05", "--chains", "8",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "samples.txt").read_text().strip().split("\n")
        assert len(lines) == 8

    def test_geometric_grid(self, tmp_path, copy_dist):
        out = tmp_path / "geom"
        assert main(["sample", "--dist", copy_dist, "--oracle", "--method", "mcb",
                     "--grid", "geometric", "--steps", "8", "--chains", "8",
                     "--seed", "2", "--out", str(out)]) == 0

    def test_geometric_grid_steps_down_to_the_given_floor(self):
        cfg = cli._sampler_config({**cli._SAMPLE_DEFAULTS, "grid": "geometric", "sde_floor": 1e-4})
        assert cfg.grid.levels[-2:] == (1e-4, 0.0)

    def test_deterministic_outputs(self, tmp_path, copy_dist):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["sample", "--dist", copy_dist, "--oracle", "--method", "ddpm",
                         "--steps", "4", "--chains", "16", "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "samples.txt").read_bytes())
        assert outs[0] == outs[1]


class TestTrainCommand:
    def test_end_to_end_train_then_sample(self, tmp_path, copy_dist):
        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--steps", "3000", "--seed", "2",
                     "--out", str(out)]) == 0
        pred_file = out / "predictor.json"
        assert pred_file.exists()

        with (out / "loss_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3000
        losses = np.array([float(r["loss"]) for r in rows])
        window = len(losses) // 10
        assert losses[-window:].mean() < losses[:window].mean()

        run = tmp_path / "trained_run"
        assert main(["sample", "--dist", copy_dist, "--predictor", str(pred_file), "--method", "mcb",
                     "--steps", "8", "--chains", "32", "--seed", "3", "--out", str(run)]) == 0
        assert (run / "samples.txt").exists()

    @pytest.mark.parametrize("steps", [0, 1, 4000])
    def test_loss_curve_matches_dictwriter(self, tmp_path, copy_dist, steps):
        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--steps", str(steps), "--seed", "2", "--out", str(out)]) == 0
        losses = train_predictor(JointDist.load(copy_dist), TrainConfig(steps=steps, seed=2)).loss_history
        want = io.StringIO(newline="")
        writer = csv.DictWriter(want, fieldnames=["step", "loss"])
        writer.writeheader()
        for i, v in enumerate(losses):
            writer.writerow({"step": i, "loss": repr(float(v))})
        assert (out / "loss_curve.csv").read_bytes() == want.getvalue().encode("utf-8")

    @pytest.mark.parametrize("steps", [0, 1])
    def test_summary_is_strict_json(self, tmp_path, copy_dist, steps):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--steps", str(steps), "--out", str(out)]) == 0
        doc = json.loads((out / "train_summary.json").read_text(), parse_constant=reject)
        first, last, improved = doc["first_window_loss"], doc["last_window_loss"], doc["improved"]
        if steps == 0:
            assert (first, last, improved) == (None, None, None)
        else:
            assert first == last and improved is False

    def test_predictor_file_round_trips(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, {"u_min": 1, "hidden": 8})
        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--config", cfg, "--steps", "50", "--seed", "2",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "predictor.json").read_text())
        assert list(doc["config"]) == ["vocab", "length", *(f.name for f in fields(TrainConfig))]
        assert isinstance(doc["config"]["u_min"], float)  # an int in the config file is written as a float
        want = train_predictor(JointDist.load(copy_dist), TrainConfig(steps=50, hidden=8, u_min=1.0, seed=2))
        loaded = TrainedPredictor.load(out / "predictor.json")
        assert (loaded.vocab, loaded.length, loaded.config) == (3, 2, want.config)
        for key, value in want.params.items():
            np.testing.assert_array_equal(loaded.params[key], value)

    @pytest.mark.parametrize("flag", ["--learning-rate", "--u-min", "--horizon"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_option_exits_2(self, tmp_path, copy_dist, capsys, flag, value):
        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--steps", "2", flag, value, "--out", str(out)]) == 2
        assert repr(flag[2:].replace("-", "_")) in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path, copy_dist, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. TiB for an array")

        monkeypatch.setattr(cli, "train_predictor", exhausted)
        out = tmp_path / "train"
        assert main(["train", "--dist", copy_dist, "--batch", "100000000000", "--out", str(out)]) == 2
        assert "out of memory" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_flag_bypasses_model_file(self, tmp_path, copy_dist):
        run = tmp_path / "oracle_run"
        code = main(["sample", "--dist", copy_dist, "--oracle", "--predictor", "/nonexistent.json",
                     "--method", "mcb", "--steps", "2", "--chains", "4", "--out", str(run)])
        assert code == 0


class TestSweep:
    def test_row_count_and_determinism(self, tmp_path, copy_dist):
        cfg = _write_config(
            tmp_path,
            {"methods": ["mcb", "ode"], "steps_list": [1, 2, 4], "temperatures": [1.0],
             "nucleus_list": [1.0], "chains": 512},
        )
        csvs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--dist", copy_dist, "--oracle", "--config", cfg,
                         "--seed", "5", "--out", str(out)]) == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1]
        with (tmp_path / "s1" / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 2 methods x 3 step counts x 1 tau x 1 p

    def test_sharpening_reduces_endpoint_entropy(self, tmp_path, copy_dist):
        cfg = _write_config(
            tmp_path,
            {"methods": ["mcb"], "steps_list": [16], "temperatures": [0.7, 1.0],
             "nucleus_list": [1.0], "chains": 4096},
        )
        out = tmp_path / "tau"
        assert main(["sweep", "--dist", copy_dist, "--oracle", "--config", cfg,
                     "--seed", "6", "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            rows = {float(r["temperature"]): r for r in csv.DictReader(fh)}
        sharp, plain = rows[0.7], rows[1.0]
        pooled = float(sharp["entropy_se"]) + float(plain["entropy_se"])
        assert float(sharp["entropy"]) <= float(plain["entropy"]) + 2 * pooled

    def test_csv_schema_round_trip(self, tmp_path, copy_dist):
        cfg = _write_config(
            tmp_path, {"methods": ["mcb"], "steps_list": [2], "chains": 128}, "s.json"
        )
        out = tmp_path / "schema"
        assert main(["sweep", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(out)]) == 0
        with (out / "sweep.csv").open() as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "method", "steps", "temperature", "nucleus_p", "chains",
                "nll", "nll_se", "nll_zero_count", "entropy", "entropy_se",
                "tv", "tv_noise_mean", "tv_noise_sd",
            ]
            for row in reader:
                float(row["nll"]), float(row["tv"])  # parse back

    @pytest.mark.parametrize(
        "doc, named",
        [({"steps_list": [4, 0]}, "'steps_list'"), ({"temperatures": [1.0, -1.0]}, "temperature"),
         ({"methods": ["mcb", "bogus"]}, "'bogus'"), ({"temperatures": [1.0, -2.0]}, "'temperatures' must be > 0.0, got -2.0"),
         ({"nucleus_list": [1.0, 0.0]}, "'nucleus_list' must be > 0.0, got 0.0"),
         ({"nucleus_list": [1.5]}, "'nucleus_list' must be <= 1.0, got 1.5")],
        ids=["zero-steps", "negative-temperature", "unknown-method", "negative-temperature-named",
             "zero-nucleus", "nucleus-above-one"],
    )
    def test_bad_cell_exits_2_before_writing(self, tmp_path, copy_dist, capsys, doc, named):
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_passes_on_product_law(self, tmp_path, product_dist):
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        out = tmp_path / "verify"
        assert main(["verify", "--dist", product_dist, "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["all_passed"]
        bound = [c for c in summary["checks"] if c["check"] == "kernel_kl_bound"][0]
        assert bound["passed"]

    def test_passes_on_copy_law_with_strict_gap(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        out = tmp_path / "verify"
        assert main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["all_passed"]
        assert summary["gap"]["strictly_positive"]

    @pytest.mark.parametrize("seed", [0, 3, 5, 7, 39])
    def test_product_law_bound_holds_within_rounding(self, tmp_path, product_dist, seed):
        # KL, multi-information and SE are all 0 up to rounding on a product
        # law; these seeds put the margin at 5e-18..8e-17 without the slack
        doc = {**QUICK_VERIFY, "gap_steps": 1, "gap_nodes": 1, "gap_n_mc": 1000}
        cfg = _write_config(tmp_path, doc)
        out = tmp_path / "verify"
        main(["verify", "--dist", product_dist, "--config", cfg, "--seed", str(seed), "--out", str(out)])
        summary = json.loads((out / "verify_summary.json").read_text())
        bound = [c for c in summary["checks"] if c["check"] == "kernel_kl_bound"][0]
        assert bound["threshold"] == 1e-12
        assert bound["passed"], bound

    def test_seeded_reruns_are_byte_identical(self, tmp_path, copy_dist):
        # the gap nodes run on forked workers; the files must not show it
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        names = ("checks.csv", "gap_nodes.csv", "verify_summary.json")
        runs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in names])
        assert runs[0] == runs[1]

    def test_checks_csv_holds_the_records_of_the_check_functions(self, tmp_path, copy_dist):
        # each check runs on the stream (seed, "verify", name) documented for verify
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        out = tmp_path / "verify"
        assert main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
        nu, opts = JointDist.load(copy_dist), {**cli._VERIFY_DEFAULTS, **QUICK_VERIFY, "seed": 2}
        records = [
            cli.check_factorization(nu, opts, derive_rng(2, "verify", "factorization")),
            cli.check_moments(nu, opts, derive_rng(2, "verify", "moments")),
            cli.check_kernel_bound(nu, opts, derive_rng(2, "verify", "kernel-bound")),
            cli.check_gap(nu, opts, derive_rng(2, "verify", "gap"))[0],
        ]
        with (out / "checks.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{k: repr(v) if isinstance(v, float) else str(v) for k, v in r.items()} for r in records]

    def test_corrupted_distribution_fails_before_checks(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"V": 2, "L": 1, "probs": [0.7, 0.7]}))
        out = tmp_path / "verify"
        assert main(["verify", "--dist", str(bad), "--out", str(out)]) == 2
        assert not (out / "verify_summary.json").exists()

    def test_broken_tolerance_flips_exit_status(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, {**QUICK_VERIFY, "identity_tol": 0.0}, "broken.json")
        out = tmp_path / "verify"
        assert main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "1",
                     "--out", str(out)]) == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        failing = [c["check"] for c in summary["checks"] if not c["passed"]]
        assert failing == ["factorization_identity"]

    @pytest.mark.parametrize("horizon", [80.0, 700.0])
    def test_gap_far_from_the_data_passes_within_rounding(self, tmp_path, horizon):
        # beyond u ~ 40 both estimates are the prior rows up to rounding, so
        # those nodes read one constant negative squared-error difference
        # (~3e-32) with an SE of exactly 0
        dist = tmp_path / "d.json"
        assert main(["gen-dist", "--kind", "dirichlet", "--vocab", "3", "--length", "2", "--alpha", "0.8",
                     "--seed", "1", "--out", str(dist)]) == 0
        cfg = _write_config(tmp_path, {"horizon": horizon, "gap_n_mc": 1000, "bound_n_mc": 1000})
        out = tmp_path / "verify"
        assert main(["verify", "--dist", str(dist), "--config", cfg, "--out", str(out)]) == 0
        with (out / "gap_nodes.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["gap"]) < 0.0 and float(r["gap_se"]) == 0.0 for r in rows)

    @pytest.mark.parametrize(
        "gap, se, passed",
        [(-0.01, 1e-3, False), (-1e-25, 0.0, False), (-1e-31, 0.0, True), (-1e-31, 1e-3, True)],
        ids=["below-3-se", "above-rounding", "within-rounding", "within-3-se"],
    )
    def test_gap_check_fails_only_outside_se_and_rounding(self, monkeypatch, copy3x2, gap, se, passed):
        # interval 1's node has weight and coefficient 1, so its rounding floor
        # is dim * (4 eps)^2 = 4.7e-30 on the copy 3x2 law
        nodes = [GapNode(0, 1.0, 2.0, 1.0, 1.0, 0.2, 1e-3, 0.1, 1e-3, 0.1, 1e-3),
                 GapNode(1, 2.0, 1.0, 1.0, 1.0, 0.0, 0.0, -gap, 0.0, gap, se)]
        report = GapReport(nodes=nodes, n_mc=1000)
        monkeypatch.setattr(cli, "denoising_gap", lambda *args: report)
        record, got = cli.check_gap(copy3x2, dict(cli._VERIFY_DEFAULTS), derive_rng(0, "gap"))
        assert got is report
        assert record["passed"] is passed
        assert record["statistic"] == report.total_gap > 0.0

    def test_gap_nodes_csv_written(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        out = tmp_path / "verify"
        main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "1", "--out", str(out)])
        with (out / "gap_nodes.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3  # gap_steps x default 3 nodes

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"levels": []}, "levels"),
            ({"levels": [0.5, 0.0]}, "levels"),
            ({"levels": [math.inf]}, "levels"),
            ({"states_per_level": 0}, "states_per_level"),
            ({"moment_trials": 0}, "moment_trials"),
            ({"moment_trials": -3}, "moment_trials"),
            ({"bound_instances": 0}, "bound_instances"),
            ({"bound_n_mc": 999}, "bound_n_mc"),
            ({"gap_steps": 0}, "gap_steps"),
            ({"gap_nodes": 0}, "gap_nodes"),
            ({"gap_n_mc": 10}, "gap_n_mc"),
            ({"gap_sigma": -3.0}, "gap_sigma"),
            ({"gap_sigma": math.nan}, "gap_sigma"),
            ({"gap_sigma": 0.0}, "gap_sigma"),
            ({"bound_sigma": -1.0}, "bound_sigma"),
            ({"bound_sigma": math.nan}, "bound_sigma"),
            ({"bound_sigma": math.inf}, "bound_sigma"),
            ({"identity_tol": math.inf}, "identity_tol"),
            ({"identity_tol": -1e-12}, "identity_tol"),
            ({"moment_tol": math.nan}, "moment_tol"),
            ({"bound_u_next": 2.0}, "bound_u_next"),
            ({"bound_u_next": -0.5}, "bound_u_next"),
            ({"bound_u_k": 800.0}, "bound_u_k"),
            ({"horizon": -1.0}, "horizon"),
            ({"horizon": 800.0}, "horizon"),
        ],
    )
    def test_vacuous_option_exits_2_naming_key(self, tmp_path, copy_dist, capsys, patch, key):
        # each of these used to pass every check without testing anything, or
        # (the levels) to exit 2 only after the earlier checks had run
        cfg = _write_config(tmp_path, {**QUICK_VERIFY, **patch})
        out = tmp_path / "verify"
        assert main(["verify", "--dist", copy_dist, "--config", cfg, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_law_beyond_enumeration_cap_exits_2_before_writing(self, tmp_path, capsys):
        dist = tmp_path / "u2x13.json"
        dist.write_text(json.dumps({"V": 2, "L": 13, "probs": [1.0 / 8192] * 8192}))
        out = tmp_path / "verify"
        assert main(["verify", "--dist", str(dist), "--out", str(out)]) == 2
        assert "enumeration cap" in capsys.readouterr().err
        assert not out.exists()


class TestConfigTypes:
    @pytest.mark.parametrize(
        "doc, key",
        [({"steps": [1]}, "steps"), ({"chains": None}, "chains"), ({"temperature": "hot"}, "temperature"),
         ({"chains": 2.5}, "chains"), ({"seed": True}, "seed")],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, copy_dist, capsys, doc, key):
        cfg = _write_config(tmp_path, doc)
        code = main(["sample", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [({"steps_list": [None]}, "steps_list"), ({"steps_list": [4, 2.5]}, "steps_list"),
         ({"temperatures": ["hot"]}, "temperatures"), ({"methods": [1]}, "methods")],
    )
    def test_wrong_list_element_type_exits_2(self, tmp_path, copy_dist, capsys, doc, key):
        cfg = _write_config(tmp_path, doc)
        code = main(["sweep", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_temperature_exits_2(self, tmp_path, copy_dist, capsys, value):
        cfg = _write_config(tmp_path, {"method": "sde", "temperature": value, "steps": 2, "chains": 4})
        out = tmp_path / "r"
        code = main(["sample", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "temperature" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path, copy_dist, capsys):
        cfg = _write_config(tmp_path, {"temprature": 0.5, "steps": 2, "chains": 4})
        out = tmp_path / "r"
        code = main(["sample", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "'temprature'" in capsys.readouterr().err
        assert not out.exists()

    def test_int_accepted_for_float_default(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, {"temperature": 1, "horizon": 6, "steps": 2, "chains": 4})
        assert main(["sample", "--dist", copy_dist, "--oracle", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        opts = json.loads((tmp_path / "r" / "sample_summary.json").read_text())["options"]
        assert [(v, type(v)) for v in (opts["temperature"], opts["horizon"])] == [(1.0, float), (6.0, float)]

    @pytest.mark.parametrize("command", ["gen-dist", "train", "sample", "sweep", "verify"])
    def test_non_finite_float_option_exits_2_naming_key(self, tmp_path, copy_dist, capsys, command):
        # every float option (and every float list), as a JSON integer too large for a float, NaN and Infinity
        defaults, argv = {
            "gen-dist": (cli._GEN_DIST_DEFAULTS, ["--kind", "dirichlet"]),
            "train": (cli._TRAIN_DEFAULTS, ["--dist", copy_dist, "--steps", "2"]),
            "sample": (cli._SAMPLE_DEFAULTS, ["--dist", copy_dist, "--oracle", "--steps", "2", "--chains", "4"]),
            "sweep": (cli._SWEEP_DEFAULTS, ["--dist", copy_dist, "--oracle", "--chains", "4"]),
            "verify": (cli._VERIFY_DEFAULTS, ["--dist", copy_dist]),
        }[command]
        floats = [k for k, d in defaults.items() if isinstance(d[0] if isinstance(d, list) else d, float)]
        assert floats
        out = tmp_path / "out"
        for key in floats:
            for value in (10**400, math.nan, math.inf):
                cfg = _write_config(tmp_path, {key: [value] if isinstance(defaults[key], list) else value})
                assert main([command, *argv, "--config", cfg, "--out", str(out)]) == 2, (key, value)
                assert repr(key) in capsys.readouterr().err, (key, value)
                assert not out.exists(), (key, value)

    @pytest.mark.parametrize("where", ["u_min", "w1"])
    def test_non_finite_predictor_number_exits_2_naming_key(self, tmp_path, capsys, where):
        out = tmp_path / "r"
        for value in (10**400, math.nan, math.inf):
            doc = TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).to_json_dict()
            if where == "u_min":
                doc["config"]["u_min"] = value
            else:
                doc["weights"]["w1"][0] = value
            path = tmp_path / "predictor.json"
            path.write_text(json.dumps(doc))
            assert main(["sample", "--predictor", str(path), "--steps", "2", "--chains", "4", "--out", str(out)]) == 2
            assert where in capsys.readouterr().err, value
            assert not out.exists(), value


class TestSeedRange:
    def _argv(self, command: str, dist: str) -> list[str]:
        return {
            "gen-dist": ["--kind", "dirichlet"],
            "train": ["--dist", dist, "--steps", "2"],
            "sample": ["--dist", dist, "--oracle", "--steps", "2", "--chains", "4"],
            "sweep": ["--dist", dist, "--oracle", "--chains", "4"],
            "verify": ["--dist", dist],
        }[command]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["gen-dist", "train", "sample", "sweep", "verify"])
    def test_out_of_range_seed_exits_2_naming_it(self, tmp_path, copy_dist, capsys, command, seed):
        # derive_rng keeps the low 64 bits, so -1 would replay seed 2**64 - 1
        out = tmp_path / "out"
        assert main([command, *self._argv(command, copy_dist), "--seed", str(seed), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-dist", "sample"])
    def test_largest_seed_is_accepted(self, tmp_path, copy_dist, command):
        argv = [command, *self._argv(command, copy_dist), "--seed", str(2**64 - 1), "--out", str(tmp_path / "out")]
        assert main(argv) == 0


class TestLongIntegers:
    """A JSON integer too long for Python to convert reads as +-inf, so it is rejected naming its key."""

    LONG = "9" * 5000

    def _fails_naming(self, argv: list[str], capsys, named: str) -> None:
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not Path(argv[-1]).exists()

    def test_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"alpha": -' + self.LONG + "}")
        argv = ["gen-dist", "--kind", "dirichlet", "--config", str(cfg), "--out", str(tmp_path / "d.json")]
        self._fails_naming(argv, capsys, "'alpha'")

    def test_distribution_entry(self, tmp_path, capsys):
        path = tmp_path / "nu.json"
        path.write_text('{"V": 3, "L": 2, "probs": [' + ", ".join([self.LONG] + ["0"] * 8) + "]}")
        argv = ["sample", "--dist", str(path), "--oracle", "--chains", "4", "--out", str(tmp_path / "r")]
        self._fails_naming(argv, capsys, "'probs'")

    def test_predictor_weight(self, tmp_path, capsys):
        doc = TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).to_json_dict()
        doc["weights"]["w1"][0] = "LONG"
        path = tmp_path / "predictor.json"
        path.write_text(json.dumps(doc).replace('"LONG"', self.LONG))
        argv = ["sample", "--predictor", str(path), "--steps", "2", "--chains", "4", "--out", str(tmp_path / "r")]
        self._fails_naming(argv, capsys, "w1")

    def test_marginals_string(self, tmp_path, capsys):
        argv = ["gen-dist", "--kind", "product", "--vocab", "2", "--length", "1",
                "--marginals", f"[[{self.LONG}, 0]]", "--out", str(tmp_path / "d.json")]
        self._fails_naming(argv, capsys, "marginals")


class TestDistributionDocuments:
    @pytest.mark.parametrize(
        "patch, named",
        [
            ({"V": "3", "L": 2.9, "probs": [str(1 / 9)] * 9}, "'V'"),
            ({"V": "3"}, "'V'"),
            ({"V": True}, "'V'"),
            ({"L": 2.9}, "'L'"),
            ({"L": 2.0}, "'L'"),
            ({"probs": [str(1 / 9)] * 9}, "'probs'"),
            ({"probs": [None] + [1 / 8] * 8}, "'probs'"),
            ({"probs": 1.0}, "'probs'"),
        ],
    )
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, patch, named):
        path = tmp_path / "nu.json"
        path.write_text(json.dumps({"V": 3, "L": 2, "probs": [1 / 9] * 9, **patch}))
        code = main(["sample", "--dist", str(path), "--oracle", "--chains", "4", "--out", str(tmp_path / "r")])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("vocab, length", [(10, 5000), (10**9, 10**9), (2, 10**9)])
    def test_huge_space_exits_2_naming_v_and_l(self, tmp_path, capsys, vocab, length):
        # V^L is compared against the table without building a huge integer
        path = tmp_path / "nu.json"
        path.write_text(json.dumps({"V": vocab, "L": length, "probs": [1.0]}))
        code = main(["sample", "--dist", str(path), "--oracle", "--chains", "4", "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"V={vocab}, L={length}" in err and "probs has shape (1,)" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nu.json"
        path.write_text(json.dumps({"V": 3, "L": 2, "probs": [1 / 9] * 9, "Vocab": 3}))
        out = tmp_path / "r"
        assert main(["sample", "--dist", str(path), "--oracle", "--chains", "4", "--out", str(out)]) == 2
        assert "'Vocab'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nu.json"
        path.write_text(json.dumps({"V": 3, "probs": [1 / 9] * 9}))
        code = main(["sample", "--dist", str(path), "--oracle", "--chains", "4", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "'L'" in capsys.readouterr().err


class TestPredictorDocuments:
    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "config": {**d["config"], "bogus": 1}}, "'bogus'"),
            (lambda d: {**d, "config": None}, "'config'"),
            (lambda d: {**d, "config": {**d["config"], "steps": "x"}}, "'steps'"),
            (lambda d: {**d, "config": {**d["config"], "weighting": "constant"}}, "'weighting'"),
        ],
        ids=["top-level-list", "unknown-config-key", "null-config", "string-steps", "weighting-key"],
    )
    def test_malformed_predictor_exits_2(self, tmp_path, capsys, mutate, named):
        doc = TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).to_json_dict()
        path = tmp_path / "predictor.json"
        path.write_text(json.dumps(mutate(doc)))
        code = main(["sample", "--predictor", str(path), "--steps", "2", "--chains", "4", "--out", str(tmp_path / "r")])
        assert code == 2
        assert named in capsys.readouterr().err


# Each command's flags; the value flags are generated from the defaults tables.
_FLAGS = {
    "gen-dist": {"--kind", "--vocab", "--length", "--alpha", "--marginals"},
    "train": {"--dist", "--steps", "--batch", "--learning-rate", "--hidden", "--u-min", "--horizon"},
    "sample": {"--dist", "--oracle", "--predictor", "--grid", "--horizon", "--sde-floor", "--chains",
               "--method", "--steps", "--temperature", "--nucleus-p", "--trace"},
    "sweep": {"--dist", "--oracle", "--predictor", "--grid", "--horizon", "--sde-floor", "--chains"},
    "verify": {"--dist"},
}


class TestFlags:
    def test_each_command_has_its_flags(self):
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        got = {name: {s for a in p._actions for s in a.option_strings} for name, p in commands.items()}
        assert got == {name: flags | {"-h", "--help", "--config", "--seed", "--out"} for name, flags in _FLAGS.items()}

    def test_value_flags_parse_to_the_default_type(self):
        args = cli.build_parser().parse_args(["sample", "--out", "r", "--horizon", "6", "--steps", "3", "--grid", "fm"])
        assert [(v, type(v)) for v in (args.horizon, args.steps, args.grid)] == [(6.0, float), (3, int), ("fm", str)]

    @pytest.mark.parametrize(
        "argv, doc, accepted",
        [
            (["sample", "--method", "bogus"], {}, "('mcb', 'ddpm', 'ode', 'sde')"),
            (["sample", "--grid", "bogus"], {}, "('fm', 'uniform', 'geometric')"),
            (["sample"], {"method": "sde", "grid": "bogus"}, "('fm', 'uniform', 'geometric')"),
            (["gen-dist", "--kind", "bogus"], {}, "('uniform', 'product', 'copy', 'dirichlet')"),
        ],
        ids=["method-flag", "grid-flag", "sde-grid-config", "kind-flag"],
    )
    def test_unknown_value_exits_2_naming_it(self, tmp_path, copy_dist, capsys, argv, doc, accepted):
        if argv[0] == "sample":
            argv = argv + ["--dist", copy_dist, "--oracle", "--steps", "2", "--chains", "4"]
        out = tmp_path / "out"
        assert main(argv + ["--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and accepted in err
        assert not out.exists()


class TestFlagOverridesConfig:
    def test_flag_wins(self, tmp_path):
        cfg = _write_config(tmp_path, {"kind": "uniform", "vocab": 2, "length": 1})
        out = tmp_path / "d.json"
        assert main(["gen-dist", "--config", cfg, "--vocab", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["V"] == 3 and doc["L"] == 1


# Top-level modules that `import mcbridge.cli` loads beyond `import numpy`
# (Python 3.11). Each is paid for in every fresh process; scipy, or any other
# new import, fails the test until it is added here on purpose.
_CLI_IMPORTS = {
    "__future__", "_blake2", "_csv", "_hashlib", "_json", "argparse", "copy",
    "csv", "dataclasses", "gettext", "hashlib", "json", "mcbridge",
}


def test_cli_import_adds_only_listed_modules():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy\n"
        "top = lambda: {name.partition('.')[0] for name in sys.modules}\n"
        "before = top()\n"
        "import mcbridge.cli\n"
        "print(*sorted(top() - before))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "mcbridge" in added
    assert added <= _CLI_IMPORTS, sorted(added - _CLI_IMPORTS)


def test_module_entry_point_runs_a_command_and_exits_2_on_bad_input(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mcbridge", *argv], env=env, capture_output=True, text=True)

    out = tmp_path / "copy.json"
    ok = run("gen-dist", "--kind", "copy", "--out", str(out))
    assert ok.returncode == 0, ok.stderr
    assert JointDist.load(out).probs.size == 9
    bad = run("gen-dist", "--vocab", "0", "--out", str(tmp_path / "bad.json"))
    assert bad.returncode == 2
    assert "error:" in bad.stderr
    assert not (tmp_path / "bad.json").exists()
