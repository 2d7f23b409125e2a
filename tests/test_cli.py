"""Command-line behavior: determinism, validation, exit codes, schemas."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mcbridge.cli import main
from mcbridge.discrete import JointDist
from mcbridge.predictors import TrainConfig, TrainedPredictor

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

    def test_trace_jsonl(self, tmp_path, copy_dist):
        out = tmp_path / "run"
        assert main(["sample", "--dist", copy_dist, "--oracle", "--method", "mcb",
                     "--steps", "3", "--chains", "2", "--seed", "1", "--trace", "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "trace.jsonl").read_text().strip().split("\n")]
        assert len(records) == 2 * 3
        assert {"chain", "step", "level", "entropy_mean", "endpoint", "state"} <= set(records[0])

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

    def test_gap_nodes_csv_written(self, tmp_path, copy_dist):
        cfg = _write_config(tmp_path, QUICK_VERIFY)
        out = tmp_path / "verify"
        main(["verify", "--dist", copy_dist, "--config", cfg, "--seed", "1", "--out", str(out)])
        with (out / "gap_nodes.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 3  # gap_steps x default 3 nodes


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


class TestPredictorDocuments:
    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "config": {**d["config"], "bogus": 1}}, "'bogus'"),
            (lambda d: {**d, "config": None}, "'config'"),
            (lambda d: {**d, "config": {**d["config"], "steps": "x"}}, "'steps'"),
        ],
        ids=["top-level-list", "unknown-config-key", "null-config", "string-steps"],
    )
    def test_malformed_predictor_exits_2(self, tmp_path, capsys, mutate, named):
        doc = TrainedPredictor.initial(3, 2, TrainConfig(hidden=4, steps=0)).to_json_dict()
        path = tmp_path / "predictor.json"
        path.write_text(json.dumps(mutate(doc)))
        code = main(["sample", "--predictor", str(path), "--steps", "2", "--chains", "4", "--out", str(tmp_path / "r")])
        assert code == 2
        assert named in capsys.readouterr().err


class TestFlagOverridesConfig:
    def test_flag_wins(self, tmp_path):
        cfg = _write_config(tmp_path, {"kind": "uniform", "vocab": 2, "length": 1})
        out = tmp_path / "d.json"
        assert main(["gen-dist", "--config", cfg, "--vocab", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["V"] == 3 and doc["L"] == 1
