"""Command-line front end.

Commands: gen-dist, train, sample, sweep, verify. Every command takes an
optional --config JSON file; explicit flags override file values, and file
values override built-in defaults. All outputs are a pure function of
(config, seed): no timestamps or environment data are written, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .discrete import JointDist, encode, json_type_matches, make_joint
from .kernels import NoiseGrid, forward_sample
from .metrics import (
    denoising_gap,
    empirical_tv,
    factorization_check,
    moment_check,
    oracle_nll,
    tv_noise_scale,
    unigram_entropy,
    unigram_entropy_se,
)
from .oracle import MarginalTable, kernel_kl_estimate
from .predictors import OraclePredictor, TrainConfig, TrainedPredictor, train_predictor
from .samplers import SamplerConfig, batch_sample, batch_sample_traced
from .seeding import derive_rng


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _merged(defaults: dict, config: dict, args: argparse.Namespace) -> dict:
    """defaults <- config-file values <- explicitly passed flags."""
    for key in config:
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}; this command takes {sorted(defaults)}")
    out = dict(defaults)
    for key in defaults:
        if key in config:
            if not json_type_matches(defaults[key], config[key]):
                raise ValueError(f"config key {key!r} must have the JSON type of its default {defaults[key]!r}")
            out[key] = config[key]
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            out[key] = flag
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _build_grid(kind: str, horizon: float, steps: int, sde_floor: float, method: str) -> NoiseGrid:
    if method == "sde":
        return NoiseGrid.uniform(horizon, steps, terminal=sde_floor)
    if kind == "fm":
        return NoiseGrid.fm_uniform(horizon, steps)
    if kind == "uniform":
        return NoiseGrid.uniform(horizon, steps)
    if kind == "geometric":
        return NoiseGrid.geometric(horizon, steps, floor=max(sde_floor, 1e-3))
    raise ValueError(f"unknown grid kind {kind!r}")


def _load_predictor(args: argparse.Namespace, nu: JointDist | None):
    if getattr(args, "oracle", None):
        if nu is None:
            raise ValueError("--oracle needs --dist")
        return OraclePredictor(nu)
    path = getattr(args, "predictor", None)
    if path is None:
        raise ValueError("provide --oracle or --predictor FILE")
    return TrainedPredictor.load(path)


def cmd_gen_dist(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _merged(
        {"kind": "uniform", "vocab": 3, "length": 2, "alpha": 1.0, "marginals": None, "seed": 0},
        config,
        args,
    )
    marginals = opts["marginals"]
    if marginals is not None:
        try:
            marginals = np.asarray(json.loads(marginals) if isinstance(marginals, str) else marginals, dtype=float)
        except TypeError as exc:
            raise ValueError(f"'marginals' must be an (L, V) array of numbers: {exc}") from exc
    nu = make_joint(
        opts["kind"],
        int(opts["vocab"]),
        int(opts["length"]),
        seed=int(opts["seed"]),
        alpha=float(opts["alpha"]),
        marginals=marginals,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nu.save(out)
    JointDist.load(out)  # validate the written artifact
    print(f"wrote {out} ({opts['kind']}, V={nu.vocab}, L={nu.length})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _merged(
        {
            "steps": 20000,
            "batch": 64,
            "learning_rate": 0.05,
            "hidden": 64,
            "u_min": 0.01,
            "horizon": 6.0,
            "seed": 0,
        },
        config,
        args,
    )
    nu = JointDist.load(args.dist)
    cfg = TrainConfig(
        steps=int(opts["steps"]),
        batch=int(opts["batch"]),
        learning_rate=float(opts["learning_rate"]),
        hidden=int(opts["hidden"]),
        u_min=float(opts["u_min"]),
        horizon=float(opts["horizon"]),
        seed=int(opts["seed"]),
    )
    pred = train_predictor(nu, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pred.save(out / "predictor.json")
    rows = [{"step": i, "loss": float(v)} for i, v in enumerate(pred.loss_history)]
    _write_csv(out / "loss_curve.csv", rows, ["step", "loss"])
    window = max(1, len(rows) // 10)
    first = float(np.mean(pred.loss_history[:window])) if rows else float("nan")
    last = float(np.mean(pred.loss_history[-window:])) if rows else float("nan")
    _write_json(
        out / "train_summary.json",
        {
            "config": pred.to_json_dict()["config"],
            "first_window_loss": first,
            "last_window_loss": last,
            "improved": bool(last < first) if rows else None,
        },
    )
    print(f"trained predictor -> {out / 'predictor.json'} (loss {first:.4f} -> {last:.4f})")
    return 0


_SAMPLE_DEFAULTS = {
    "method": "mcb",
    "grid": "fm",
    "steps": 64,
    "horizon": 6.0,
    "sde_floor": 0.01,
    "temperature": 1.0,
    "nucleus_p": 1.0,
    "chains": 1024,
    "seed": 0,
}


def _sampler_config(opts: dict) -> SamplerConfig:
    grid = _build_grid(
        str(opts["grid"]), float(opts["horizon"]), int(opts["steps"]), float(opts["sde_floor"]), str(opts["method"])
    )
    return SamplerConfig(
        grid=grid,
        method=str(opts["method"]),
        temperature=float(opts["temperature"]),
        nucleus_p=float(opts["nucleus_p"]),
        seed=int(opts["seed"]),
    )


def cmd_sample(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _merged(_SAMPLE_DEFAULTS, config, args)
    nu = JointDist.load(args.dist) if args.dist else None
    pred = _load_predictor(args, nu)
    cfg = _sampler_config(opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = int(opts["chains"])
    if args.trace:
        seqs, _, traces = batch_sample_traced(cfg, pred, n)
        with (out / "trace.jsonl").open("w", encoding="utf-8") as fh:
            for i, trace in enumerate(traces):
                for rec in trace.records:
                    fh.write(
                        json.dumps(
                            {
                                "chain": i,
                                "step": rec.step,
                                "level": rec.level,
                                "entropy_mean": rec.entropy_mean,
                                "endpoint": list(rec.endpoint.tokens) if rec.endpoint else None,
                                "state": [float(v) for v in rec.state],
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
    else:
        seqs = batch_sample(cfg, pred, n)
    with (out / "samples.txt").open("w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write(" ".join(str(t) for t in seq.tokens) + "\n")
    _write_json(out / "sample_summary.json", {"options": opts, "n": n})
    print(f"wrote {n} sequences -> {out / 'samples.txt'}")
    return 0


_SWEEP_FIELDS = [
    "method",
    "steps",
    "temperature",
    "nucleus_p",
    "chains",
    "nll",
    "nll_se",
    "nll_zero_count",
    "entropy",
    "entropy_se",
    "tv",
    "tv_noise_mean",
    "tv_noise_sd",
]


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _merged(
        {
            "methods": ["mcb"],
            "steps_list": [4, 16, 64],
            "temperatures": [1.0],
            "nucleus_list": [1.0],
            "grid": "fm",
            "horizon": 6.0,
            "sde_floor": 0.01,
            "chains": 4096,
            "seed": 0,
        },
        config,
        args,
    )
    for key in ("methods", "steps_list", "temperatures", "nucleus_list"):
        if not opts[key]:
            raise ValueError(f"sweep list {key!r} must be nonempty")
    nu = JointDist.load(args.dist)
    pred = _load_predictor(args, nu)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    n = int(opts["chains"])
    tv_mean, tv_sd = tv_noise_scale(nu, n)
    for method in opts["methods"]:
        for steps in opts["steps_list"]:
            for tau in opts["temperatures"]:
                for p in opts["nucleus_list"]:
                    cell = dict(opts)
                    cell.update({"method": method, "steps": steps, "temperature": tau, "nucleus_p": p})
                    cfg = _sampler_config(cell)
                    try:
                        seqs = batch_sample(cfg, pred, n)
                    except Exception as exc:
                        raise RuntimeError(
                            f"sweep cell failed: method={method}, steps={steps}, tau={tau}, p={p}"
                        ) from exc
                    nll = oracle_nll(seqs, nu)
                    rows.append(
                        {
                            "method": method,
                            "steps": int(steps),
                            "temperature": float(tau),
                            "nucleus_p": float(p),
                            "chains": n,
                            "nll": nll.nll,
                            "nll_se": nll.se,
                            "nll_zero_count": nll.zero_count,
                            "entropy": unigram_entropy(seqs),
                            "entropy_se": unigram_entropy_se(seqs),
                            "tv": empirical_tv(seqs, nu),
                            "tv_noise_mean": tv_mean,
                            "tv_noise_sd": tv_sd,
                        }
                    )
    _write_csv(out / "sweep.csv", rows, _SWEEP_FIELDS)
    _write_json(out / "sweep_summary.json", {"options": opts, "cells": rows})
    print(f"wrote {len(rows)} sweep cells -> {out / 'sweep.csv'}")
    return 0


_VERIFY_DEFAULTS = {
    "levels": [0.05, 0.5, 1.0, 2.0, 6.0],
    "states_per_level": 3,
    "moment_trials": 50,
    "bound_instances": 5,
    "bound_u_k": 1.0,
    "bound_u_next": 0.5,
    "bound_n_mc": 10000,
    "gap_steps": 8,
    "gap_nodes": 3,
    "gap_n_mc": 20000,
    "horizon": 6.0,
    "seed": 0,
    "identity_tol": 1e-12,
    "moment_tol": 1e-12,
    "bound_sigma": 3.0,
    "gap_sigma": 3.0,
}


# On a product law the KL estimate, the multi-information and the SE are all
# 0 up to rounding (~1e-16), so the bound is checked with the same 1e-12
# slack as acceptance criterion 2.
_BOUND_SLACK = 1e-12


def cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    opts = _merged(_VERIFY_DEFAULTS, config, args)
    nu = JointDist.load(args.dist)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = int(opts["seed"])
    checks: list[dict] = []

    # factorization identity: KL(joint || product of marginals) == multi-information
    rng = derive_rng(seed, "verify", "factorization")
    worst = 0.0
    for level in opts["levels"]:
        for _ in range(int(opts["states_per_level"])):
            x0 = encode(nu.sequence_at(int(nu.sample_indices(rng, 1)[0])))
            x = forward_sample(x0, float(level), rng)
            worst = max(worst, factorization_check(nu, float(level), x).gap)
    checks.append(
        {"check": "factorization_identity", "statistic": worst, "threshold": float(opts["identity_tol"]), "passed": worst < float(opts["identity_tol"])}
    )

    # one-step moment identities (closed form, no sampling)
    rng = derive_rng(seed, "verify", "moments")
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(int(opts["moment_trials"])):
        rows = rng.dirichlet(np.ones(nu.vocab), size=nu.length)
        table = MarginalTable(probs=rows)
        y = rng.standard_normal(nu.dim)
        u_k = rng.uniform(0.2, 3.0)
        u_next = u_k * rng.uniform(0.05, 0.95)
        res = moment_check(table, y, u_k, u_next)
        worst_mean = max(worst_mean, res.mean_residual)
        worst_cov = max(worst_cov, res.cov_residual)
    moment_stat = max(worst_mean, worst_cov)
    checks.append(
        {"check": "one_step_moments", "statistic": moment_stat, "threshold": float(opts["moment_tol"]), "passed": moment_stat < float(opts["moment_tol"])}
    )

    # kernel KL bound: MC estimate <= multi-information + sigma * SE
    rng = derive_rng(seed, "verify", "kernel-bound")
    bound_ok = True
    worst_margin = -float("inf")
    for _ in range(int(opts["bound_instances"])):
        u_k = float(opts["bound_u_k"])
        y = forward_sample(encode(nu.sequence_at(int(nu.sample_indices(rng, 1)[0]))), u_k, rng)
        est = kernel_kl_estimate(nu, y, u_k, float(opts["bound_u_next"]), int(opts["bound_n_mc"]), rng)
        margin = est.estimate - est.mi - float(opts["bound_sigma"]) * est.se
        worst_margin = max(worst_margin, margin)
        bound_ok = bound_ok and margin <= _BOUND_SLACK
    checks.append(
        {"check": "kernel_kl_bound", "statistic": worst_margin, "threshold": _BOUND_SLACK, "passed": bound_ok}
    )

    # denoising gap: nonnegative per interval, strictness recorded
    rng = derive_rng(seed, "verify", "gap")
    grid = NoiseGrid.uniform(float(opts["horizon"]), int(opts["gap_steps"]))
    report = denoising_gap(nu, grid, int(opts["gap_nodes"]), int(opts["gap_n_mc"]), rng)
    sigma = float(opts["gap_sigma"])
    interval_ok = all(g >= -sigma * s for _, g, s in report.interval_gaps())
    total_ok = report.total_gap >= -sigma * report.total_gap_se
    checks.append(
        {
            "check": "denoising_gap",
            "statistic": report.total_gap,
            "threshold": -sigma * report.total_gap_se,
            "passed": bool(interval_ok and total_ok),
        }
    )

    gap_rows = report.csv_rows()
    _write_csv(out / "gap_nodes.csv", gap_rows, list(gap_rows[0]) if gap_rows else ["interval"])
    _write_csv(out / "checks.csv", checks, ["check", "statistic", "threshold", "passed"])
    summary = {
        "options": opts,
        "checks": checks,
        "gap": report.summary(),
        "all_passed": all(c["passed"] for c in checks),
    }
    _write_json(out / "verify_summary.json", summary)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['check']}  statistic={c['statistic']:.3e}")
    if summary["all_passed"]:
        print("verify: all checks passed")
        return 0
    failing = ", ".join(c["check"] for c in checks if not c["passed"])
    print(f"verify: FAILED checks: {failing}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcbridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, out_required: bool = True) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="64-bit root seed")
        p.add_argument("--out", required=out_required, help="output path")

    p = sub.add_parser("gen-dist", help="write a validated distribution file")
    add_common(p)
    p.add_argument("--kind", choices=["uniform", "product", "copy", "dirichlet"])
    p.add_argument("--vocab", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--marginals", help="JSON (L, V) row-stochastic matrix for kind=product")
    p.set_defaults(func=cmd_gen_dist)

    p = sub.add_parser("train", help="fit the marginal predictor on a distribution")
    add_common(p)
    p.add_argument("--dist", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--u-min", dest="u_min", type=float)
    p.add_argument("--horizon", type=float)
    p.set_defaults(func=cmd_train)

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist")
        p.add_argument("--oracle", action="store_const", const=True, help="use the exact predictor")
        p.add_argument("--predictor", help="trained predictor file")
        p.add_argument("--grid", choices=["fm", "uniform", "geometric"])
        p.add_argument("--horizon", type=float)
        p.add_argument("--sde-floor", dest="sde_floor", type=float)
        p.add_argument("--chains", type=int)

    p = sub.add_parser("sample", help="run chains and write decoded sequences")
    add_common(p)
    add_sampling(p)
    p.add_argument("--method", choices=["mcb", "ddpm", "ode", "sde"])
    p.add_argument("--steps", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--nucleus-p", dest="nucleus_p", type=float)
    p.add_argument("--trace", action="store_const", const=True, help="write per-step records")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="sample a (method, steps, tau, p) product and score each cell")
    add_common(p)
    add_sampling(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    add_common(p)
    p.add_argument("--dist", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
