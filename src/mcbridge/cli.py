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
import itertools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .discrete import JointDist, checked_keys, make_joint, onehot_matrix, parse_json, token_rows
from .kernels import NoiseGrid, forward_sample, reverse_step_coeffs
from .metrics import (
    GapReport,
    denoising_gap,
    empirical_tv,
    factorization_check,
    moment_check,
    oracle_nll,
    tv_noise_scale,
    unigram_entropy,
    unigram_entropy_se,
)
from .oracle import _MC_MIN, kernel_kl_estimate
from .predictors import OraclePredictor, TrainConfig, TrainedPredictor, train_predictor
from .samplers import SamplerConfig, batch_sample
from .seeding import check_seed, derive_rng


_PASSES = {">": lambda v, limit: v > limit, ">=": lambda v, limit: v >= limit, "<=": lambda v, limit: v <= limit}


def _merged(defaults: dict, args: argparse.Namespace, bounds: tuple = ()) -> dict:
    """defaults <- --config file values <- explicitly passed flags, each checked and
    converted to its default's type by ``checked_keys``. A list option must be
    nonempty, and each value of a key in ``bounds`` ((key, op, limit) rules, op
    ``">"``, ``">="`` or ``"<="``) must pass every rule of that key."""
    config = parse_json(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {key: getattr(args, key) for key in defaults if getattr(args, key, None) is not None}
    opts = {**defaults, **checked_keys(defaults, {**config, **flags}, "option")}
    for key, default in defaults.items():
        if isinstance(default, list) and not opts[key]:
            raise ValueError(f"option {key!r} must be nonempty")
    for key, op, limit in bounds:
        for v in opts[key] if isinstance(opts[key], list) else [opts[key]]:
            if not _PASSES[op](v, limit):
                raise ValueError(f"option {key!r} must be {op} {limit}, got {v!r}")
    return opts


def _named(keys: tuple, build, *args):
    """``build(*args)``, with a ValueError it raises prefixed by the options in ``keys``:
    the rules that tie options together stay with the objects that own them."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"option{'s' * (len(keys) > 1)} {' and '.join(map(repr, keys))}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _load_predictor(args: argparse.Namespace, nu: JointDist | None):
    if getattr(args, "oracle", None):
        if nu is None:
            raise ValueError("--oracle needs --dist")
        return OraclePredictor(nu)
    path = getattr(args, "predictor", None)
    if path is None:
        raise ValueError("provide --oracle or --predictor FILE")
    pred = TrainedPredictor.load(path)
    if nu is not None and (pred.vocab, pred.length) != (nu.vocab, nu.length):
        raise ValueError(
            f"predictor {path} has V={pred.vocab}, L={pred.length} but --dist has V={nu.vocab}, L={nu.length}"
        )
    return pred


_GEN_DIST_DEFAULTS = {"kind": "uniform", "vocab": 3, "length": 2, "alpha": 1.0, "marginals": None, "seed": 0}


def cmd_gen_dist(args: argparse.Namespace) -> int:
    opts = _merged(_GEN_DIST_DEFAULTS, args)
    marginals = opts["marginals"]
    if marginals is not None:
        try:
            marginals = np.asarray(parse_json(marginals) if isinstance(marginals, str) else marginals, dtype=float)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"'marginals' must be an (L, V) array of numbers: {exc}") from exc
    nu = make_joint(
        opts["kind"], opts["vocab"], opts["length"], seed=opts["seed"], alpha=opts["alpha"], marginals=marginals
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nu.save(out)
    JointDist.load(out)  # validate the written artifact
    print(f"wrote {out} ({opts['kind']}, V={nu.vocab}, L={nu.length})")
    return 0


_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def cmd_train(args: argparse.Namespace) -> int:
    opts = _merged(_TRAIN_DEFAULTS, args)
    nu = JointDist.load(args.dist)
    pred = train_predictor(nu, TrainConfig(**opts))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pred.save(out / "predictor.json")
    losses = pred.loss_history
    # the bytes csv.DictWriter writes for {"step": i, "loss": repr(loss)} rows
    body = "".join(f"{i},{v!r}\r\n" for i, v in enumerate(losses.tolist()))
    (out / "loss_curve.csv").write_text("step,loss\r\n" + body, encoding="utf-8", newline="")
    # with no steps the summary holds nulls, not NaN, which strict JSON readers reject
    first = last = improved = None
    loss = ""
    if losses.size:
        window = max(1, losses.size // 10)
        first, last = float(np.mean(losses[:window])), float(np.mean(losses[-window:]))
        improved = bool(last < first)
        loss = f" (loss {first:.4f} -> {last:.4f})"
    _write_json(
        out / "train_summary.json",
        {
            "config": pred.to_json_dict()["config"],
            "first_window_loss": first,
            "last_window_loss": last,
            "improved": improved,
        },
    )
    print(f"trained predictor -> {out / 'predictor.json'}{loss}")
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
_SAMPLE_BOUNDS = (
    ("steps", ">=", 1), ("chains", ">=", 1), ("sde_floor", ">", 0.0),
    ("temperature", ">", 0.0), ("nucleus_p", ">", 0.0), ("nucleus_p", "<=", 1.0),
)


def _sampler_config(opts: dict) -> SamplerConfig:
    """The config of one sample command or sweep cell. The grid owns its level
    limits and the sampler its bridge limit; only the options are named here."""
    kind, method, horizon, steps, floor = (opts[k] for k in ("grid", "method", "horizon", "steps", "sde_floor"))
    if kind not in ("fm", "uniform", "geometric"):
        raise ValueError(f"unknown grid kind {kind!r}; expected one of ('fm', 'uniform', 'geometric')")
    if method == "sde":
        grid = _named(("horizon", "sde_floor"), NoiseGrid.uniform, horizon, steps, floor)
    elif kind == "geometric":
        grid = _named(("horizon", "sde_floor"), NoiseGrid.geometric, horizon, steps, floor)
    else:
        grid = _named(("horizon",), NoiseGrid.fm_uniform if kind == "fm" else NoiseGrid.uniform, horizon, steps)
    tau, p = opts["temperature"], opts["nucleus_p"]
    return SamplerConfig(grid=grid, method=method, temperature=tau, nucleus_p=p, seed=opts["seed"])


def cmd_sample(args: argparse.Namespace) -> int:
    opts = _merged(_SAMPLE_DEFAULTS, args, _SAMPLE_BOUNDS)
    nu = JointDist.load(args.dist) if args.dist else None
    pred = _load_predictor(args, nu)
    cfg = _sampler_config(opts)
    n = opts["chains"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    steps = [] if args.trace else None
    seqs = batch_sample(cfg, pred, n, steps=steps)
    if steps is not None:
        _write_csv(out / "steps.csv", steps, list(steps[0]))
    body = "".join(" ".join(map(str, row)) + "\n" for row in token_rows(seqs)[0].tolist())
    (out / "samples.txt").write_text(body, encoding="utf-8")
    _write_json(out / "sample_summary.json", {"options": opts, "n": n})
    print(f"wrote {n} sequences -> {out / 'samples.txt'}")
    return 0


_SWEEP_DEFAULTS = {
    "methods": ["mcb"],
    "steps_list": [4, 16, 64],
    "temperatures": [1.0],
    "nucleus_list": [1.0],
    "grid": "fm",
    "horizon": 6.0,
    "sde_floor": 0.01,
    "chains": 4096,
    "seed": 0,
}
_SWEEP_BOUNDS = (
    ("steps_list", ">=", 1), ("chains", ">=", 1), ("sde_floor", ">", 0.0),
    ("temperatures", ">", 0.0), ("nucleus_list", ">", 0.0), ("nucleus_list", "<=", 1.0),
)


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _merged(_SWEEP_DEFAULTS, args, _SWEEP_BOUNDS)
    nu = JointDist.load(args.dist)
    pred = _load_predictor(args, nu)
    n = opts["chains"]
    # every cell's config is built, and so checked, before anything is written
    cells = []
    axes = (opts["methods"], opts["steps_list"], opts["temperatures"], opts["nucleus_list"])
    for method, steps, tau, p in itertools.product(*axes):
        cell = dict(opts, method=method, steps=steps, temperature=tau, nucleus_p=p)
        cells.append((method, steps, tau, p, _sampler_config(cell)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    tv_mean, tv_sd = tv_noise_scale(nu, n)
    for method, steps, tau, p, cfg in cells:
        try:
            seqs = batch_sample(cfg, pred, n)
        except Exception as exc:
            raise RuntimeError(f"sweep cell failed: method={method}, steps={steps}, tau={tau}, p={p}") from exc
        nll = oracle_nll(seqs, nu)
        rows.append(
            {
                "method": method,
                "steps": steps,
                "temperature": tau,
                "nucleus_p": p,
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
    _write_csv(out / "sweep.csv", rows, list(rows[0]))
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
# Each bound rejects an option under which a check would pass without testing
# anything; the sample counts are the estimators' own minimum. A tolerance of 0
# is kept: it makes its check fail, which is not vacuous.
_VERIFY_BOUNDS = (
    ("levels", ">", 0.0), ("states_per_level", ">=", 1), ("moment_trials", ">=", 1),
    ("bound_instances", ">=", 1), ("bound_n_mc", ">=", _MC_MIN), ("gap_steps", ">=", 1),
    ("gap_nodes", ">=", 1), ("gap_n_mc", ">=", _MC_MIN), ("identity_tol", ">=", 0.0),
    ("moment_tol", ">=", 0.0), ("bound_sigma", ">", 0.0), ("gap_sigma", ">", 0.0),
)


# verify's four checks, which acceptance criteria 1-4 also run; each returns its checks.csv record.
def check_factorization(nu: JointDist, opts: dict, rng: np.random.Generator) -> dict:
    """KL(joint posterior || product of its marginals) == multi-information, at
    ``states_per_level`` forward states drawn at each of the ``levels``."""
    onehot = onehot_matrix(nu.vocab, nu.length)
    worst = 0.0
    for level in opts["levels"]:
        for _ in range(opts["states_per_level"]):
            x = forward_sample(onehot[nu.sample_indices(rng, 1)[0]], level, rng)
            worst = max(worst, factorization_check(nu, level, x).gap)
    tol = opts["identity_tol"]
    return {"check": "factorization_identity", "statistic": worst, "threshold": tol, "passed": worst < tol}


def check_moments(nu: JointDist, opts: dict, rng: np.random.Generator) -> dict:
    """One-step moment identities in closed form, on ``moment_trials`` flat-Dirichlet
    marginal tables of the shape of ``nu``; no sampling."""
    worst = 0.0
    for _ in range(opts["moment_trials"]):
        rows = rng.dirichlet(np.ones(nu.vocab), size=nu.length)
        y = rng.standard_normal(nu.dim)
        u_k = rng.uniform(0.2, 3.0)
        u_next = u_k * rng.uniform(0.05, 0.95)
        res = moment_check(rows, y, u_k, u_next)
        worst = max(worst, res.mean_residual, res.cov_residual)
    tol = opts["moment_tol"]
    return {"check": "one_step_moments", "statistic": worst, "threshold": tol, "passed": worst < tol}


# On a product law the KL estimate, the multi-information and the SE are all
# 0 up to rounding (~1e-16), so the bound passes a margin up to this slack.
_BOUND_SLACK = 1e-12


def check_kernel_bound(nu: JointDist, opts: dict, rng: np.random.Generator) -> dict:
    """MC kernel KL <= multi-information + bound_sigma * SE at ``bound_instances``
    forward states; the statistic is the largest margin."""
    onehot = onehot_matrix(nu.vocab, nu.length)
    u_k = opts["bound_u_k"]
    worst = -float("inf")
    for _ in range(opts["bound_instances"]):
        y = forward_sample(onehot[nu.sample_indices(rng, 1)[0]], u_k, rng)
        est = kernel_kl_estimate(nu, y, u_k, opts["bound_u_next"], opts["bound_n_mc"], rng)
        worst = max(worst, est.estimate - est.mi - opts["bound_sigma"] * est.se)
    return {"check": "kernel_kl_bound", "statistic": worst, "threshold": _BOUND_SLACK, "passed": worst <= _BOUND_SLACK}


# Far from the data a node's two estimates are the prior rows up to rounding, so
# every sample's squared errors differ by the same few ulps and the SE is 0. A
# node's gap within dim * (4 eps)^2, the rounding floor of a squared error over
# dim coordinates in [0, 1], counts as zero.
_GAP_ROUNDING = (4.0 * sys.float_info.epsilon) ** 2


def check_gap(nu: JointDist, opts: dict, rng: np.random.Generator) -> tuple[dict, GapReport]:
    """Denoising gap on a uniform grid: every interval's gap and the total are
    >= -gap_sigma * SE, less their nodes' weighted rounding floors. Also returns the report."""
    grid = NoiseGrid.uniform(opts["horizon"], opts["gap_steps"])
    report = denoising_gap(nu, grid, opts["gap_nodes"], opts["gap_n_mc"], rng)
    sigma = opts["gap_sigma"]
    slack = dict.fromkeys((n.interval for n in report.nodes), 0.0)
    for n in report.nodes:
        slack[n.interval] += n.coeff * n.weight * nu.dim * _GAP_ROUNDING
    floor = -sigma * report.total_gap_se - sum(slack.values())
    passed = all(g >= -sigma * se - slack[k] for k, g, se in report.interval_gaps()) and report.total_gap >= floor
    return {"check": "denoising_gap", "statistic": report.total_gap, "threshold": floor, "passed": bool(passed)}, report


def cmd_verify(args: argparse.Namespace) -> int:
    opts = _merged(_VERIFY_DEFAULTS, args, _VERIFY_BOUNDS)
    check_seed(opts["seed"])
    # the bridge kernel owns the rules that tie options together (the gap's
    # grid bridges down from its horizon), and is run here so that they fail
    # before the first check does
    _named(("bound_u_next", "bound_u_k"), reverse_step_coeffs, opts["bound_u_next"], opts["bound_u_k"])
    _named(("horizon",), reverse_step_coeffs, 0.0, opts["horizon"])
    nu = JointDist.load(args.dist)
    seed = opts["seed"]
    checks = [
        check_factorization(nu, opts, derive_rng(seed, "verify", "factorization")),
        check_moments(nu, opts, derive_rng(seed, "verify", "moments")),
        check_kernel_bound(nu, opts, derive_rng(seed, "verify", "kernel-bound")),
    ]
    gap, report = check_gap(nu, opts, derive_rng(seed, "verify", "gap"))
    checks.append(gap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gap_rows = report.csv_rows()
    _write_csv(out / "gap_nodes.csv", gap_rows, list(gap_rows[0]) if gap_rows else ["interval"])
    _write_csv(out / "checks.csv", checks, ["check", "statistic", "threshold", "passed"])
    passed = all(c["passed"] for c in checks)
    summary = {"options": opts, "checks": checks, "gap": report.summary(), "all_passed": passed}
    _write_json(out / "verify_summary.json", summary)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['check']}  statistic={c['statistic']:.3e}")
    if passed:
        print("verify: all checks passed")
        return 0
    failing = ", ".join(c["check"] for c in checks if not c["passed"])
    print(f"verify: FAILED checks: {failing}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Each command's value flags come from its defaults table: every key whose
    default is not a list becomes ``--key-with-dashes``, parsed as its default's type."""
    parser = argparse.ArgumentParser(prog="mcbridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, about: str, defaults: dict) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", required=True, help="output path")
        for key, default in defaults.items():
            if not isinstance(default, list):
                kind = None if default is None else type(default)
                p.add_argument("--" + key.replace("_", "-"), type=kind, help=f"default {default!r}")
        p.set_defaults(func=func)
        return p

    add("gen-dist", cmd_gen_dist, "write a validated distribution file", _GEN_DIST_DEFAULTS)
    p = add("train", cmd_train, "fit the marginal predictor on a distribution", _TRAIN_DEFAULTS)
    p.add_argument("--dist", required=True)
    sample = add("sample", cmd_sample, "run chains and write decoded sequences", _SAMPLE_DEFAULTS)
    sample.add_argument("--trace", action="store_const", const=True, help="write per-step aggregates to steps.csv")
    sweep = add("sweep", cmd_sweep, "sample a (method, steps, tau, p) product and score each cell", _SWEEP_DEFAULTS)
    for p in (sample, sweep):
        p.add_argument("--dist")
        p.add_argument("--oracle", action="store_const", const=True, help="use the exact predictor")
        p.add_argument("--predictor", help="trained predictor file")
    # verify's other options are read from --config only
    p = add("verify", cmd_verify, "run the numerical verification suite", {"seed": _VERIFY_DEFAULTS["seed"]})
    p.add_argument("--dist", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
