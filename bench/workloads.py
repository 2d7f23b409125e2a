"""The three benchmark workloads and their correctness gates.

Each workload is built from the benchmark seed alone; the program only ever
sees the generated law, predictor and command lines. One iteration of a
workload runs a fixed list of operations (a ``batch_sample`` call or a CLI
command); every iteration of a run repeats the same inputs, so each
operation's output must also repeat bit for bit.

  many-chains  copy law V=3, L=2, oracle predictor, 10 000 chains per method
               (8 calls of 1 250), K = 64, all four methods at tau = 1, p = 1.
  cap-law      dirichlet law V=4, L=6 (V^L = 4096, the cap), alpha = 0.8,
               oracle predictor, 512 chains per method in one call, K = 16,
               mcb at tau = 0.9, p = 0.95.
  pipeline     gen-dist -> train (4000 steps) -> sample (each method, 4096
               chains in 4 commands of 1 024, K = 32) -> gen-dist -> verify,
               all through mcbridge.cli.main in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import mcbridge as mb
from mcbridge import cli, samplers
from mcbridge.metrics import empirical_tv

METHODS = ("mcb", "ddpm", "ode", "sde")
HORIZON = 6.0
SDE_FLOOR = 0.01
# acceptance criterion 6: mcb recovers the copy law with TV below this at K = 64
TV_BOUND = 0.02
REPLAY_CHAINS = 3
REPLAY_STATE_TOL = 1e-9


def noise_grid(method: str, steps: int, horizon: float = HORIZON, floor: float = SDE_FLOOR) -> mb.NoiseGrid:
    """The CLI's default grid for a method: fm, or uniform to the floor for sde."""
    if method == "sde":
        return mb.NoiseGrid.uniform(horizon, steps, terminal=floor)
    return mb.NoiseGrid.fm_uniform(horizon, steps)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dir_digest(path: Path) -> tuple[str, int]:
    """(sha256 over relative names and contents, total bytes) of a file or tree."""
    h = hashlib.sha256()
    total = 0
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(str(p.relative_to(path.parent)).encode() + b"\0" + data)
    return h.hexdigest(), total


@dataclass
class Op:
    """One timed operation of one iteration and what became of it."""

    name: str
    output: object = None
    error: str | None = None
    digest: str | None = None
    seconds: float = 0.0
    bytes: int = 0


@dataclass
class SamplingWorkload:
    """batch_sample for each method on one law with the exact oracle predictor.

    Each method's chains per iteration are split into ``calls`` batch_sample
    calls with distinct sampler seeds, interleaved across methods, so each
    method's time is spread over the whole iteration; the gates see
    ``calls * chains`` independent chains.
    """

    name: str
    law: Callable[[int], mb.JointDist]
    chains: int
    calls: int
    steps: int
    temperature: float = 1.0
    nucleus_p: float = 1.0
    tv_gate: bool = False
    seed: int = 0
    nu: mb.JointDist | None = None
    pred: mb.OraclePredictor | None = None
    configs: dict = field(default_factory=dict)

    def build(self, seed: int) -> None:
        self.seed = seed
        self.nu = self.law(seed)
        self.pred = mb.oracle_predictor(self.nu)
        for j in range(self.calls):
            for method in METHODS:
                decode = method == "mcb"
                self.configs[f"{method}/{j}"] = mb.SamplerConfig(
                    grid=noise_grid(method, self.steps),
                    method=method,
                    temperature=self.temperature if decode else 1.0,
                    nucleus_p=self.nucleus_p if decode else 1.0,
                    seed=seed * self.calls + j,
                )

    def body(self, workdir: Path) -> list[Op]:
        ops = []
        for name, cfg in self.configs.items():
            op = Op(name=name)
            try:
                # looked up on the module at call time so the tracer's binding is used
                op.output = samplers.batch_sample(cfg, self.pred, self.chains, return_states=True)
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            ops.append(op)
        return ops

    def finish(self, op: Op) -> None:
        """Digest an operation's output (outside the timed body)."""
        if op.error is None:
            seqs, states = op.output
            tokens = np.array([s.tokens for s in seqs])
            op.output = (tokens, states)
            op.digest = digest(tokens, states)

    def gate(self, ops: list[Op]) -> None:
        """Check the first iteration's outputs; sets op.error on failure."""
        for op in ops:
            op.error = self._gate_one(op)
        mcb = [op for op in ops if op.name.startswith("mcb/")]
        if self.tv_gate and all(op.error is None for op in mcb):
            tokens = np.concatenate([op.output[0] for op in mcb])
            tv = empirical_tv([mb.TokenSequence(tuple(int(t) for t in row), self.nu.vocab) for row in tokens], self.nu)
            if not tv < TV_BOUND:
                mcb[0].error = f"mcb TV {tv:.4f} over {len(tokens)} chains >= {TV_BOUND}"

    def _gate_one(self, op: Op) -> str | None:
        tokens, states = op.output
        cfg = self.configs[op.name]
        n, vocab, length = self.chains, self.nu.vocab, self.nu.length
        if tokens.shape != (n, length):
            return f"decoded shape {tokens.shape} != {(n, length)}"
        blocks = states.reshape(n, length, vocab)
        if cfg.method == "mcb":
            onehot = np.zeros_like(blocks)
            onehot[np.arange(n)[:, None], np.arange(length), tokens] = 1.0
            if not np.array_equal(blocks, onehot):
                return "mcb terminal states are not the one-hot encoding of the decoded tokens"
        elif cfg.method in ("ddpm", "ode"):
            if np.max(np.abs(blocks.sum(axis=2) - 1.0)) >= 1e-6 or np.min(states) <= -1e-9:
                return f"{cfg.method} terminal states left the product of simplices"
        elif not np.all(np.isfinite(states)):
            return "sde terminal states are not finite"
        for i in replay_indices(cfg.seed, n):
            final, seq, _ = mb.run_chain(cfg, self.pred, mb.derive_rng(cfg.seed, "chain", int(i)))
            if tuple(tokens[i]) != seq.tokens:
                return f"chain {i} decodes differently from its run_chain replay"
            # a batch of one takes other BLAS kernels than the batch, so the
            # continuous states agree to rounding (~1e-15 seen), not bit for bit
            if np.max(np.abs(final - states[i])) > REPLAY_STATE_TOL:
                return f"chain {i} state differs from its run_chain replay"
        return None


def replay_indices(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 7]).choice(n, size=REPLAY_CHAINS, replace=False)


class PipelineWorkload:
    """The CLI end to end, driven in-process through mcbridge.cli.main."""

    name = "pipeline"
    train_steps = 4000
    # 4096 chains per method, as sample_calls commands with distinct seeds,
    # interleaved so each method's time is spread over the iteration
    sample_calls = 4
    chains = 1024
    steps = 32

    def build(self, seed: int) -> None:
        self.seed = seed
        self.train_config = mb.TrainConfig(steps=self.train_steps, seed=seed)
        # what gen-dist will write, and the untrained predictor train starts from
        self.laws = [mb.make_joint("dirichlet", 3, 2, seed=seed, alpha=0.8),
                     mb.make_joint("dirichlet", 4, 3, seed=seed, alpha=0.8)]
        mb.TrainedPredictor.initial(3, 2, self.train_config)
        cli.build_parser()

    def commands(self, d: Path) -> list[tuple[str, list[str], Path]]:
        s = str(self.seed)
        nu, nu_v = d / "nu.json", d / "nu43.json"
        cmds = [
            ("gen-dist", ["gen-dist", "--kind", "dirichlet", "--vocab", "3", "--length", "2", "--alpha", "0.8",
                          "--seed", s, "--out", str(nu)], nu),
            ("train", ["train", "--dist", str(nu), "--steps", str(self.train_steps), "--seed", s,
                       "--out", str(d / "train")], d / "train"),
        ]
        for j in range(self.sample_calls):
            for m in METHODS:
                out = d / f"sample-{m}-{j}"
                cmds.append((out.name, ["sample", "--predictor", str(d / "train" / "predictor.json"), "--method", m,
                                        "--steps", str(self.steps), "--chains", str(self.chains),
                                        "--seed", str(self.seed * self.sample_calls + j), "--out", str(out)], out))
        cmds.append(("gen-dist-verify", ["gen-dist", "--kind", "dirichlet", "--vocab", "4", "--length", "3",
                                         "--alpha", "0.8", "--seed", s, "--out", str(nu_v)], nu_v))
        cmds.append(("verify", ["verify", "--dist", str(nu_v), "--seed", s, "--out", str(d / "verify")], d / "verify"))
        return cmds

    def body(self, workdir: Path) -> list[Op]:
        ops = []
        for name, argv, out in self.commands(workdir):
            op = Op(name=name, output=out)
            err = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                if rc != 0:
                    op.error = f"exit {rc}: {err.getvalue().strip()}"
            except Exception as exc:  # a failed operation is counted, not fatal
                op.error = f"{type(exc).__name__}: {exc}"
            op.seconds = perf_counter() - t0
            ops.append(op)
        return ops

    def finish(self, op: Op) -> None:
        if op.error is None:
            op.digest, op.bytes = dir_digest(op.output)

    def gate(self, ops: list[Op]) -> None:
        """Check the first iteration's outputs; sets op.error on failure."""
        for op in ops:
            op.error = self._gate_one(op)

    def _gate_one(self, op: Op) -> str | None:
        out: Path = op.output
        if op.name == "train":
            summary = json.loads((out / "train_summary.json").read_text())
            if summary.get("improved") is not True:
                return f"training did not improve the loss: {summary}"
        elif op.name == "verify":
            summary = json.loads((out / "verify_summary.json").read_text())
            if summary.get("all_passed") is not True:
                failing = [c["check"] for c in summary.get("checks", []) if not c["passed"]]
                return f"verify checks failed: {failing}"
        elif op.name.startswith("sample-"):
            return self._gate_samples(op.name.split("-")[1], out)
        return None

    def _gate_samples(self, method: str, out: Path) -> str | None:
        lines = (out / "samples.txt").read_text().splitlines()
        if len(lines) != self.chains:
            return f"{len(lines)} sample lines, expected {self.chains}"
        tokens = np.array([[int(t) for t in line.split()] for line in lines])
        if tokens.shape != (self.chains, 2) or tokens.min() < 0 or tokens.max() >= 3:
            return "samples are not length-2 sequences over 3 tokens"
        opts = json.loads((out / "sample_summary.json").read_text())["options"]
        if opts["grid"] != "fm":
            return f"unexpected grid {opts['grid']!r}"
        grid = noise_grid(method, int(opts["steps"]), float(opts["horizon"]), float(opts["sde_floor"]))
        cfg = mb.SamplerConfig(grid=grid, method=method, temperature=float(opts["temperature"]),
                               nucleus_p=float(opts["nucleus_p"]), seed=int(opts["seed"]))
        pred = mb.TrainedPredictor.load(out.parent / "train" / "predictor.json")
        for i in replay_indices(cfg.seed, self.chains):
            _, seq, _ = mb.run_chain(cfg, pred, mb.derive_rng(cfg.seed, "chain", int(i)))
            if tuple(tokens[i]) != seq.tokens:
                return f"chain {i} differs from its run_chain replay"
        return None


def make(name: str):
    if name == "many-chains":
        return SamplingWorkload(
            name, lambda seed: mb.make_joint("copy", 3, 2), chains=1250, calls=8, steps=64, tv_gate=True
        )
    if name == "cap-law":
        return SamplingWorkload(
            name, lambda seed: mb.make_joint("dirichlet", 4, 6, seed=seed, alpha=0.8),
            chains=512, calls=1, steps=16, temperature=0.9, nucleus_p=0.95,
        )
    if name == "pipeline":
        return PipelineWorkload()
    raise ValueError(f"unknown workload {name!r}")

