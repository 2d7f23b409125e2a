"""Marginal-conditioned OU bridge sampling for one-hot sequence models.

Library layout:

  kernels     closed-form OU coefficients, bridges, time conventions
  discrete    vocabulary, one-hot embedding, enumeration, explicit joints
  oracle      exact brute-force posteriors, filters, and kernel densities
  predictors  marginal predictors (exact and trained) + decoding transforms
  samplers    mcb / ddpm / ode / sde reverse samplers over a noise grid
  metrics     sample metrics and the numerical verification estimators
  seeding     deterministic stream derivation from one root seed
  cli         command-line front end (gen-dist, train, sample, sweep, verify)
"""

from .discrete import JointDist, TokenSequence, make_joint
from .kernels import (
    NoiseGrid,
    OuCoeffs,
    forward_sample,
    fm_time_inverse,
    fm_time_map,
    ou_coeffs,
    tweedie_score,
)
from .metrics import (
    GapReport,
    denoising_gap,
    empirical_tv,
    factorization_check,
    moment_check,
    oracle_nll,
    unigram_entropy,
)
from .oracle import (
    joint_posterior_probs,
    kernel_kl_estimate,
    multi_information,
    posterior_marginals,
)
from .predictors import (
    MarginalPredictor,
    OraclePredictor,
    TrainConfig,
    TrainedPredictor,
    oracle_predictor,
    train_predictor,
)
from .samplers import (
    SamplerConfig,
    StepFailed,
    batch_sample,
    ddpm_step,
    mcb_step,
    ode_step,
    run_chain,
    sde_step,
)
from .seeding import derive_rng

__all__ = [name for name in dir() if not name.startswith("_")]
