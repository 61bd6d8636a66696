"""Synthetic data generation and the built-in ground-truth models.

Sampling follows the model's generative story: draw x uniformly per
coordinate (unit interval by default; both built-in truths place their
gate crossovers and expert crossings inside it), pick an expert from the
softmax gate at x, then draw y from that expert's Gaussian.  With
contamination probability eps the response is instead drawn from a
Laplace(0, 1) independent of x, which is the misspecification stress
test used by the bundled studies.

All randomness flows through one numpy Generator per call, and replication
seeds are derived from a base seed with a 64-bit mix (:func:`derive_seed`),
so studies are reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, integer
from .model import (
    Dataset,
    ExpertAtom,
    MixingMeasure,
    Workspace,
    log_gates,
    row_blocks,
)

__all__ = [
    "GenConfig",
    "sample",
    "sample_labeled",
    "builtin_truths",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integers into one 64-bit seed (splitmix64 fold).

    Used to give every (study, sample size, replication) its own
    independent stream from a single user-facing seed.
    """
    state = 0
    for p in parts:
        state = _splitmix64(state ^ (int(p) & _MASK64))
    return state


@dataclass(frozen=True)
class GenConfig:
    n: int
    seed: int = 0
    x_low: float = 0.0               # per-coordinate covariate bounds
    x_high: float = 1.0
    contamination_eps: float = 0.0   # probability of a Laplace(0,1) response

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n"))
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.contamination_eps < 1.0:
            raise InputError(
                f"contamination_eps must be in [0, 1), got {self.contamination_eps}")
        if not self.x_low < self.x_high:
            raise InputError("x_low must be < x_high")


def sample_labeled(truth: MixingMeasure,
                   cfg: GenConfig) -> tuple[Dataset, np.ndarray]:
    """Sample a dataset plus per-row source labels.

    Labels give the expert index that generated each row, or -1 for
    contaminated rows.  Fixed draw order (x, contamination, expert,
    normal, laplace) keeps output bitwise reproducible for a given seed.
    """
    rng = np.random.default_rng(cfg.seed)
    n, d, k = cfg.n, truth.dim, truth.n_atoms
    gates, betas = truth.gates(), truth.betas()
    sds = np.sqrt(truth.sigmas())

    xs = rng.uniform(cfg.x_low, cfg.x_high, size=(n, d))
    contaminated = rng.random(n) < cfg.contamination_eps
    # one N-vector holds the expert uniforms, then the normal draws and
    # the responses; the gate CDF is taken one block of rows at a time
    ys = rng.random(n)
    picks = np.empty(n, dtype=int)
    work = Workspace.for_blocks(k, d, n)
    for rows in row_blocks(n):
        gate_cdf = log_gates(gates, xs[rows], work)
        np.exp(gate_cdf, out=gate_cdf)
        np.cumsum(gate_cdf, axis=0, out=gate_cdf)
        picks[rows] = np.sum(ys[rows] > gate_cdf, axis=0)
    del work, gate_cdf   # else they live on through the draws below
    np.minimum(picks, k - 1, out=picks)   # guard the top edge against rounding
    rng.standard_normal(out=ys)
    for rows in row_blocks(n):
        expert = picks[rows]
        means = (np.sum(betas[expert, :-1] * xs[rows], axis=1)
                 + betas[expert, -1])
        ys[rows] = means + sds[expert] * ys[rows]
    if contaminated.any():   # the last draw: skipping it moves nothing
        np.copyto(ys, rng.laplace(0.0, 1.0, size=n), where=contaminated)
        picks[contaminated] = -1
    return Dataset._adopt(xs, ys), picks


def sample(truth: MixingMeasure, cfg: GenConfig) -> Dataset:
    """Sample a dataset from the truth under the given configuration."""
    data, _ = sample_labeled(truth, cfg)
    return data


def builtin_truths() -> dict[str, MixingMeasure]:
    """Named ground-truth models used by the bundled studies.

    Both are one-dimensional and baseline-normalized (last atom has zero
    gating parameters); atom tuples are (omega0, omega1, a, b, sigma).
    """

    def measure(rows):
        return MixingMeasure.from_atoms(
            ExpertAtom(omega0=r[0], omega1=np.array([r[1]]),
                       a=np.array([r[2]]), b=r[3], sigma=r[4])
            for r in rows)

    return {
        "g0_2": measure([
            (-8.0, 25.0, -20.0, 15.0, 0.3),
            (0.0, 0.0, 20.0, -5.0, 0.4),
        ]),
        "g0_3": measure([
            (-2.0, 3.0, 1.0, 0.0, 1.0),
            (1.0, -3.5, 8.0, 7.0, 0.8),
            (0.0, 0.0, 3.0, 5.0, 0.6),
        ]),
    }
