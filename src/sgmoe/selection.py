"""Model-order selection scores: the dendrogram criterion and sweep baselines.

The dendrogram criterion scores each level kappa of a single fitted
model's aggregation path by

    score(kappa) = -( h(kappa) + epsilon_n * avg_loglik(level kappa) )

and selects the argmin over kappa in [2, K].  Merging distinct experts
costs a large height h while merging near-duplicates is nearly free, so
the score dips exactly where aggregation stops being harmless; no model
of any other size is ever fitted.  The AIC/BIC/ICL baselines score one
fit per candidate size and pick the best penalized likelihood.

This module only scores fits it is given. Fitting the candidate sizes
lives in `experiments.select_order`, the one pipeline behind
`sgmoe select` and the selection study; the benchmark wraps its EM,
dendrogram and scoring calls where `experiments` looks them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dendrogram import Dendrogram
from .errors import InputError, decodes, number, typed
from .estimation import FitResult
from .model import Dataset, avg_log_likelihood, responsibility_matrix

__all__ = [
    "SelectionReport",
    "argmin_level",
    "dsc_select",
    "param_count",
    "criterion_scores",
]

METHODS = ("dsc", "aic", "bic", "icl")


def check_epsilon(epsilon_n) -> None:
    """Refuse a DSC weight that is not None or a finite number > 0."""
    if epsilon_n is not None and not (
            isinstance(epsilon_n, (int, float))
            and not isinstance(epsilon_n, bool)
            and math.isfinite(epsilon_n) and epsilon_n > 0):
        raise InputError(f"epsilon_n must be finite and > 0, got {epsilon_n}")


@dataclass(frozen=True)
class SelectionReport:
    method: str                     # dsc | aic | bic | icl
    per_level: dict[int, float]     # candidate size -> score
    chosen: int
    epsilon_n: float | None = None  # dsc only

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown selection method {self.method!r}")
        if self.chosen not in self.per_level:
            raise InputError("chosen level must appear in per_level")
        check_epsilon(self.epsilon_n)

    def to_dict(self) -> dict:
        d = {"method": self.method,
             "per_level": {str(k): v for k, v in self.per_level.items()},
             "chosen": self.chosen}
        if self.epsilon_n is not None:
            d["epsilon_n"] = self.epsilon_n
        return d

    @classmethod
    @decodes("selection")
    def from_dict(cls, d: dict) -> "SelectionReport":
        return cls(method=d["method"],
                   per_level={_level(k): number(v, "per_level")
                              for k, v in d["per_level"].items()},
                   chosen=typed(d["chosen"], int, "chosen"),
                   epsilon_n=d.get("epsilon_n"))


def _level(key: str) -> int:
    """A per_level key as its level: only the decimal spelling of a level
    >= 1, so that no two keys ("2", "02") load as one level."""
    level = int(key)
    if key != str(level) or level < 1:
        raise ValueError(f"per_level key {key!r} is not a level >= 1")
    return level


def argmin_level(scores: dict[int, float]) -> int:
    # ties resolve to the smallest candidate size
    return min(sorted(scores), key=lambda k: (scores[k], k))


def dsc_select(dg: Dendrogram, data: Dataset,
               epsilon_n: float | None = None) -> SelectionReport:
    """Pick the expert count from one dendrogram; default epsilon_n = log N."""
    k_top = dg.levels[0].n_atoms
    if k_top < 2:
        raise InputError("selection needs a dendrogram with at least 2 atoms")
    epsilon_n = math.log(data.n) if epsilon_n is None else epsilon_n
    check_epsilon(epsilon_n)
    scores = {}
    for kappa in range(2, k_top + 1):
        ll = avg_log_likelihood(dg.level(kappa), data)
        scores[kappa] = -(dg.height_at(kappa) + epsilon_n * ll)
    return SelectionReport(method="dsc", per_level=scores,
                           chosen=argmin_level(scores), epsilon_n=epsilon_n)


def param_count(k: int, d: int) -> int:
    """Free parameters of a k-expert model on covariate dimension d.

    Gating contributes (k-1)(d+1) after pinning one atom's gate to zero,
    the expert regressions k(d+1), and the variances k.
    """
    if k < 1 or d < 1:
        raise InputError("k and d must be >= 1")
    return (k - 1) * (d + 1) + k * (d + 1) + k


def criterion_scores(fits: list[FitResult], data: Dataset,
                     methods: tuple[str, ...]) -> dict[str, dict[int, float]]:
    """AIC/BIC/ICL scores (lower is better) of pre-computed fits, per method
    a dict from fit size to score: one likelihood per fit serves every
    method, and ICL adds one responsibility matrix per fit."""
    for m in methods:
        if m not in ("aic", "bic", "icl"):
            raise InputError(f"unknown sweep criterion {m!r}")
    n = data.n
    scores = {m: {} for m in methods}
    for fit in fits:
        k = fit.model.n_atoms
        p = param_count(k, data.dim)
        ll = avg_log_likelihood(fit.model, data)
        fit_scores = {"aic": 2.0 * p - 2.0 * n * ll,
                      "bic": p * math.log(n) - 2.0 * n * ll}
        if "icl" in scores:
            resp = responsibility_matrix(fit.model, data)
            with np.errstate(divide="ignore", invalid="ignore"):
                plogp = np.where(resp > 0.0, resp * np.log(resp), 0.0)
            fit_scores["icl"] = fit_scores["bic"] - 2.0 * float(np.sum(plogp))
        for m, per_size in scores.items():
            per_size[k] = fit_scores[m]
    return scores
