"""Voronoi-cell losses between a fitted model and a reference model.

Each fitted atom is assigned to its nearest reference atom by Euclidean
distance on (omega1, a, b, sigma); the losses then accumulate, per cell,
weight mismatch plus parameter deviations.  Three nested variants:

  vde    weight mismatch + first-order terms on singleton cells (exact fit)
  vdo    vde + high-order penalties on multi-covered cells, with exponents
         from :func:`cell_exponent` (over fit)
  vdfra  vdo + five aggregated "merged-moment" block sums per multi-covered
         cell, which stay small when the cell's atoms merge to the truth

Gating parameters live on a shift gauge, so each loss takes an infimum over
a common translation (t0, t1) applied to the reference side's gating
parameters; both models are baseline-normalized before comparison, making
every loss invariant to gauge translations of either argument.

The infimum is exact: t0 enters only the weight mismatch
sum_k |W_k - r_k e^t0| (W_k a cell's fitted weight, r_k its reference
weight), minimized by the r-weighted median of W_k / r_k, and the rest is
convex in t1, minimized by ellipsoid steps (bisection at D = 1).  When that
median is 0, the infimum is the limit e^t0 -> 0: the loss is the limit and
the reported t0 is ``UNATTAINED_T0`` = log(smallest normal float) ~ -708.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .model import MixingMeasure, normalize_baseline

__all__ = [
    "VoronoiPartition",
    "TranslationOptimum",
    "UNATTAINED_T0",
    "voronoi_cells",
    "cell_exponent",
    "translation_infimum",
    "vde",
    "vdo",
    "vdfra",
    "loss_report",
]


@dataclass(frozen=True)
class VoronoiPartition:
    """Assignment of fitted atoms to nearest reference atoms.

    ``cells[k]`` holds the fitted indices nearest to reference atom k (may
    be empty); ``tie_breaks`` counts fitted atoms whose nearest reference
    was not unique (resolved toward the smallest index).
    """

    cells: dict[int, tuple[int, ...]]
    tie_breaks: int


@dataclass(frozen=True)
class TranslationOptimum:
    t0: float
    t1: np.ndarray
    value: float


def voronoi_cells(fitted: MixingMeasure, reference: MixingMeasure) -> VoronoiPartition:
    """Partition fitted atom indices by nearest reference atom.

    Distance is Euclidean on the concatenated (omega1, a, b, sigma); the
    gating intercept omega0 does not participate.
    """
    if fitted.dim != reference.dim:
        raise InputError("models must share the covariate dimension")
    ft = np.stack([at.theta() for at in fitted.atoms])      # (K, 2D+2)
    rt = np.stack([at.theta() for at in reference.atoms])   # (K0, 2D+2)
    d2 = np.sum((ft[:, None, :] - rt[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(d2, axis=1)   # first minimum = smallest index
    row_min = d2[np.arange(d2.shape[0]), nearest]
    ties = int(np.sum(np.sum(d2 == row_min[:, None], axis=1) > 1))
    cells = {k: tuple(int(l) for l in np.flatnonzero(nearest == k))
             for k in range(reference.n_atoms)}
    return VoronoiPartition(cells=cells, tie_breaks=ties)


def cell_exponent(count: int) -> int:
    """Penalty exponent for a cell covered by ``count`` fitted atoms.

    Known exact values are 4 (two atoms) and 6 (three); for four or more
    only a lower bound of 7 is available and is used as the value.  The
    value 1 for singleton cells is a convention; singleton cells never use
    this exponent in any loss.
    """
    count = int(count)
    if count < 1:
        raise InputError(f"cell count must be >= 1, got {count}")
    return {1: 1, 2: 4, 3: 6}.get(count, 7)


# ---------------------------------------------------------------------------
# translation infimum solver

# t0 reported when the infimum is only approached as e^t0 -> 0
UNATTAINED_T0 = math.log(np.finfo(float).tiny)
_RTOL = 1e-15     # relative gap at which the certified best value is final
_MAX_CUTS = 200   # cuts per squared dimension: the volume falls by e^-(50 D)


def _weight_scale(weights: np.ndarray, ref_weights: np.ndarray) -> float:
    """Lower r-weighted median s of W / r, minimizing sum_k |W_k - r_k s|;
    a zero median at exactly half the weight moves up the flat stretch, so
    0 means that only s -> 0 reaches the infimum."""
    q = weights / ref_weights
    order = np.argsort(q, kind="stable")
    cum = np.cumsum(ref_weights[order])
    j = int(np.searchsorted(cum, 0.5 * cum[-1]))   # first cum[j] >= half
    if q[order[j]] == 0.0 and cum[j] == 0.5 * cum[-1]:
        j += 1
    return float(q[order[j]])


def translation_infimum(objective, weights, ref_weights,
                        anchors) -> TranslationOptimum:
    """Exact infimum over (t0, t1) of a separable, nonnegative objective.

    ``objective(t0, t1)`` returns sum_k |weights_k - ref_weights_k e^t0|
    + g(t1), with t0 = -inf the limit, and a subgradient of the convex g.
    Each row of ``anchors = (u, w, p)``, arrays (m, D), (m,), (m,), is a
    term of g at least w_i |u_i - t1|^p_i.  t0 is the log of the weighted
    median (``UNATTAINED_T0`` for 0); central-cut ellipsoid steps find t1
    until the convexity bound certifies the value to a relative 1e-15.  The
    origin is evaluated first; a value not finite there is a NumericError.
    """
    u, w, p = anchors
    dim = u.shape[1]
    v0 = objective(0.0, np.zeros(dim))[0]
    if not math.isfinite(v0):
        raise NumericError(f"loss is not finite at the origin ({v0}); "
                           "the fitted weights or deviations overflow")
    s = _weight_scale(np.asarray(weights, float), np.asarray(ref_weights, float))
    if s > 0.0:
        t0 = t0_eval = math.log(s)
    else:   # the infimum is the limit e^t0 -> 0
        t0, t0_eval = UNATTAINED_T0, -math.inf

    # every term is at most v0 at the minimizer: |u_i - t1| <= (v0/w_i)^(1/p_i)
    live = w > 0.0
    with np.errstate(over="ignore"):
        rho = (v0 / w[live]) ** (1.0 / p[live])
    lo = np.max(u[live] - rho[:, None], axis=0, initial=-np.inf)
    hi = np.min(u[live] + rho[:, None], axis=0, initial=np.inf)
    # g does not depend (beyond rounding) on a coordinate no anchor bounds
    bounded = np.isfinite(lo) & np.isfinite(hi)
    lo, hi = np.where(bounded, lo, 0.0), np.where(bounded, hi, 0.0)
    x, half = 0.5 * (lo + hi), 0.5 * np.maximum(hi - lo, 0.0)
    shape = np.diag(dim * half ** 2)   # the ellipsoid around that box

    best_v, best_x, lower = math.inf, x, -math.inf
    for _ in range(_MAX_CUTS * dim * dim):
        v, g = objective(t0_eval, x)
        if v < best_v:
            best_v, best_x = v, x
        gpg = float(g @ shape @ g)
        if not gpg > 0.0:   # x minimizes g over the ellipsoid
            break
        lower = max(lower, v - math.sqrt(gpg))   # the cut's bound on it
        if best_v - lower <= _RTOL * (1.0 + abs(best_v)):
            break
        b = (shape @ g) / math.sqrt(gpg)
        x_next = x - b / (dim + 1)
        if (x_next == x).all():
            break
        x = x_next
        shape = shape / 4.0 if dim == 1 else dim * dim / (dim * dim - 1.0) * (
            shape - 2.0 / (dim + 1) * np.outer(b, b))
    return TranslationOptimum(t0=t0, t1=best_x, value=float(best_v))


# ---------------------------------------------------------------------------
# loss construction

def _prepare(fitted: MixingMeasure, reference: MixingMeasure):
    """Canonicalize both models and partition.  Cell k is (r_k, w, dev): the
    reference weight, its members' weights and their deviations in
    (omega1, a, b, sigma) from reference atom k."""
    if fitted.dim != reference.dim:
        raise InputError("models must share the covariate dimension")
    f = normalize_baseline(fitted)
    r = normalize_baseline(reference)
    part = voronoi_cells(f, r)
    theta = np.stack([at.theta() for at in f.atoms])
    weights = np.array([at.weight for at in f.atoms])
    cells = [(at.weight, weights[list(part.cells[k])],
              theta[list(part.cells[k])] - at.theta())
             for k, at in enumerate(r.atoms)]
    return f, r, part, cells


@dataclass(frozen=True)
class _Integrand:
    """A loss integrand stacked over the cells.  Calling it gives a subgradient
    in t1 and the value sum_k |fit_w_k - ref_w_k e^t0| + const
    + sum_i w_i (|u_i - t1|^2 + c_i)^(p_i/2) (the anchor rows)
    + sum_j sqrt(cc_j + 2 W_j d_j^T C_j d_j + W_j^2 |d_j|^4), d_j = m_j - t1."""

    fit_w: np.ndarray    # (K0,) total fitted weight per cell
    ref_w: np.ndarray    # (K0,)
    const: float         # the terms free of the translation
    u: np.ndarray        # (m, D) anchor rows, with w, c, p (m,)
    w: np.ndarray
    c: np.ndarray
    p: np.ndarray
    moments: tuple       # (m (B, D), W (B,), C (B, D, D), cc (B,))

    @np.errstate(over="ignore")
    def __call__(self, t0: float, t1: np.ndarray):
        diff = t1 - self.u
        q = np.sum(diff ** 2, axis=1) + self.c
        value = (np.abs(self.fit_w - self.ref_w * np.exp(t0)).sum()
                 + self.const + (self.w * q ** (0.5 * self.p)).sum())
        kink = q == 0.0   # only p = 1 rows have one, where 0 is a subgradient
        scale = self.w * self.p * np.where(kink, 1.0, q) ** (0.5 * self.p - 1)
        grad = np.where(kink, 0.0, scale) @ diff
        m, W, C, cc = self.moments
        if W.size:
            d = m - t1
            dd = np.sum(d * d, axis=1)
            cd = (C @ d[:, :, None])[:, :, 0]
            norm = np.sqrt(cc + 2.0 * W * np.sum(d * cd, axis=1) + (W * dd) ** 2)
            value += norm.sum()
            grad -= ((2.0 * W / np.where(norm > 0.0, norm, np.inf))
                     @ (cd + (W * dd)[:, None] * d))
        return float(value), grad


def _objective(cells: list, order: int) -> _Integrand:
    """Loss integrand over translations; order 0=vde, 1=vdo, 2=vdfra.

    The translation acts on the reference gating parameters: reference
    weights scale by exp(t0) and each omega1 deviation shifts by -t1, i.e.
    d_omega1 - t1 compares fitted atoms against the translated reference.
    Anchor rows are singleton-cell deviations (p = 1) and multi-cell fast
    deviations (p = cell exponent).  About a multi cell's weighted mean
    slope m, vdfra's t1-dependent block sums are sum w (u - t1) = W (m - t1)
    and sum w ((u - t1) db + da) = e + beta (m - t1), both p = 1 rows, and
    sum w (u - t1)(u - t1)^T = C + W (m - t1)(m - t1)^T, a moment term.
    """
    dim = cells[0][2].shape[1] // 2 - 1
    const, rows, moments = 0.0, [(np.zeros((0, dim)), [], [], 1)], []
    for _, w, dev in cells:
        du, da, db, ds = dev[:, :dim], dev[:, dim:-2], dev[:, -2], dev[:, -1]
        if len(w) == 1:
            rows.append((du, w, np.sum(dev[:, dim:] ** 2, axis=1), 1))
        if len(w) < 2 or order < 1:
            continue
        rexp = cell_exponent(len(w))
        slow = np.sqrt(np.sum(da ** 2, axis=1) + ds ** 2)
        const += float(np.sum(w * slow ** (rexp / 2.0)))
        rows.append((du, w, db ** 2, rexp))
        total = float(np.sum(w))
        if order < 2 or total == 0.0:   # every block sum is weighted by w
            continue
        beta = float(np.sum(w * db))
        const += abs(beta) + abs(float(np.sum(w * (db ** 2 + ds))))
        mean = (w @ du) / total
        e = (w * db) @ (du - mean) + w @ da
        rows.append((mean, [total], [0], 1))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pole = mean + e / beta   # |e + beta (m - t1)| = |beta| |pole - t1|
            if np.isfinite(pole @ pole):
                rows.append((pole, [abs(beta)], [0], 1))
            else:   # beta (m - t1) is below the rounding of e
                const += float(np.linalg.norm(e))
        moments.append((mean, total, (w[:, None] * (du - mean)).T @ (du - mean)))
    cov = np.reshape([mo[2] for mo in moments], (-1, dim, dim))
    return _Integrand(
        fit_w=np.array([float(np.sum(w)) for _, w, _ in cells]),
        ref_w=np.array([ref_w for ref_w, _, _ in cells]),
        const=const,
        u=np.concatenate([np.reshape(r[0], (-1, dim)) for r in rows]),
        w=np.concatenate([np.ravel(r[1]) for r in rows]).astype(float),
        c=np.concatenate([np.ravel(r[2]) for r in rows]).astype(float),
        p=np.concatenate([np.full(len(r[1]), float(r[3])) for r in rows]),
        moments=(np.reshape([mo[0] for mo in moments], (-1, dim)),
                 np.array([mo[1] for mo in moments], dtype=float), cov,
                 np.sum(cov ** 2, axis=(1, 2))))


_ORDER = {"vde": 0, "vdo": 1, "vdfra": 2}


def _infimum(cells: list, kind: str) -> TranslationOptimum:
    f = _objective(cells, _ORDER[kind])
    return translation_infimum(f, f.fit_w, f.ref_w, (f.u, f.w, f.p))


def vde(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Exact-fit loss: weight mismatch plus first-order singleton deviations."""
    return _infimum(_prepare(fitted, reference)[3], "vde").value


def vdo(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Over-fit loss: vde terms plus exponent-weighted multi-cell penalties."""
    return _infimum(_prepare(fitted, reference)[3], "vdo").value


def vdfra(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Fast-rate-aware loss: vdo terms plus per-cell aggregated block sums."""
    return _infimum(_prepare(fitted, reference)[3], "vdfra").value


def loss_report(fitted: MixingMeasure, reference: MixingMeasure) -> dict:
    """All three losses plus the partition and the vdfra-optimal translation."""
    _, _, part, cells = _prepare(fitted, reference)
    out = {}
    for kind in _ORDER:
        opt = _infimum(cells, kind)
        out[kind] = opt.value
        if kind == "vdfra":
            out["t0"] = opt.t0
            out["t1"] = [float(v) for v in opt.t1]
    out["cells"] = {str(k): list(v) for k, v in part.cells.items()}
    out["tie_breaks"] = part.tie_breaks
    return out
