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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InputError, NumericError
from .model import MixingMeasure, normalize_baseline

__all__ = [
    "VoronoiPartition",
    "TranslationOptimum",
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

    def multi_cells(self) -> list[int]:
        return [k for k, members in self.cells.items() if len(members) >= 2]


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

def translation_infimum(objective, dim: int, extra_starts=(),
                        max_evals: int = 10_000,
                        xatol: float = 1e-9) -> TranslationOptimum:
    """Minimize objective(t0, t1) over the translation gauge, derivative-free.

    Multistart Nelder-Mead from the origin plus any ``extra_starts``
    (sequences (t0, t1)), then one polishing restart from the incumbent.
    The objective may mix smooth and kinked terms; dim is small here, so
    a simplex method is adequate.  Raises NumericError (carrying the best
    point found) if the total evaluation budget is exhausted before any
    run converges.
    """
    dim = int(dim)
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")

    def fun(z: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            return float(objective(float(z[0]), z[1:]))

    v0 = fun(np.zeros(1 + dim))
    if not math.isfinite(v0):
        raise InputError(f"objective must be finite at the origin, got {v0}")

    starts = [np.zeros(1 + dim)]
    for t0, t1 in extra_starts:
        z = np.concatenate([[float(t0)], np.asarray(t1, dtype=float).reshape(-1)])
        if z.shape[0] != 1 + dim or not np.all(np.isfinite(z)):
            raise InputError("extra start has wrong shape or non-finite entries")
        starts.append(z)

    def simplex_around(z: np.ndarray, edge: float) -> np.ndarray:
        pts = [z]
        for i in range(z.shape[0]):
            e = z.copy()
            e[i] += edge
            pts.append(e)
        return np.stack(pts)

    remaining = int(max_evals)
    best_z, best_val, best_ok = np.zeros(1 + dim), v0, False

    def run(z0: np.ndarray, edge: float):
        nonlocal remaining, best_z, best_val, best_ok
        if remaining <= 0:
            return
        # fatol must sit above the FP noise of the objective's magnitude,
        # otherwise NM spins on kinked terms until the eval budget dies
        fatol = 1e-11 * (1.0 + abs(best_val))
        res = minimize(fun, z0, method="Nelder-Mead",
                       options={"maxfev": remaining, "xatol": xatol,
                                "fatol": fatol,
                                "initial_simplex": simplex_around(z0, edge)})
        remaining -= int(res.nfev)
        if res.fun < best_val or (res.fun == best_val and res.success
                                  and not best_ok):
            best_z, best_val, best_ok = np.asarray(res.x), float(res.fun), bool(res.success)

    for z0 in starts:
        run(z0, edge=0.25)
    run(best_z, edge=1e-3)   # polish the incumbent with a tight simplex

    opt = TranslationOptimum(t0=float(best_z[0]), t1=best_z[1:].copy(),
                             value=float(best_val))
    if not best_ok:
        raise NumericError(
            f"translation infimum: evaluation budget {max_evals} exhausted "
            "before convergence", value=opt)
    return opt


# ---------------------------------------------------------------------------
# loss construction

@dataclass(frozen=True)
class _CellTerms:
    """Per-cell parameter deviations of the fitted members vs the reference atom."""

    weight_ref: float        # exp(omega0) of the reference atom
    weights: np.ndarray      # (m,) fitted exp(omega0)
    d_omega1: np.ndarray     # (m, D) fitted omega1 minus reference omega1
    d_a: np.ndarray          # (m, D)
    d_b: np.ndarray          # (m,)
    d_sigma: np.ndarray      # (m,)

    @property
    def count(self) -> int:
        return self.weights.shape[0]


def _prepare(fitted: MixingMeasure, reference: MixingMeasure):
    """Canonicalize both models, partition, and bundle per-cell deviations."""
    if fitted.dim != reference.dim:
        raise InputError("models must share the covariate dimension")
    f = normalize_baseline(fitted)
    r = normalize_baseline(reference)
    part = voronoi_cells(f, r)
    cells = []
    for k in range(r.n_atoms):
        members = part.cells[k]
        ref = r.atoms[k]
        ats = [f.atoms[l] for l in members]
        cells.append(_CellTerms(
            weight_ref=ref.weight,
            weights=np.array([at.weight for at in ats]),
            d_omega1=(np.stack([at.omega1 for at in ats])
                      if ats else np.zeros((0, f.dim))) - ref.omega1,
            d_a=(np.stack([at.a for at in ats])
                 if ats else np.zeros((0, f.dim))) - ref.a,
            d_b=np.array([at.b for at in ats]) - ref.b,
            d_sigma=np.array([at.sigma for at in ats]) - ref.sigma,
        ))
    return f, r, part, cells


def _objective(cells: list[_CellTerms], order: int):
    """Loss integrand at a fixed translation; order 0=vde, 1=vdo, 2=vdfra.

    The translation acts on the reference gating parameters: reference
    weights scale by exp(t0) and each omega1 deviation shifts by -t1, i.e.
    d_omega1 - t1 compares fitted atoms against the translated reference.
    """

    def f(t0: float, t1: np.ndarray) -> float:
        total = 0.0
        for cell in cells:
            # large t0 trials overflow exp; an infinite penalty steers the
            # optimizer back without crashing
            arg = math.log(cell.weight_ref) + t0
            shifted_ref_w = math.exp(arg) if arg < 709.0 else math.inf
            total += abs(float(np.sum(cell.weights)) - shifted_ref_w)
            if cell.count == 0:
                continue
            dw = cell.d_omega1 - t1
            if cell.count == 1:
                dev = math.sqrt(float(np.sum(dw ** 2) + np.sum(cell.d_a ** 2))
                                + cell.d_b[0] ** 2 + cell.d_sigma[0] ** 2)
                total += float(cell.weights[0]) * dev
                continue
            if order >= 1:
                rexp = cell_exponent(cell.count)
                fast = np.sqrt(np.sum(dw ** 2, axis=1) + cell.d_b ** 2)
                slow = np.sqrt(np.sum(cell.d_a ** 2, axis=1) + cell.d_sigma ** 2)
                total += float(np.sum(cell.weights * (fast ** rexp
                                                      + slow ** (rexp / 2.0))))
            if order >= 2:
                w = cell.weights
                total += abs(float(np.sum(w * cell.d_b)))
                total += float(np.linalg.norm(w @ dw))
                total += abs(float(np.sum(w * (cell.d_b ** 2 + cell.d_sigma))))
                total += float(np.linalg.norm(
                    w @ (dw * cell.d_b[:, None] + cell.d_a)))
                total += float(np.linalg.norm((w[:, None] * dw).T @ dw))
        return total

    return f


def _heuristic_start(cells: list[_CellTerms], dim: int):
    """Weighted-centroid start: align singleton-cell gate slopes and total weight."""
    w_sing, dw_sing = [], []
    fit_total, ref_total = 0.0, 0.0
    for cell in cells:
        fit_total += float(np.sum(cell.weights))
        ref_total += cell.weight_ref
        if cell.count == 1:
            w_sing.append(float(cell.weights[0]))
            dw_sing.append(cell.d_omega1[0])
    t0 = math.log(fit_total / ref_total)
    if w_sing:
        w = np.array(w_sing)
        t1 = (w @ np.stack(dw_sing)) / float(np.sum(w))
    else:
        t1 = np.zeros(dim)
    return t0, t1


_ORDER = {"vde": 0, "vdo": 1, "vdfra": 2}


def _infimum(cells: list[_CellTerms], kind: str, dim: int,
             start) -> TranslationOptimum:
    """Solve one loss; one not finite at the origin is a numeric failure."""
    obj = _objective(cells, _ORDER[kind])
    with np.errstate(over="ignore"):
        v0 = obj(0.0, np.zeros(dim))
    if not math.isfinite(v0):
        raise NumericError(f"{kind} is not finite at the origin ({v0}); "
                           "the fitted weights or deviations overflow")
    return translation_infimum(obj, dim, extra_starts=[start])


def _solve(fitted: MixingMeasure, reference: MixingMeasure,
           kind: str) -> TranslationOptimum:
    _, _, _, cells = _prepare(fitted, reference)
    return _infimum(cells, kind, fitted.dim,
                    _heuristic_start(cells, fitted.dim))


def vde(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Exact-fit loss: weight mismatch plus first-order singleton deviations."""
    return _solve(fitted, reference, "vde").value


def vdo(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Over-fit loss: vde terms plus exponent-weighted multi-cell penalties."""
    return _solve(fitted, reference, "vdo").value


def vdfra(fitted: MixingMeasure, reference: MixingMeasure) -> float:
    """Fast-rate-aware loss: vdo terms plus per-cell aggregated block sums."""
    return _solve(fitted, reference, "vdfra").value


def loss_report(fitted: MixingMeasure, reference: MixingMeasure) -> dict:
    """All three losses plus the partition and the vdfra-optimal translation."""
    _, _, part, cells = _prepare(fitted, reference)
    start = _heuristic_start(cells, fitted.dim)
    out = {}
    for kind in _ORDER:
        opt = _infimum(cells, kind, fitted.dim, start)
        out[kind] = opt.value
        if kind == "vdfra":
            out["t0"] = opt.t0
            out["t1"] = [float(v) for v in opt.t1]
    out["cells"] = {str(k): list(v) for k, v in part.cells.items()}
    out["tie_breaks"] = part.tie_breaks
    return out
