"""Shared test utilities: tiny builders and slow reference implementations.

The reference code here is deliberately naive (per-point python loops,
textbook formulas) so that the vectorized library code is checked against
something written independently.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
import zlib

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from sgmoe.datagen import GenConfig, builtin_truths, sample
from sgmoe.errors import InputError
from sgmoe.estimation import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    RIDGE,
    SIGMA_FLOOR,
    FitConfig,
    FitResult,
    em_fit,
    init_perturbed,
)
from sgmoe.metrics import _objective, _prepare
from sgmoe.model import (
    LOG_2PI,
    LOG_DENSITY_FLOOR,
    Dataset,
    ExpertAtom,
    MixingMeasure,
    normalize_baseline,
)


def make_atom(omega0=0.0, omega1=(0.0,), a=(0.0,), b=0.0, sigma=1.0) -> ExpertAtom:
    return ExpertAtom(omega0=omega0, omega1=np.asarray(omega1, dtype=float),
                      a=np.asarray(a, dtype=float), b=b, sigma=sigma)


def make_measure(rows, dim=None) -> MixingMeasure:
    """rows: iterable of (omega0, omega1, a, b, sigma) with vector entries."""
    atoms = tuple(make_atom(*row) for row in rows)
    return MixingMeasure(atoms=atoms, dim=dim if dim is not None else atoms[0].dim)


def g0_two_expert() -> MixingMeasure:
    """Well-separated two-expert truth used across the studies (dim 1)."""
    return make_measure([
        (-8.0, (25.0,), (-20.0,), 15.0, 0.3),
        (0.0, (0.0,), (20.0,), -5.0, 0.4),
    ])


def g0_three_expert() -> MixingMeasure:
    """Three-expert truth used across the studies (dim 1)."""
    return make_measure([
        (-2.0, (3.0,), (1.0,), 0.0, 1.0),
        (1.0, (-3.5,), (8.0,), 7.0, 0.8),
        (0.0, (0.0,), (3.0,), 5.0, 0.6),
    ])


def random_measure(rng: np.random.Generator, k: int, dim: int,
                   scale: float = 1.0) -> MixingMeasure:
    rows = []
    for _ in range(k):
        rows.append((
            float(rng.normal(0.0, scale)),
            rng.normal(0.0, scale, size=dim),
            rng.normal(0.0, scale, size=dim),
            float(rng.normal(0.0, scale)),
            float(np.exp(rng.normal(0.0, 0.5))),
        ))
    return make_measure(rows, dim=dim)


def random_dataset(rng: np.random.Generator, n: int, dim: int) -> Dataset:
    return Dataset(xs=rng.uniform(-1.0, 1.0, size=(n, dim)),
                   ys=rng.normal(0.0, 2.0, size=n))


# ---------------------------------------------------------------------------
# naive reference implementations

def naive_gates(measure: MixingMeasure, x: np.ndarray) -> list[float]:
    scores = [float(np.dot(at.omega1, x)) + at.omega0 for at in measure.atoms]
    mx = max(scores)
    es = [math.exp(s - mx) for s in scores]
    tot = sum(es)
    return [e / tot for e in es]


def naive_density(measure: MixingMeasure, x: np.ndarray, y: float) -> float:
    gates = naive_gates(measure, x)
    dens = 0.0
    for g, at in zip(gates, measure.atoms):
        mean = float(np.dot(at.a, x)) + at.b
        dens += g * math.exp(-0.5 * (y - mean) ** 2 / at.sigma) / math.sqrt(
            2.0 * math.pi * at.sigma)
    return dens


def naive_avg_loglik(measure: MixingMeasure, data: Dataset) -> float:
    total = 0.0
    for i in range(data.n):
        total += math.log(max(naive_density(measure, data.xs[i], float(data.ys[i])),
                              1e-300))
    return total / data.n


def naive_gating_hessian(pi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Negative gating Hessian, (K*P, K*P), from the 4-index einsum:
    block (k, l) is sum_n (diag(pi_n) - pi_n pi_n^T)_{kl} z_n z_n^T."""
    k, p = pi.shape[1], z.shape[1]
    h1 = np.einsum("nk,nd,ne->kde", pi, z, z)
    h2 = np.einsum("nk,nl,nd,ne->klde", pi, pi, z, z)
    hess = -h2.transpose(0, 2, 1, 3).reshape(k * p, k * p)
    for kk in range(k):
        hess[kk * p:(kk + 1) * p, kk * p:(kk + 1) * p] += h1[kk]
    return hess


def naive_gating_newton_step(gates, resp, xs, ridge=RIDGE):
    """Damped Newton step on the gating objective from textbook parts:
    scipy's logsumexp and the einsum Hessian above; returns (gates, obj)."""
    n = xs.shape[0]
    z = np.hstack([xs, np.ones((n, 1))])

    def objective(g):
        logits = z @ g.T
        return float(np.sum(resp * logits) - np.sum(logsumexp(logits, axis=1)))

    logits = z @ gates.T
    pi = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
    hess = naive_gating_hessian(pi, z) + ridge * np.eye(gates.size)
    step = np.linalg.solve(hess, ((resp - pi).T @ z).reshape(-1))
    obj0 = objective(gates)
    for i in range(20):
        cand = gates + 0.5 ** i * step.reshape(gates.shape)
        obj = objective(cand)
        if obj >= obj0:
            return cand, obj
    return gates, obj0


# ---------------------------------------------------------------------------
# EM reference: the library's expert-major arithmetic written out in plain
# fresh-array numpy ((K, n) log-joint, logits and softmax, (K, N)
# responsibilities, the (D+1, n) transposed design, slope products as
# `@ xs.T`), as it stood before the library's passes moved onto a
# preallocated workspace.  Run over blocks of `block` rows, with the
# library's order of block sums; at one block (the default) it is the
# unblocked pass.  The library must reproduce it bit for bit in both cases.

def ref_shifted_exp(a):
    """exp(a - m), its column sums and the column log-sum-exp of a (K, n)
    array, with m the column max or 0 where that max is not finite."""
    m = functools.reduce(np.maximum, a)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        e = np.exp(a - m)
        s = functools.reduce(np.add, e)
        return e, s, np.log(s) + m


def ref_logsumexp_cols(a):
    return ref_shifted_exp(a)[2]


def ref_softmax_cols(a):
    """Column softmax and log-sum-exp; a column whose log-sum-exp is not
    finite gets uniform weights."""
    e, s, lse = ref_shifted_exp(a)
    dead = ~np.isfinite(lse)
    e[:, dead] = 1.0
    s[dead] = a.shape[0]
    return e / s, lse


def ref_log_gates(gates, xs):
    logits = gates[:, :-1] @ xs.T + gates[:, -1:]
    return logits - ref_logsumexp_cols(logits)


def ref_log_joint(gates, betas, sigmas, xs, ys):
    means = betas[:, :-1] @ xs.T + betas[:, -1:]
    log_norm = -0.5 * (LOG_2PI + np.log(sigmas)[:, None]
                       + (ys - means) ** 2 / sigmas[:, None])
    return ref_log_gates(gates, xs) + log_norm


def design_t(xs):
    """The transposed regression design, C-ordered: rows x_1..x_D, then
    ones."""
    return np.ascontiguousarray(np.vstack([xs.T, np.ones((1, xs.shape[0]))]))


def ref_blocks(n, block=None):
    block = n if block is None else block
    return [slice(start, start + block) for start in range(0, max(n, 1),
                                                           max(block, 1))]


def ref_block_sums(terms, n, block=None):
    """Termwise sums of terms(rows), starting from the first block's."""
    blocks = ref_blocks(n, block)
    totals = list(terms(blocks[0]))
    for rows in blocks[1:]:
        for i, term in enumerate(terms(rows)):
            totals[i] += term
    return totals


def ref_gating_terms(gates, resp, zt):
    """Gating objective, gradient and Hessian (no ridge) over one block."""
    p, n = zt.shape
    k = gates.shape[0]
    logits = gates @ zt
    pi, lse = ref_softmax_cols(logits)
    obj = float(np.sum(resp * logits) - np.sum(lse))
    grad = (resp - pi) @ zt.T
    pz = (pi[:, None, :] * zt).reshape(k * p, n)
    hess = -(pz @ pz.T)
    zz = (zt[:, None, :] * zt).reshape(p * p, n)
    diag = np.arange(k)
    hess.reshape(k, p, k, p)[diag, :, diag, :] += (pi @ zz.T).reshape(k, p, p)
    return obj, grad, hess


def reference_gating_newton_step(gates, resp, xs, block=None):
    """One damped gating Newton step from C-ordered (K, N)
    responsibilities; returns a dict of the start objective obj0,
    gradient grad, Hessian hess (ridge included), step, the number of
    halvings taken (None when no candidate was accepted), and the
    resulting gates and objective."""
    n = xs.shape[0]
    k, p = gates.shape
    obj0, grad, hess = ref_block_sums(
        lambda rows: ref_gating_terms(gates, resp[:, rows],
                                      design_t(xs[rows])), n, block)
    hess[np.diag_indices_from(hess)] += RIDGE
    step = np.linalg.solve(hess, grad.reshape(-1)).reshape(k, p)
    out = dict(obj0=obj0, grad=grad, hess=hess, step=step, halvings=None,
               gates=gates, obj=obj0)
    scale = 1.0
    for halvings in range(20):
        cand = gates + scale * step
        obj = 0.0
        for rows in ref_blocks(n, block):
            logits = cand @ design_t(xs[rows])
            obj += float(np.sum(resp[:, rows] * logits)
                         - np.sum(ref_logsumexp_cols(logits)))
        if obj >= obj0:
            out.update(halvings=halvings, gates=cand, obj=obj)
            break
        scale *= 0.5
    return out


def reference_em_fit(data: Dataset, cfg: FitConfig, init: MixingMeasure,
                     block=None, dead=None) -> FitResult:
    """``em_fit`` from the reference kernels above, over blocks of `block`
    rows (one block when None).  Every E-step sets the log-joint of the
    rows in the boolean N-vector `dead` to -inf."""
    xs, ys = data.xs, data.ys
    n, d = xs.shape
    blocks = ref_blocks(n, block)
    gates, betas = init.gates(), init.betas()
    sigmas = np.maximum(init.sigmas(), SIGMA_FLOOR)
    k = init.n_atoms
    resp = np.empty((k, n))

    def estep():
        total = 0.0
        for rows in blocks:
            lj = ref_log_joint(gates, betas, sigmas, xs[rows], ys[rows])
            if dead is not None:
                lj[:, dead[rows]] = -np.inf
            resp[:, rows], row_ll = ref_softmax_cols(lj)
            total += float(np.sum(np.maximum(row_ll, LOG_DENSITY_FLOOR)))
        return total / n

    trace = [estep()]
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iter + 1):
        def moments(rows):
            zt = design_t(xs[rows])
            zw = resp[:, None, rows] * zt
            return np.sum(resp[:, rows], axis=1), zw @ zt.T, zw @ ys[rows]

        mass, gram, rhs = ref_block_sums(moments, n, block)
        betas = np.stack([np.linalg.solve(gram[j], rhs[j])
                          for j in range(k)])
        ss, = ref_block_sums(
            lambda rows: (np.sum(resp[:, rows] * (ys[rows] - betas
                                                  @ design_t(xs[rows])) ** 2,
                                 axis=1),), n, block)
        sigmas = np.maximum(ss / mass, SIGMA_FLOOR)
        obj = None
        for _ in range(NEWTON_MAX_ITER):
            step = reference_gating_newton_step(gates, resp, xs, block)
            gates, new_obj = step["gates"], step["obj"]
            if obj is not None and new_obj - obj < NEWTON_TOL:
                break
            obj = new_obj
        trace.append(estep())
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    atoms = tuple(
        ExpertAtom(omega0=gates[j, -1], omega1=gates[j, :-1],
                   a=betas[j, :-1], b=betas[j, -1], sigma=sigmas[j])
        for j in range(k))
    return FitResult(model=normalize_baseline(MixingMeasure(atoms=atoms,
                                                            dim=d)),
                     loglik_trace=trace, iterations=iteration,
                     converged=converged)


@functools.lru_cache(maxsize=None)
def separated_fit() -> FitResult:
    """An EM fit whose vdo and vdfra overflow at the origin.

    g0_2 at N=1000 (seed 11), K=4 from a perturbed start: EM converges in
    984 iterations with one atom at omega0 = 654.3, weight 1.5e284.
    """
    g0 = builtin_truths()["g0_2"]
    return em_fit(sample(g0, GenConfig(n=1000, seed=11)), FitConfig(),
                  init_perturbed(g0, 4, 0.5, 3))


# ---------------------------------------------------------------------------
# brute-force loss oracle (dim 1 only)
#
# Re-derives the loss integrand from scratch: hand canonicalization, loop
# partition, plain-formula terms; the only vectorization is over the (t0, t1)
# evaluation mesh.

def _exponent_for(m: int) -> int:
    return {1: 1, 2: 4, 3: 6}.get(m, 7)


def naive_loss_objective(fitted: MixingMeasure, reference: MixingMeasure,
                         order: int):
    assert fitted.dim == 1 and reference.dim == 1
    lastF, lastR = fitted.atoms[-1], reference.atoms[-1]
    wF = [math.exp(at.omega0 - lastF.omega0) for at in fitted.atoms]
    oF = [float(at.omega1[0] - lastF.omega1[0]) for at in fitted.atoms]
    wR = [math.exp(at.omega0 - lastR.omega0) for at in reference.atoms]
    oR = [float(at.omega1[0] - lastR.omega1[0]) for at in reference.atoms]

    def theta_f(l):
        at = fitted.atoms[l]
        return (oF[l], float(at.a[0]), at.b, at.sigma)

    def theta_r(k):
        at = reference.atoms[k]
        return (oR[k], float(at.a[0]), at.b, at.sigma)

    cells: dict[int, list[int]] = {k: [] for k in range(reference.n_atoms)}
    for l in range(fitted.n_atoms):
        dists = [sum((u - v) ** 2 for u, v in zip(theta_f(l), theta_r(k)))
                 for k in range(reference.n_atoms)]
        cells[min(range(reference.n_atoms), key=lambda k: (dists[k], k))].append(l)

    def evaluate(t0, t1):
        t0 = np.asarray(t0, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        total = np.zeros(np.broadcast(t0, t1).shape)
        for k in range(reference.n_atoms):
            members = cells[k]
            ref = reference.atoms[k]
            with np.errstate(over="ignore"):
                total += np.abs(sum(wF[l] for l in members) - wR[k] * np.exp(t0))
            do = [oF[l] - oR[k] for l in members]
            da = [float(fitted.atoms[l].a[0] - ref.a[0]) for l in members]
            db = [fitted.atoms[l].b - ref.b for l in members]
            ds = [fitted.atoms[l].sigma - ref.sigma for l in members]
            m = len(members)
            if m == 1:
                total += wF[members[0]] * np.sqrt(
                    (do[0] - t1) ** 2 + da[0] ** 2 + db[0] ** 2 + ds[0] ** 2)
            elif m >= 2:
                if order >= 1:
                    r = _exponent_for(m)
                    for i, l in enumerate(members):
                        fast = np.sqrt((do[i] - t1) ** 2 + db[i] ** 2)
                        slow = math.sqrt(da[i] ** 2 + ds[i] ** 2)
                        total += wF[l] * (fast ** r + slow ** (r / 2.0))
                if order >= 2:
                    ws = [wF[l] for l in members]
                    total += abs(sum(w * d for w, d in zip(ws, db)))
                    total += np.abs(sum(w * (d - t1) for w, d in zip(ws, do)))
                    total += abs(sum(w * (d ** 2 + s)
                                     for w, d, s in zip(ws, db, ds)))
                    total += np.abs(sum(w * ((d - t1) * e + f)
                                        for w, d, e, f in zip(ws, do, db, da)))
                    total += np.abs(sum(w * (d - t1) ** 2
                                        for w, d in zip(ws, do)))
        return total

    return evaluate


def grid_loss_oracle(fitted: MixingMeasure, reference: MixingMeasure,
                     order: int, span: float = 3.0, coarse: int = 2001,
                     zooms: int = 2, zoom_res: int = 401) -> float:
    """Minimize the naive objective on a dense (t0, t1) grid, then refine."""
    f = naive_loss_objective(fitted, reference, order)
    lo0, hi0, lo1, hi1 = -span, span, -span, span
    res = coarse
    best = math.inf
    for stage in range(zooms + 1):
        g0 = np.linspace(lo0, hi0, res)
        g1 = np.linspace(lo1, hi1, res)
        vals = f(g0[:, None], g1[None, :])
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = min(best, float(vals[idx]))
        c0, c1 = float(g0[idx[0]]), float(g1[idx[1]])
        s0 = (hi0 - lo0) / (res - 1)
        s1 = (hi1 - lo1) / (res - 1)
        lo0, hi0 = c0 - 2 * s0, c0 + 2 * s0
        lo1, hi1 = c1 - 2 * s1, c1 + 2 * s1
        res = zoom_res
    return best


# ---------------------------------------------------------------------------
# black-box reference solver for the gauge infimum: multistart Nelder-Mead
# over (t0, t1) jointly, as the library solved it before its exact solve

def heuristic_start(cells, dim: int):
    """Weighted-centroid start: align singleton-cell gate slopes and total weight."""
    w_sing, dw_sing = [], []
    fit_total, ref_total = 0.0, 0.0
    for ref_weight, weights, dev in cells:
        fit_total += float(np.sum(weights))
        ref_total += ref_weight
        if len(weights) == 1:
            w_sing.append(float(weights[0]))
            dw_sing.append(dev[0, :dim])
    t0 = math.log(fit_total / ref_total)
    if w_sing:
        w = np.array(w_sing)
        t1 = (w @ np.stack(dw_sing)) / float(np.sum(w))
    else:
        t1 = np.zeros(dim)
    return t0, t1


def nelder_mead_infimum(objective, dim: int, extra_starts=(),
                        max_evals: int = 10_000, xatol: float = 1e-9):
    """Minimize objective(t0, t1) by Nelder-Mead from the origin and each
    extra start, then polish the incumbent; returns (t0, t1, value) of the
    best point, whether or not a run converged within the budget."""

    def fun(z: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            return float(objective(float(z[0]), z[1:]))

    def simplex_around(z: np.ndarray, edge: float) -> np.ndarray:
        pts = [z]
        for i in range(z.shape[0]):
            e = z.copy()
            e[i] += edge
            pts.append(e)
        return np.stack(pts)

    starts = [np.zeros(1 + dim)] + [
        np.concatenate([[float(t0)], np.asarray(t1, dtype=float).reshape(-1)])
        for t0, t1 in extra_starts]
    remaining = int(max_evals)
    best_z, best_val = np.zeros(1 + dim), fun(np.zeros(1 + dim))

    def run(z0: np.ndarray, edge: float):
        nonlocal remaining, best_z, best_val
        if remaining <= 0:
            return
        # fatol sits above the FP noise of the objective's magnitude
        fatol = 1e-11 * (1.0 + abs(best_val))
        res = minimize(fun, z0, method="Nelder-Mead",
                       options={"maxfev": remaining, "xatol": xatol,
                                "fatol": fatol,
                                "initial_simplex": simplex_around(z0, edge)})
        remaining -= int(res.nfev)
        if res.fun < best_val:
            best_z, best_val = np.asarray(res.x), float(res.fun)

    for z0 in starts:
        run(z0, edge=0.25)
    run(best_z, edge=1e-3)   # polish the incumbent with a tight simplex
    return float(best_z[0]), best_z[1:].copy(), best_val


def nelder_mead_loss(fitted: MixingMeasure, reference: MixingMeasure,
                     order: int) -> float:
    """A loss value by the black-box solver on the library's own integrand."""
    _, _, _, cells = _prepare(fitted, reference)
    f = _objective(cells, order)
    return nelder_mead_infimum(
        lambda t0, t1: f(t0, t1)[0], fitted.dim,
        extra_starts=[heuristic_start(cells, fitted.dim)])[2]


def perturbed_copy(measure: MixingMeasure, rng: np.random.Generator,
                   scale: float, extra: int = 0) -> MixingMeasure:
    """Noisy copy with optional duplicated atoms, handy for loss tests.

    Extra duplicates go in front so the original last atom stays last;
    losses canonicalize on the last atom, so keeping it aligned with the
    reference keeps the optimal translation near the origin.
    """
    rows = []
    src = [measure.atoms[rng.integers(measure.n_atoms)]
           for _ in range(extra)] + list(measure.atoms)
    for at in src:
        rows.append((
            at.omega0 + float(rng.normal(0.0, scale)),
            np.asarray(at.omega1) + rng.normal(0.0, scale, size=measure.dim),
            np.asarray(at.a) + rng.normal(0.0, scale, size=measure.dim),
            at.b + float(rng.normal(0.0, scale)),
            at.sigma * float(np.exp(rng.normal(0.0, scale))),
        ))
    return make_measure(rows, dim=measure.dim)


def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a, one byte at a time (the textbook loop)."""
    h = 0xcbf29ce484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def csv_writer_dataset(data: Dataset, path) -> None:
    """A dataset CSV as `csv.writer` writes it, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(data.dim)] + ["y"])
        for i in range(data.n):
            w.writerow([repr(float(v)) for v in data.xs[i]]
                       + [repr(float(data.ys[i]))])


def csv_reader_dataset(path, y_last: bool = False) -> Dataset:
    """A dataset CSV read one `csv.reader` row at a time with `float`,
    raising the loader's messages at the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path} is empty")
        if len(header) < 2:
            raise InputError(
                f"{path} line 1: need at least one covariate and y")
        width = len(header)
        names = [f"x{i + 1}" for i in range(width - 1)] + ["y"]
        if not y_last and header != names:
            raise InputError(
                f"{path} line 1: expected header {','.join(names)}")
        rows = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise InputError(f"{path} line {line}: expected {width} "
                                 f"columns, got {len(row)}")
            try:
                vals = [float(tok) for tok in row]
            except ValueError as exc:
                raise InputError(f"{path} line {line}: {exc}") from exc
            if not all(math.isfinite(v) for v in vals):
                raise InputError(f"{path} line {line}: non-finite value")
            rows.append(vals)
    if not rows:
        raise InputError(f"{path} has a header but no data rows")
    table = np.array(rows)
    return Dataset(xs=table[:, :-1], ys=table[:, -1])


def v1_table(path) -> bytes:
    """The first-version binary table of the dataset CSV `path`: magic
    sgmoeF64, the CSV's byte length and FNV-1a digest, rows, columns and
    the payload's CRC-32, then the rows interleaved as little-endian
    float64."""
    with open(path, "rb") as fh:
        text = fh.read()
    data = csv_reader_dataset(path)
    rows = np.column_stack((data.xs, data.ys)).astype("<f8")
    return struct.pack("<8s5Q", b"sgmoeF64", len(text),
                       int(fnv1a64(text), 16), *rows.shape,
                       zlib.crc32(rows)) + rows.tobytes()
