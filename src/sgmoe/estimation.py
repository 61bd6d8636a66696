"""EM fitting of softmax-gated mixture-of-experts models.

A fit keeps its model as the three stacked arrays ``model.log_joint``
takes: the (K, D+1) gating rows (omega1, omega0), the (K, D+1) expert rows
(a, b) and the K variances.  The E-step takes responsibilities and the
average log-likelihood from one pass over ``model.log_joint``, the kernel
behind every likelihood here.
Every pass over the data rows works on blocks of ``model.ROW_BLOCK`` rows,
so its temporaries stay cache-sized at any N: each EM pass (E-step, expert
and gating sums, line-search objective) walks them in ``_block_sums``, the
k-means assignment sweep in ``_assign``.
Besides the data, a fit holds only its responsibilities, stored
expert-major as a C-ordered (K, N) array: each expert's responsibilities
are one contiguous row, and the E-step writes its softmax straight into
them.  Every other temporary of a pass lives in the fit's one
``model.Workspace``, made when the fit starts and sized by ROW_BLOCK at
that moment: a block's log-joint, gating logits and softmax are (K, B)
views of it, its transposed design ``zt`` (``model.design_t``) a (D+1, B)
one, and every gate logit and expert mean the product ``rows @ zt``.  The
gating Hessian's and expert moments' (K, D+1, B) products reuse the
storage of the logits and their scratch (``model.gating_hessian`` and
``model.expert_moments``, kept beside the workspace that lays them out).
Every sum over the K experts adds contiguous rows elementwise.
With one block a pass is the unblocked arithmetic bit for bit; with more,
its sums are added block by block, which may move a fit by rounding.  The
workspace changes no operation or its order, only where results go.
The M-step solves the experts in closed form (weighted least squares,
weighted residual variance) and improves the gating network with damped
Newton steps on the multinomial-logistic objective, whose Hessian is two
BLAS products (GEMMs).  Damping (step halving) makes this a generalized
EM: the observed-data average log-likelihood never decreases, which the
fit records as a per-iteration trace.

Initialization options: k-means clustering of the joined (x, y) points,
perturbation of a known reference model (round-robin atom assignment plus
Gaussian noise, log-space for variances), or a data-scaled random draw.
The start fixes the size: ``em_fit`` fits as many experts as it has atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, decodes, integer, numbers, typed
from .model import (
    LOG_DENSITY_FLOOR,
    Dataset,
    ExpertAtom,
    MixingMeasure,
    Workspace,
    design_t,
    expert_moments,
    gating_hessian,
    log_joint,
    logsumexp_cols,
    normalize_baseline,
    row_blocks,
    softmax_cols,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "em_fit",
    "gating_newton_step",
    "init_kmeans",
    "init_perturbed",
    "init_random",
    "make_init",
]


# FitConfig.init choices; "perturbed_truth" needs a reference model
INITS = ("kmeans", "perturbed_truth", "random")

NEWTON_MAX_ITER = 25   # gating Newton steps per M-step, at most
NEWTON_TOL = 1e-8      # stop them when the gating objective gains less
RIDGE = 1e-8           # added to the gating Hessian's diagonal
SIGMA_FLOOR = 1e-8     # least expert variance a start or M-step may give


@dataclass(frozen=True)
class FitConfig:
    tol: float = 1e-6             # stop when avg loglik moves less than this
    max_iter: int = 2000
    init: str = "kmeans"          # kmeans | perturbed_truth | random
    init_scale: float = 0.5       # perturbation std dev for perturbed_truth
    # gating perturbation std dev; None follows init_scale.  0 with a
    # positive init_scale starts duplicates split in expert space but with
    # identical gates, which keeps the gating likelihood ridge unseeded.
    init_gate_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "max_iter",
                           integer(self.max_iter, "max_iter"))
        if self.max_iter < 0:
            # 0 means evaluate the initial model without any update
            raise InputError("max_iter must be >= 0")
        # NaN fails every comparison, so each bound is stated as a pass
        for name, positive in (("tol", True), ("init_scale", False),
                               ("init_gate_scale", False)):
            value = getattr(self, name)
            if value is None and name == "init_gate_scale":
                continue
            if not (math.isfinite(value)
                    and (value > 0 if positive else value >= 0)):
                raise InputError(f"{name} must be finite and "
                                 f"{'> 0' if positive else '>= 0'}, "
                                 f"got {value}")
        if self.init not in INITS:
            raise InputError(f"unknown init scheme {self.init!r}")


@dataclass(frozen=True, slots=True)
class FitResult:
    model: MixingMeasure          # baseline-normalized
    # average log-likelihood at the start and after each iteration, as a
    # read-only float64 array: 8 bytes a value, where a tuple of floats
    # takes 32, for studies that keep many fits
    loglik_trace: np.ndarray
    iterations: int
    converged: bool

    def __post_init__(self):
        trace = np.array(self.loglik_trace, dtype=float)
        trace.setflags(write=False)
        object.__setattr__(self, "loglik_trace", trace)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "loglik_trace": self.loglik_trace.tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    @decodes("fit")
    def from_dict(cls, d: dict) -> "FitResult":
        """The fit of a `to_dict` record; an InputError also when its
        iterations are not one less than its trace's length."""
        trace = numbers(d["loglik_trace"], "loglik_trace")
        iterations = typed(d["iterations"], int, "iterations")
        if iterations != len(trace) - 1:
            raise InputError(f"fit of {iterations} iterations has a trace "
                             f"of {len(trace)} values, not {iterations + 1}")
        return cls(model=MixingMeasure.from_dict(d["model"]),
                   loglik_trace=trace, iterations=iterations,
                   converged=typed(d["converged"], bool, "converged"))


# ---------------------------------------------------------------------------
# gating M-step

def _block_sums(terms, work: Workspace, n: int) -> list:
    """Termwise sums of ``terms(rows, views)`` over ``model.row_blocks(n)``,
    with ``views`` the block's views of ``work``.

    The sums start from the first block's terms, so that with one block
    they are that block's arithmetic bit for bit.  Terms must be new
    arrays or numbers, never workspace views.
    """
    def block_terms(rows):
        return terms(rows, work.block(rows.stop - rows.start))

    blocks = row_blocks(n)
    totals = list(block_terms(blocks[0]))
    for rows in blocks[1:]:
        for i, term in enumerate(block_terms(rows)):
            totals[i] += term
    return totals


def _gating_terms(gates: np.ndarray, resp: np.ndarray, zt: np.ndarray,
                  views) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective, gradient and Hessian (without the ridge) of the gating
    objective over one block of rows; ``resp`` is the block's (K, B)
    responsibilities, ``zt`` its transposed design and ``views`` its
    workspace views."""
    logits = np.matmul(gates, zt, out=views.a)    # (K, B)
    pi, lse = softmax_cols(logits, views.c, views.vec)
    # sum_n sum_k r_kn log softmax_k(logits_n); columns of resp sum to 1
    obj = float(np.sum(np.multiply(resp, logits, out=views.b))
                - np.sum(lse))
    grad = np.subtract(resp, pi, out=views.b) @ zt.T     # (K, D+1)
    # the Hessian's products overwrite the logits and scratch, dead here
    return obj, grad, gating_hessian(pi, zt, views)


def gating_newton_step(gates: np.ndarray, resp: np.ndarray, xs: np.ndarray,
                       work: Workspace | None = None
                       ) -> tuple[np.ndarray, float]:
    """One damped Newton update of the gating parameters.

    ``gates`` is (K, D+1): row k holds (omega1_k, omega0_k).  ``resp`` is
    the (K, N) responsibilities, as ``em_fit`` holds them.  Returns the
    updated gates and the new objective value; the objective never
    decreases (step halving, up to 20 halvings, falls back to no move).
    The softmax translation direction is flat, so the Hessian needs the
    ridge RIDGE to be solvable; the update then stays in a fixed gauge
    section.  Objective, gradient and Hessian are sums over row blocks
    (``model.row_blocks``), each taken in ``work``, a ``model.Workspace``
    for this K and D (a new one when None; ValueError for one made
    otherwise), as is each step-halving candidate's objective.
    """
    n, d = xs.shape
    k = gates.shape[0]
    if resp.shape != (k, n):
        raise InputError("responsibility matrix shape mismatch")
    p = d + 1
    work = Workspace.for_blocks(k, d, n) if work is None else work.check(k, d)
    obj0, grad, hess = _block_sums(
        lambda rows, views: _gating_terms(
            gates, resp[:, rows], design_t(xs[rows], views.zt), views),
        work, n)
    hess.reshape(-1)[::k * p + 1] += RIDGE

    try:
        step = np.linalg.solve(hess, grad.reshape(-1)).reshape(k, p)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"gating Hessian singular despite ridge: {exc}") from exc
    if not np.all(np.isfinite(step)):
        raise NumericError("gating Newton step is non-finite")

    def objective(rows, views):
        logits = np.matmul(cand, design_t(xs[rows], views.zt), out=views.a)
        weighted = np.sum(np.multiply(resp[:, rows], logits, out=views.b))
        return (float(weighted - np.sum(logsumexp_cols(logits, logits,
                                                       views.vec))),)

    scale = 1.0
    for _ in range(20):
        cand = gates + scale * step
        obj, = _block_sums(objective, work, n)
        if obj >= obj0:
            return cand, obj
        scale *= 0.5
    return gates, obj0


# ---------------------------------------------------------------------------
# expert M-step

def _expert_mstep(xs: np.ndarray, ys: np.ndarray, resp: np.ndarray,
                  iteration: int,
                  work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The (K, D+1) rows (a_k, b_k) and the variances of every expert from
    the (K, N) responsibilities: weighted least squares, then the weighted
    residual variance, each one blocked pass over the rows in ``work``."""
    n = xs.shape[0]
    mass, gram, rhs = _block_sums(
        lambda rows, views: expert_moments(
            design_t(xs[rows], views.zt), resp[:, rows], ys[rows], views),
        work, n)
    betas = np.empty_like(rhs)
    for j, sw in enumerate(mass.tolist()):
        if sw <= 0.0 or not math.isfinite(sw):
            raise NumericError(f"expert {j} lost all responsibility mass",
                               iteration=iteration)
        try:
            betas[j] = np.linalg.solve(gram[j], rhs[j])
        except np.linalg.LinAlgError:
            betas[j], *_ = np.linalg.lstsq(gram[j], rhs[j], rcond=None)

    def residual_sums(rows, views):
        resid = np.matmul(betas, design_t(xs[rows], views.zt),
                          out=views.a)                      # (K, B)
        np.subtract(ys[rows], resid, out=resid)
        np.square(resid, out=resid)
        return (np.sum(np.multiply(resp[:, rows], resid, out=resid),
                       axis=1),)

    ss, = _block_sums(residual_sums, work, n)
    return betas, np.maximum(ss / mass, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# EM core

def em_fit(data: Dataset, cfg: FitConfig, init: MixingMeasure) -> FitResult:
    """Fit init.n_atoms experts by generalized EM from the start ``init``.

    Stops when the average log-likelihood changes by less than cfg.tol or
    after cfg.max_iter iterations; the returned model is baseline-normalized
    and every variance is at least SIGMA_FLOOR.
    """
    if init.dim != data.dim:
        raise InputError(f"init dim {init.dim} != data dim {data.dim}")

    xs, ys = data.xs, data.ys
    n, d = xs.shape
    k = init.n_atoms

    gates, betas = init.gates(), init.betas()
    sigmas = np.maximum(init.sigmas(), SIGMA_FLOOR)

    resp = np.empty((k, n))
    work = Workspace.for_blocks(k, d, n)

    def loglik_sum(rows, views):
        # one pass gives the likelihood and the next M-step's
        # responsibilities: the softmax is written into resp
        lj = log_joint(gates, betas, sigmas, xs[rows], ys[rows], work)
        _, row_ll = softmax_cols(lj, resp[:, rows], views.vec)
        return (float(np.sum(np.maximum(row_ll, LOG_DENSITY_FLOOR,
                                        out=row_ll))),)

    def current_loglik(iteration: int) -> float:
        avg = _block_sums(loglik_sum, work, n)[0] / n
        if not math.isfinite(avg):
            raise NumericError("average log-likelihood became non-finite",
                               iteration=iteration)
        return avg

    avg_ll = current_loglik(0)
    trace: list[float] = [avg_ll]
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iter + 1):
        betas, sigmas = _expert_mstep(xs, ys, resp, iteration, work)

        # M-step, gates: Newton steps until one gains less than NEWTON_TOL
        obj = None
        for _ in range(NEWTON_MAX_ITER):
            gates, new_obj = gating_newton_step(gates, resp, xs, work=work)
            if obj is not None and new_obj - obj < NEWTON_TOL:
                break
            obj = new_obj

        if not all(np.isfinite(a).all() for a in (gates, betas, sigmas)):
            raise NumericError("model parameters became non-finite",
                               iteration=iteration)

        avg_ll = current_loglik(iteration)
        trace.append(avg_ll)
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break

    atoms = tuple(
        ExpertAtom(omega0=gates[j, -1], omega1=gates[j, :-1],
                   a=betas[j, :-1], b=betas[j, -1], sigma=sigmas[j])
        for j in range(k))
    model = normalize_baseline(MixingMeasure(atoms=atoms, dim=d))
    return FitResult(model=model, loglik_trace=trace,
                     iterations=iteration, converged=converged)


# ---------------------------------------------------------------------------
# initialization schemes

def _cluster_atom(xs: np.ndarray, ys: np.ndarray,
                  proportion: float) -> ExpertAtom:
    """Least-squares expert for one cluster; falls back to a flat fit when
    the cluster design is singular (too few or collinear points)."""
    n, d = xs.shape
    z = np.column_stack((xs, np.ones(n)))
    gram = z.T @ z
    if n >= d + 1 and np.linalg.matrix_rank(gram) == d + 1:
        beta = np.linalg.solve(gram, z.T @ ys)
        a, b = beta[:d], float(beta[d])
        resid = ys - z @ beta
        sigma = max(float(np.mean(resid ** 2)), SIGMA_FLOOR)
    else:
        a = np.zeros(d)
        b = float(np.mean(ys))
        sigma = max(float(np.var(ys)), SIGMA_FLOOR)
    return ExpertAtom(omega0=math.log(proportion), omega1=np.zeros(d),
                      a=a, b=b, sigma=sigma)


def _kmeans_pp(points: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Plain k-means (k-means++ seeding, at most 50 sweeps); labels."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            centers[j:] = points[rng.integers(n, size=k - j)]
            break
        centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for sweep in range(50):
        new_labels, far = _assign(points, centers)
        if sweep > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if np.any(mask):
                centers[j] = np.mean(points[mask], axis=0)
            else:
                # re-seed an empty cluster at the farthest point
                centers[j] = points[far]
                labels[far] = j
    return labels


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, int]:
    """Nearest-center labels of the points, and the first point farthest
    from its nearest center; one pass over row blocks."""
    labels = np.empty(points.shape[0], dtype=int)
    far, far_d2 = 0, -np.inf
    for rows in row_blocks(points.shape[0]):
        dist = np.sum((points[rows, None, :] - centers[None, :, :]) ** 2,
                      axis=2)
        labels[rows] = np.argmin(dist, axis=1)
        nearest = np.min(dist, axis=1)
        i = int(np.argmax(nearest))
        if nearest[i] > far_d2:
            far, far_d2 = rows.start + i, nearest[i]
    return labels, far


def init_kmeans(data: Dataset, k: int, seed: int) -> MixingMeasure:
    """Cluster joined (x, y) points and fit one expert per cluster."""
    if k < 1:
        raise InputError(f"K must be >= 1, got {k}")
    if data.n < k:
        raise InputError(f"need at least K={k} points, got {data.n}")
    rng = np.random.default_rng(seed)
    if k == 1:
        labels = np.zeros(data.n, dtype=int)
    else:
        points = np.hstack([data.xs, data.ys[:, None]])
        labels = _kmeans_pp(points, k, rng)
    atoms = []
    for j in range(k):
        mask = labels == j
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise NumericError(f"k-means produced an empty cluster {j}")
        atoms.append(_cluster_atom(data.xs[mask], data.ys[mask],
                                   proportion=count / data.n))
    return MixingMeasure(atoms=tuple(atoms), dim=data.dim)


def init_perturbed(reference: MixingMeasure, k: int, scale: float,
                   seed: int, gate_scale: float | None = None) -> MixingMeasure:
    """K atoms drawn around the reference atoms, round-robin assigned.

    Atom j copies reference atom (j mod K0) plus Gaussian noise of scale
    ``gate_scale`` (default: ``scale``) on (omega0, omega1) and of scale
    ``scale`` on (a, b) and log(sigma); scale 0 reproduces the reference
    values exactly.  The draw sequence per atom is fixed, so changing one
    scale never reshuffles the other blocks' noise.
    """
    k0 = reference.n_atoms
    if k < k0:
        raise InputError(f"K={k} must be >= the reference atom count {k0}")
    if scale < 0:
        raise InputError("scale must be >= 0")
    if gate_scale is None:
        gate_scale = scale
    if gate_scale < 0:
        raise InputError("gate_scale must be >= 0")
    rng = np.random.default_rng(seed)
    d = reference.dim
    atoms = []
    for j in range(k):
        src = reference.atoms[j % k0]
        # normal(0, 0) is exactly 0, so scale=0 copies the reference atoms
        atoms.append(ExpertAtom(
            omega0=src.omega0 + float(rng.normal(0.0, gate_scale)),
            omega1=src.omega1 + rng.normal(0.0, gate_scale, size=d),
            a=src.a + rng.normal(0.0, scale, size=d),
            b=src.b + float(rng.normal(0.0, scale)),
            sigma=float(src.sigma * np.exp(rng.normal(0.0, scale))),
        ))
    return MixingMeasure(atoms=tuple(atoms), dim=d)


def init_random(data: Dataset, k: int, seed: int) -> MixingMeasure:
    """Data-scaled random start: gates near zero, experts around the
    response mean with the response variance."""
    if k < 1:
        raise InputError(f"K must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    d = data.dim
    y_mean = float(np.mean(data.ys))
    y_sd = float(np.std(data.ys)) or 1.0
    atoms = []
    for _ in range(k):
        atoms.append(ExpertAtom(
            omega0=float(rng.normal(0.0, 0.1)),
            omega1=rng.normal(0.0, 0.1, size=d),
            a=rng.normal(0.0, y_sd / 2.0, size=d),
            b=y_mean + float(rng.normal(0.0, y_sd)),
            sigma=y_sd ** 2,
        ))
    return MixingMeasure(atoms=tuple(atoms), dim=d)


def make_init(data: Dataset, k: int, cfg: FitConfig,
              reference: MixingMeasure | None = None) -> MixingMeasure:
    """The k-atom start named by cfg.init, drawn with cfg.seed (and, for
    perturbed_truth, around ``reference`` with cfg's scales)."""
    if cfg.init == "kmeans":
        return init_kmeans(data, k, cfg.seed)
    if cfg.init == "perturbed_truth":
        if reference is None:
            raise InputError("perturbed_truth init needs a reference model")
        return init_perturbed(reference, k, cfg.init_scale, cfg.seed,
                              gate_scale=cfg.init_gate_scale)
    return init_random(data, k, cfg.seed)
