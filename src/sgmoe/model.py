"""Core model objects for softmax-gated Gaussian mixture-of-experts.

A model with K experts on D-dimensional covariates is parameterized by
atoms (omega0_k, omega1_k, a_k, b_k, sigma_k).  Given covariate x, the
response density is

    p(y | x) = sum_k softmax_k(omega1 . x + omega0) * N(y | a_k . x + b_k, sigma_k)

where ``sigma_k`` is the component *variance*, not the standard deviation.
The collection of atoms is also treated as an (unnormalized) mixing measure
sum_k exp(omega0_k) * delta_{(omega1_k, a_k, b_k, sigma_k)}; the exp(omega0)
values act as weights and need not sum to one.

Gating parameters are only identified up to a common shift (adding (t0, t1)
to every (omega0_k, omega1_k) leaves the density unchanged), so models are
usually reported in baseline form with the last atom's gating parameters
pinned to zero.  See :func:`normalize_baseline` and :func:`translate`.

The likelihood kernels, the sampler and EM pass over the data in blocks of
ROW_BLOCK rows and take every block temporary from a :class:`Workspace`,
one buffer of one layout allocated per pass or fit; with one block
(N <= ROW_BLOCK) a pass is the unblocked arithmetic bit for bit.  The two
EM kernels whose products share storage with a block's other slots,
:func:`gating_hessian` and :func:`expert_moments`, live here beside the
workspace that lays them out.  Every gate logit omega1 . x + omega0 and
expert mean a . x + b is one product of the (K, D+1) parameter rows with
the block's transposed design (x, 1), built by :func:`design_t`, at any D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, decodes, number, numbers, typed

MAX_LOG = math.log(np.finfo(float).max)  # ~709.78, log(float max)

__all__ = [
    "ExpertAtom",
    "MixingMeasure",
    "Dataset",
    "UnderflowWarning",
    "gating_probs",
    "conditional_density",
    "avg_log_likelihood",
    "responsibilities",
    "responsibility_matrix",
    "log_density_vector",
    "normalize_baseline",
    "translate",
    "Workspace",
]

# Densities below this are floored before taking logs so that a single
# far-out observation cannot poison a whole likelihood with -inf.
DENSITY_FLOOR = 1e-300
LOG_DENSITY_FLOOR = math.log(DENSITY_FLOOR)

LOG_2PI = math.log(2.0 * math.pi)

# Passes over the N data rows work on blocks of this many rows, so that a
# pass holds O(ROW_BLOCK * K) temporaries whatever N is: the likelihood and
# responsibilities here, EM's E-step, expert M-step and gating Newton sums,
# the k-means assignment sweep and the sampler's gate draw.  The data, a
# fit's K x N responsibilities and the sampler's N-vectors stay N-sized.
# Every such pass is exactly its unblocked arithmetic when N <= ROW_BLOCK;
# above it, sums taken block by block may move a fit by rounding.  A pass
# takes its block temporaries from a Workspace, allocated once per pass or
# fit, which computes the same bits as fresh arrays would.
ROW_BLOCK = 16384


def row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ROW_BLOCK rows covering range(n); one
    (empty) slice when n is 0."""
    return [slice(start, min(start + ROW_BLOCK, n))
            for start in range(0, max(n, 1), ROW_BLOCK)]


class Workspace:
    """Scratch for passes of a K-expert model over blocks of up to ``rows``
    rows of D-dimensional data: one flat float64 buffer, allocated once,
    that ``block(r)`` views as C-contiguous arrays of r rows, so a sum over
    a view runs in the order it would over a fresh array.

    A block's views are ``vec``, (3, r) column scratch (max, sum and
    log-sum-exp); ``a`` and ``b``, two (K, r) slots for the log-joint or
    logits and their scratch; ``c``, a (K, r) slot for the gating softmax;
    and ``zt``, the (D+1, r) transposed design.  Its ``_kpr`` and ``_ppr``,
    the (K, D+1, r) products of the gating Hessian and the expert moments
    and the design's (D+1, D+1, r) cross products, take the storage of
    ``a`` and ``b``: only :func:`gating_hessian` and :func:`expert_moments`
    write them, and each call overwrites whatever ``a`` and ``b`` held.
    A likelihood or sampler pass writes only ``vec``, ``a``, ``b`` and
    ``zt``, and ``np.empty`` writes none of the buffer, so such a pass
    touches no page of the slots it leaves alone.  ``for_blocks`` sizes
    one for ``row_blocks(n)``, reading ROW_BLOCK when it is called.
    """

    def __init__(self, k: int, d: int, rows: int):
        p = d + 1
        self.k, self.d, self.rows = k, d, rows
        self._wide = p * max(k, p)    # a and b, or _kpr and _ppr
        # every view starts on a 64-byte line: at 16-byte offsets, EM
        # iterations at N = 1e5 took about 15% longer
        size = (3 + self._wide + k + p) * _lines(rows)
        raw = np.empty(size + 8)
        start = -raw.ctypes.data % 64 // 8
        self._buf = raw[start:start + size]
        self._blocks: dict[int, _Block] = {}

    @classmethod
    def for_blocks(cls, k: int, d: int, n: int) -> "Workspace":
        return cls(k, d, max(1, min(n, ROW_BLOCK)))

    def block(self, r: int) -> "_Block":
        """The views for a block of r rows, made once per r."""
        views = self._blocks.get(r)
        if views is None:
            if r > self.rows:
                raise ValueError(f"a block of {r} rows does not fit a "
                                 f"workspace of {self.rows}")
            views = self._blocks[r] = _Block(self, r)
        return views

    def check(self, k: int, d: int) -> "Workspace":
        """This workspace, if it was made for K experts on D-dimensional
        data; else ValueError."""
        if self.k != k or self.d != d:
            raise ValueError(f"a workspace for K={self.k}, D={self.d} "
                             f"cannot serve K={k}, D={d}")
        return self


def _lines(r: int) -> int:
    """r rounded up to whole 64-byte lines of doubles."""
    return -(-r // 8) * 8


class _Block:
    """The views of a Workspace's buffer for r rows: vec, the a/b region,
    then c and zt, each row of vec and each slot starting on a line."""

    __slots__ = ("vec", "a", "b", "_kpr", "_ppr", "c", "zt")

    def __init__(self, work: Workspace, r: int):
        k, p, line = work.k, work.d + 1, _lines(r)
        vec, wide, rest = np.split(work._buf,
                                   [3 * line, (3 + work._wide) * line])
        self.vec = vec.reshape(3, line)[:, :r]
        self.a = wide[:k * r].reshape(k, r)
        self.b = wide[k * line:k * (line + r)].reshape(k, r)
        self._kpr = wide[:k * p * r].reshape(k, p, r)
        self._ppr = wide[:p * p * r].reshape(p, p, r)
        self.c = rest[:k * r].reshape(k, r)
        self.zt = rest[k * line:k * line + p * r].reshape(p, r)


class UnderflowWarning(RuntimeWarning):
    """Some density evaluations underflowed and were floored."""


def _as_float(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a real scalar, got {value!r}") from exc
    if not math.isfinite(out):
        raise InputError(f"{name} must be finite, got {out}")
    return out


def _as_vector(value, name: str, dim: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a real vector, got {value!r}") from exc
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InputError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise InputError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ExpertAtom:
    """One expert: gating parameters (omega0, omega1) and a Gaussian regression.

    ``sigma`` is the variance of the expert's Gaussian and must be strictly
    positive.  ``exp(omega0)`` is the atom's weight in the mixing measure.
    """

    omega0: float
    omega1: np.ndarray  # gating slope, shape (dim,)
    a: np.ndarray       # regression slope, shape (dim,)
    b: float            # regression intercept
    sigma: float        # regression variance (not standard deviation)

    def __post_init__(self):
        object.__setattr__(self, "omega0", _as_float(self.omega0, "omega0"))
        omega1 = _as_vector(self.omega1, "omega1")
        a = _as_vector(self.a, "a", dim=omega1.shape[0])
        object.__setattr__(self, "omega1", omega1)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _as_float(self.b, "b"))
        object.__setattr__(self, "sigma", _as_float(self.sigma, "sigma"))
        if self.sigma <= 0.0:
            raise InputError(f"sigma must be > 0, got {self.sigma}")

    @property
    def dim(self) -> int:
        return self.omega1.shape[0]

    @property
    def weight(self) -> float:
        # exp(omega0) must stay inside double range to be usable as a weight
        if self.omega0 > MAX_LOG:
            raise NumericError(
                f"atom weight exp({self.omega0:.6g}) overflows; "
                "gating bias too large")
        return math.exp(self.omega0)

    def theta(self) -> np.ndarray:
        """Non-gating-bias parameter vector (omega1, a, b, sigma), length 2*dim+2."""
        return np.concatenate([self.omega1, self.a, [self.b, self.sigma]])

    def to_dict(self) -> dict:
        return {
            "omega0": self.omega0,
            "omega1": [float(v) for v in self.omega1],
            "a": [float(v) for v in self.a],
            "b": self.b,
            "sigma": self.sigma,
        }

    @classmethod
    @decodes("atom")
    def from_dict(cls, d: dict) -> "ExpertAtom":
        return cls(omega0=number(d["omega0"], "omega0"),
                   omega1=numbers(d["omega1"], "omega1"),
                   a=numbers(d["a"], "a"), b=number(d["b"], "b"),
                   sigma=number(d["sigma"], "sigma"))


@dataclass(frozen=True, slots=True)
class MixingMeasure:
    """A finite collection of expert atoms over covariates of dimension ``dim``."""

    atoms: tuple[ExpertAtom, ...]
    dim: int

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if len(atoms) == 0:
            raise InputError("a mixing measure needs at least one atom")
        if not all(isinstance(at, ExpertAtom) for at in atoms):
            raise InputError("atoms must be ExpertAtom instances")
        dim = int(self.dim)
        object.__setattr__(self, "dim", dim)
        if dim < 1:
            raise InputError(f"dim must be >= 1, got {dim}")
        for i, at in enumerate(atoms):
            if at.dim != dim:
                raise InputError(
                    f"atom {i} has dim {at.dim}, expected {dim}")

    @classmethod
    def from_atoms(cls, atoms) -> "MixingMeasure":
        atoms = tuple(atoms)
        if not atoms:
            raise InputError("a mixing measure needs at least one atom")
        return cls(atoms=atoms, dim=atoms[0].dim)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    # Stacked parameter rows over the design (x, 1), the one layout of EM
    # and of every likelihood kernel.  K is small in every use here, so
    # these are recomputed on demand instead of cached.
    def gates(self) -> np.ndarray:
        """Gating rows (omega1_k, omega0_k), shape (K, D+1)."""
        return np.array([[*at.omega1, at.omega0] for at in self.atoms])

    def betas(self) -> np.ndarray:
        """Expert regression rows (a_k, b_k), shape (K, D+1)."""
        return np.array([[*at.a, at.b] for at in self.atoms])

    def sigmas(self) -> np.ndarray:
        return np.array([at.sigma for at in self.atoms])

    def weights(self) -> np.ndarray:
        """Atom weights exp(omega0); unnormalized, each > 0."""
        return np.exp([at.omega0 for at in self.atoms])

    def to_dict(self) -> dict:
        return {"dim": self.dim, "atoms": [at.to_dict() for at in self.atoms]}

    @classmethod
    @decodes("model")
    def from_dict(cls, d: dict) -> "MixingMeasure":
        return cls(atoms=tuple(ExpertAtom.from_dict(rec) for rec in d["atoms"]),
                   dim=typed(d["dim"], int, "dim"))


@dataclass(frozen=True, slots=True)
class Dataset:
    """Paired covariates and scalar responses."""

    xs: np.ndarray  # (n, dim)
    ys: np.ndarray  # (n,)

    def __post_init__(self):
        self._freeze(self.xs, self.ys, copy=True)

    @classmethod
    def _adopt(cls, xs: np.ndarray, ys: np.ndarray) -> "Dataset":
        """A Dataset over float arrays that nothing else holds: checked
        like any other, then made read-only in place rather than copied."""
        data = object.__new__(cls)
        data._freeze(xs, ys, copy=False)
        return data

    def _freeze(self, xs, ys, copy: bool) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 2:
            raise InputError(f"xs must be 2-d (n, dim), got shape {xs.shape}")
        if ys.ndim != 1:
            raise InputError(f"ys must be 1-d, got shape {ys.shape}")
        if xs.shape[0] != ys.shape[0]:
            raise InputError(
                f"xs and ys disagree on n: {xs.shape[0]} vs {ys.shape[0]}")
        if xs.shape[0] == 0:
            raise InputError("dataset must be non-empty")
        if xs.shape[1] < 1:
            raise InputError("covariate dimension must be >= 1")
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
            raise InputError("dataset contains non-finite values")
        if copy:
            xs, ys = xs.copy(), ys.copy()
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


# ---------------------------------------------------------------------------
# density machinery

def _check_x(measure: MixingMeasure, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (measure.dim,):
        raise InputError(
            f"covariate must have shape ({measure.dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("covariate must be finite")
    return arr


def _shifted_exp(a: np.ndarray, e: np.ndarray | None,
                 vec: np.ndarray | None):
    """exp(a - m) into e, and its column sums and the column log-sum-exp
    of a (K, n) array a into rows 1 and 2 of the (3, n) scratch ``vec``,
    with m (row 0) the column max or 0 where that max is not finite (all
    -inf, or holding +inf or nan).  ``e`` may be ``a`` itself; None
    allocates e or vec.  The reductions combine the K rows elementwise,
    so they run along n, over contiguous rows of a C-ordered array; the
    sum adds the rows in order."""
    if e is None:
        e = np.empty(a.shape)
    if vec is None:
        vec = np.empty((3, a.shape[1]))
    m, s, lse = vec
    np.maximum.reduce(a, axis=0, out=m)   # exact in any order
    finite = np.isfinite(m)
    if not finite.all():
        m[~finite] = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        np.subtract(a, m, out=e)
        np.exp(e, out=e)
        s[...] = e[0]
        for row in e[1:]:
            s += row
        np.log(s, out=lse)
    np.add(lse, m, out=lse)
    return e, s, lse


def logsumexp_cols(a: np.ndarray, e: np.ndarray | None = None,
                   vec: np.ndarray | None = None) -> np.ndarray:
    """Column log-sum-exp of a (K, n) array, shape (n,); an all -inf
    column gives -inf.  ``e`` takes the shifted exponentials (``a`` itself
    may, which overwrites it) and the result is row 2 of the (3, n)
    scratch ``vec``; each is allocated when None."""
    return _shifted_exp(a, e, vec)[2]


def softmax_cols(a: np.ndarray, out: np.ndarray | None = None,
                 vec: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Column softmax of a (K, n) array and its column log-sum-exp, from
    one max shift; a column whose log-sum-exp is not finite gets uniform
    weights.  The softmax goes into ``out`` (``a`` itself may) and the
    log-sum-exp is row 2 of the (3, n) scratch ``vec``; each is allocated
    when None."""
    e, s, lse = _shifted_exp(a, out, vec)
    finite = np.isfinite(lse)
    if not finite.all():
        dead = ~finite
        e[:, dead] = 1.0
        s[dead] = a.shape[0]
    np.divide(e, s, out=e)
    return e, lse


def design_t(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The transposed design of the rows ``xs`` into the (D+1, n) ``out``:
    rows x_1..x_D, then ones."""
    out[:-1] = xs.T
    out[-1] = 1.0
    return out


def log_gates(gates: np.ndarray, xs: np.ndarray,
              work: Workspace | None = None) -> np.ndarray:
    """Log softmax gate probabilities from the (K, D+1) gating rows
    (omega1_k, omega0_k), as a C-ordered (K, n) array: slot ``a`` of
    ``work``'s block (slot ``b`` is scratch), a new workspace's when
    None.  The logits are ``gates @ zt``, with the rows' transposed
    design built in the block's slot ``zt``, where it stays."""
    n, k, d = xs.shape[0], gates.shape[0], xs.shape[1]
    work = Workspace(k, d, n) if work is None else work.check(k, d)
    views = work.block(n)
    logits = np.matmul(gates, design_t(xs, views.zt), out=views.a)
    return np.subtract(logits, logsumexp_cols(logits, views.b, views.vec),
                       out=logits)


def log_joint(gates: np.ndarray, betas: np.ndarray, sigmas: np.ndarray,
              xs: np.ndarray, ys: np.ndarray,
              work: Workspace | None = None) -> np.ndarray:
    """log(gate_k(x_n) * N(y_n | a_k . x_n + b_k, sigma_k)) from the (K, D+1)
    gating rows, the (K, D+1) expert rows (a_k, b_k) and the K variances,
    as a C-ordered (K, n) array: the expert-major layout of every kernel
    here, where numpy's broadcasts run along n.  The result is slot ``a``
    of ``work``'s block for n rows (``b``, ``vec`` and ``zt`` are
    scratch), a new workspace's when None.  The means ``betas @ zt`` take
    the transposed design that :func:`log_gates` left in ``zt``."""
    n, k, d = xs.shape[0], gates.shape[0], xs.shape[1]
    work = Workspace(k, d, n) if work is None else work.check(k, d)
    lj = log_gates(gates, xs, work)
    views = work.block(n)
    log_norm = np.matmul(betas, views.zt, out=views.b)     # the means
    np.subtract(ys, log_norm, out=log_norm)
    np.square(log_norm, out=log_norm)
    np.divide(log_norm, sigmas[:, None], out=log_norm)
    np.add(LOG_2PI + np.log(sigmas)[:, None], log_norm, out=log_norm)
    np.multiply(-0.5, log_norm, out=log_norm)
    return np.add(lj, log_norm, out=lj)


def log_density_vector(measure: MixingMeasure, xs: np.ndarray,
                       ys: np.ndarray) -> np.ndarray:
    """Per-point log conditional density, floored at log(1e-300).

    Works through the rows one block at a time in one workspace and keeps
    only the result.  Emits
    :class:`UnderflowWarning` with the number of floored points; the
    floor keeps far-out observations from dragging averages to -inf.
    """
    params = measure.gates(), measure.betas(), measure.sigmas()
    n = xs.shape[0]
    work = Workspace.for_blocks(measure.n_atoms, measure.dim, n)
    logp = np.empty(n)
    for rows in row_blocks(n):
        lj = log_joint(*params, xs[rows], ys[rows], work)
        logp[rows] = logsumexp_cols(lj, lj, work.block(lj.shape[1]).vec)
    floored = logp < LOG_DENSITY_FLOOR
    n_floor = int(np.count_nonzero(floored))
    if n_floor:
        warnings.warn(
            f"{n_floor} of {logp.shape[0]} density values underflowed; "
            f"floored at {DENSITY_FLOOR:g}",
            UnderflowWarning, stacklevel=2)
        logp[floored] = LOG_DENSITY_FLOOR
    return logp


def gating_probs(measure: MixingMeasure, x) -> np.ndarray:
    """Softmax gate probabilities at covariate x; sums to 1, all in [0, 1]."""
    x = _check_x(measure, x)
    return np.exp(log_gates(measure.gates(), x[None, :]))[:, 0]


def conditional_density(measure: MixingMeasure, x, y) -> float:
    """Mixture density of the response y given covariate x (always > 0)."""
    x = _check_x(measure, x)
    y = _as_float(y, "y")
    logp = log_density_vector(measure, x[None, :], np.array([y]))[0]
    return float(math.exp(logp))


def avg_log_likelihood(measure: MixingMeasure, data: Dataset) -> float:
    """Average log conditional density of the dataset under the model."""
    if data.dim != measure.dim:
        raise InputError(
            f"dataset dim {data.dim} does not match model dim {measure.dim}")
    out = float(np.mean(log_density_vector(measure, data.xs, data.ys)))
    if not math.isfinite(out):
        raise NumericError(f"average log-likelihood is non-finite: {out}")
    return out


def responsibility_matrix(measure: MixingMeasure, data: Dataset
                          ) -> np.ndarray:
    """Posterior component memberships for every observation, as a
    C-ordered (n, K) array, computed block by block in one workspace."""
    if data.dim != measure.dim:
        raise InputError(
            f"dataset dim {data.dim} does not match model dim {measure.dim}")
    # a fully underflowed observation gets uniform memberships
    params = measure.gates(), measure.betas(), measure.sigmas()
    work = Workspace.for_blocks(measure.n_atoms, measure.dim, data.n)
    out = np.empty((data.n, measure.n_atoms))
    for rows in row_blocks(data.n):
        lj = log_joint(*params, data.xs[rows], data.ys[rows], work)
        out[rows] = softmax_cols(lj, lj, work.block(lj.shape[1]).vec)[0].T
    return out


def responsibilities(measure: MixingMeasure, x, y) -> np.ndarray:
    """Posterior membership probabilities of one observation, shape (K,)."""
    x = _check_x(measure, x)
    y = _as_float(y, "y")
    data = Dataset(xs=x[None, :], ys=np.array([y]))
    return responsibility_matrix(measure, data)[0]


# ---------------------------------------------------------------------------
# EM products in the workspace

def gating_hessian(pi: np.ndarray, zt: np.ndarray, views: "_Block"
                   ) -> np.ndarray:
    """The gating objective's Hessian (without ridge) over one block, from
    the block's (K, B) gate softmax ``pi`` and (D+1, B) transposed design
    ``zt``, as a (K(D+1), K(D+1)) array.

    Fisher-style blocks H[k,l] = sum_n (diag(pi)-pi pi^T)_{kl} z z^T as
    GEMMs: -(P P^T) with rows P_(k,d) = pi_k * z_d, plus the diagonal
    blocks sum_n pi_nk z_n z_n^T; every broadcast runs along the rows.  P,
    then z z^T, are made in the block ``views``, overwriting its slots
    ``a`` and ``b``; ``pi`` and ``zt`` must not be either.
    """
    (k, n), p = pi.shape, zt.shape[0]
    pz = np.multiply(pi[:, None, :], zt, out=views._kpr).reshape(k * p, n)
    hess = -(pz @ pz.T)
    zz = np.multiply(zt[:, None, :], zt, out=views._ppr).reshape(p * p, n)
    diag = np.arange(k)
    hess.reshape(k, p, k, p)[diag, :, diag, :] += (pi @ zz.T).reshape(k, p, p)
    return hess


def expert_moments(zt: np.ndarray, resp: np.ndarray, ys: np.ndarray,
                   views: "_Block"
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per expert, over one block of rows with transposed design ``zt`` and
    (K, B) responsibilities: the responsibility mass, the weighted Gram
    matrix z^T W z and z^T W y.  The (K, D+1, B) product W z is made in the
    block ``views``, overwriting its slots ``a`` and ``b``; ``zt`` and
    ``resp`` must not be either."""
    zw = np.multiply(resp[:, None, :], zt, out=views._kpr)
    return np.sum(resp, axis=1), zw @ zt.T, zw @ ys


# ---------------------------------------------------------------------------
# gating gauge

def translate(measure: MixingMeasure, t0, t1) -> MixingMeasure:
    """Shift every atom's gating parameters by (t0, t1).

    The conditional density is invariant under this shift; the atom weights
    exp(omega0) all scale by exp(t0).
    """
    t0 = _as_float(t0, "t0")
    t1 = _as_vector(t1, "t1", dim=measure.dim)
    atoms = tuple(
        ExpertAtom(omega0=at.omega0 + t0, omega1=at.omega1 + t1,
                   a=at.a, b=at.b, sigma=at.sigma)
        for at in measure.atoms)
    return MixingMeasure(atoms=atoms, dim=measure.dim)


def normalize_baseline(measure: MixingMeasure) -> MixingMeasure:
    """Return the gauge-equivalent model whose last atom has zero gating parameters.

    Idempotent; the conditional density is unchanged.
    """
    last = measure.atoms[-1]
    return translate(measure, -last.omega0, -last.omega1)
