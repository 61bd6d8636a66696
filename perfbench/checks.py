"""Output checks computed apart from the program, from the documented math.

Each check returns a list of problems (strings); an empty list passes.
Nothing here calls sgmoe code: models are read as atom records, either
``vars(atom)`` of an in-memory ``ExpertAtom`` or the dicts of a JSON file.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
LOG_DENSITY_FLOOR = math.log(1e-300)   # the README's density floor
ASCENT_SLACK = 1e-8                    # round-off allowed per EM step
LL_RTOL = 1e-9
MOMENT_RTOL = 1e-9


def atoms_of(model) -> list[dict]:
    """Atom records of an in-memory model or of a model JSON dict."""
    if isinstance(model, dict):
        return model["atoms"]
    return [vars(atom) for atom in model.atoms]


def _arrays(atoms):
    w0 = np.array([float(a["omega0"]) for a in atoms])
    w1 = np.array([np.asarray(a["omega1"], dtype=float) for a in atoms])
    slope = np.array([np.asarray(a["a"], dtype=float) for a in atoms])
    b = np.array([float(a["b"]) for a in atoms])
    sigma = np.array([float(a["sigma"]) for a in atoms])
    return w0, w1, slope, b, sigma


def _logsumexp_rows(m: np.ndarray) -> np.ndarray:
    top = np.max(m, axis=1, keepdims=True)
    return (top + np.log(np.sum(np.exp(m - top), axis=1, keepdims=True)))[:, 0]


def log_joint(atoms, xs, ys) -> np.ndarray:
    """log softmax gate + log Gaussian expert density, shape (n, K)."""
    w0, w1, slope, b, sigma = _arrays(atoms)
    logits = xs @ w1.T + w0
    log_gate = logits - _logsumexp_rows(logits)[:, None]
    resid = ys[:, None] - (xs @ slope.T + b)
    return log_gate - 0.5 * (LOG_2PI + np.log(sigma) + resid ** 2 / sigma)


def avg_loglik(atoms, xs, ys) -> float:
    rows = _logsumexp_rows(log_joint(atoms, xs, ys))
    return float(np.mean(np.maximum(rows, LOG_DENSITY_FLOOR)))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= LL_RTOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# EM fits

def check_fit(trace, atoms, xs, ys, truth_atoms=None) -> list[str]:
    """Generalized-EM ascent, the final value against our own evaluation,
    and, for a start at the truth, ending no lower than the truth."""
    problems = []
    tr = np.asarray(trace, dtype=float)
    if tr.size == 0 or not np.all(np.isfinite(tr)):
        return ["loglik trace is empty or non-finite"]
    if np.any(np.diff(tr) < -ASCENT_SLACK):
        problems.append(f"loglik trace decreases by {-np.min(np.diff(tr)):.3g}")
    own = avg_loglik(atoms, xs, ys)
    if not close(own, tr[-1]):
        problems.append(f"final loglik {tr[-1]!r} != recomputed {own!r}")
    if truth_atoms is not None:
        truth = avg_loglik(truth_atoms, xs, ys)
        if tr[-1] < truth - LL_RTOL * max(1.0, abs(truth)):
            problems.append(f"fit from the truth ends at {tr[-1]!r}, below "
                            f"the truth's {truth!r}")
    return problems


# ---------------------------------------------------------------------------
# dendrograms

def _moments(atoms, shift: float):
    """sum exp(omega0) * {1, omega1, b, b^2 + sigma, omega1*b + a}, with the
    weights scaled by exp(-shift), plus the same sum of absolute terms."""
    w0, w1, slope, b, sigma = _arrays(atoms)
    w = np.exp(w0 - shift)
    terms = np.hstack([np.ones((len(b), 1)), w1, b[:, None],
                       (b ** 2 + sigma)[:, None], w1 * b[:, None] + slope])
    return w @ terms, w @ np.abs(terms)


def check_conservation(levels) -> list[str]:
    """Every level conserves the top level's weighted moment sums."""
    shift = max(float(a["omega0"]) for a in levels[0])
    top, scale = _moments(levels[0], shift)
    problems = []
    for lvl in levels[1:]:
        got, _ = _moments(lvl, shift)
        if np.any(np.abs(got - top) > MOMENT_RTOL * scale + 1e-300):
            problems.append(f"level {len(lvl)} moves the moment sums by "
                            f"{np.max(np.abs(got - top)):.3g}")
    return problems


def dissimilarity(ai: dict, aj: dict) -> float:
    """Harmonic weight times (|d omega1|^2 + d b^2 + sqrt(|d a|^2 + d sigma^2))."""
    log_pref = ai["omega0"] + aj["omega0"] - np.logaddexp(ai["omega0"],
                                                          aj["omega0"])
    d_w1 = np.asarray(ai["omega1"], float) - np.asarray(aj["omega1"], float)
    d_a = np.asarray(ai["a"], float) - np.asarray(aj["a"], float)
    fast = float(d_w1 @ d_w1) + (ai["b"] - aj["b"]) ** 2
    slow = math.sqrt(float(d_a @ d_a) + (ai["sigma"] - aj["sigma"]) ** 2)
    return math.exp(log_pref) * (fast + slow)


def merge_height(atoms) -> float:
    """Smallest pairwise dissimilarity among a level's atoms."""
    return min(dissimilarity(atoms[i], atoms[j])
               for i in range(len(atoms)) for j in range(i + 1, len(atoms)))


# ---------------------------------------------------------------------------
# model selection

def param_count(k: int, d: int) -> int:
    """(k-1)(d+1) gating + k(d+1) regression + k variance parameters."""
    return (k - 1) * (d + 1) + k * (d + 1) + k


def _argmins(scores: dict[int, float]) -> set[int]:
    """Sizes whose score is within round-off of the smallest; a choice
    among near-equal scores is decided by round-off and cannot be checked."""
    best = min(scores.values())
    slack = LL_RTOL * max(1.0, abs(best))
    return {k for k, s in scores.items() if s <= best + slack}


def selection_choices(fits: dict[int, list], top_levels, xs, ys):
    """Acceptable choices per method, from atoms of the sweep fits (size ->
    atoms) and the levels of the largest fit's dendrogram."""
    n, d = xs.shape
    lls = {k: avg_loglik(atoms, xs, ys) for k, atoms in fits.items()}
    aic, bic, icl = {}, {}, {}
    for k, atoms in fits.items():
        p = param_count(k, d)
        aic[k] = 2.0 * p - 2.0 * n * lls[k]
        bic[k] = p * math.log(n) - 2.0 * n * lls[k]
        lj = log_joint(atoms, xs, ys)
        resp = np.exp(lj - _logsumexp_rows(lj)[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(resp > 0.0, resp * np.log(resp), 0.0)
        icl[k] = bic[k] - 2.0 * float(np.sum(plogp))
    dsc = {}
    for level in top_levels:
        kappa = len(level)
        if kappa >= 2:
            dsc[kappa] = -(merge_height(level)
                           + math.log(n) * avg_loglik(level, xs, ys))
    return {"dsc": _argmins(dsc), "aic": _argmins(aic),
            "bic": _argmins(bic), "icl": _argmins(icl)}


# ---------------------------------------------------------------------------
# rate curves

def loglog_slope(ns, values) -> float:
    """Least-squares slope of log(value) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


# ---------------------------------------------------------------------------
# files

def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a of `data` as 16 hex digits."""
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) % (1 << 64)
    return format(h, "016x")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_dataset(path):
    """(xs, ys) of a dataset CSV whose header is x1..xD,y."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in
                                            range(len(header) - 1)]:
        raise ValueError(f"unexpected dataset header {header}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1], table[:, -1]
