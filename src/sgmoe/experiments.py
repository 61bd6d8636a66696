"""Simulation studies: convergence-rate curves and selection-frequency tables.

Both studies run on one grid runner, `_run_grid`. The work is a flat list
of replications keyed by (size index, rep index), and every replication
derives its own seed from the study seed. A replication returns (status,
*values); the runner encodes it once as its checkpoint record, the strings
(n_index, n, rep, status, *values) with each value's repr and "" for None.
Completed records persist to an optional checkpoint CSV and are skipped on
resume; a final line without its line terminator was torn by a kill and is
recomputed. A finished run leaves the checkpoint sorted by key, and
aggregation is a deterministic reduce over sorted keys. Worker scheduling
therefore cannot change any output byte.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datagen import GenConfig, builtin_truths, derive_seed, sample
from .dendrogram import build_path
from .errors import InputError, NumericError
from .estimation import FitConfig, em_fit, init_kmeans, init_perturbed
from .metrics import vde, vdfra, vdo
from .model import Dataset, MixingMeasure
from .selection import (METHODS, SelectionReport, argmin_level,
                        criterion_scores, dsc_select)
from .serialize import _unreadable, _unwritable, overwrite

LOSSES = {"vde": vde, "vdo": vdo, "vdfra": vdfra}
SETTINGS = ("exact", "overfit", "merged")
PRESET_NAMES = ("fig3a", "fig3b", "fig3c", "fig4", "fig5")


def resolve_workers(configured: int | None = None) -> int:
    """Worker count: the configured one, else one per CPU."""
    if configured is not None:
        return configured
    return os.cpu_count() or 1


def log_size_grid(n_min: int, n_max: int, count: int) -> tuple[int, ...]:
    """`count` sample sizes spaced evenly in log10 between the endpoints."""
    if count < 1:
        raise InputError(f"size count must be >= 1, got {count}")
    if not 1 <= n_min <= n_max:
        raise InputError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    grid = np.logspace(math.log10(n_min), math.log10(n_max), count)
    return tuple(int(round(x)) for x in grid)


def slope_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope and intercept of log(value) against log(N)."""
    pts = list(points)
    if len(pts) < 3:
        raise InputError(f"slope fit needs at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=float)
    vs = np.array([p[1] for p in pts], dtype=float)
    if np.any(ns <= 0) or np.any(vs <= 0):
        raise InputError("slope fit needs positive sizes and values")
    coeffs = np.polyfit(np.log(ns), np.log(vs), 1)
    return float(coeffs[0]), float(coeffs[1])


@dataclass(frozen=True)
class _StudyConfig:
    """What both studies share: the truth, the (size, rep) grid, the EM
    settings, the study seed and the worker count. em.K, em.seed and
    em.init are ignored; replication seeds derive from `seed`.

    Each study adds its own fields, checks them in `_check(k0)` (k0 is the
    true size) and names its largest fitted size in `fit_size()`.
    """
    truth: str = "g0_2"
    n_min: int = 100
    n_max: int = 10_000
    n_count: int = 12
    reps: int = 10
    em: FitConfig = field(default_factory=FitConfig)
    seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        registry = builtin_truths()
        if self.truth not in registry:
            raise InputError(f"unknown truth {self.truth!r}")
        self._check(registry[self.truth].n_atoms)
        if self.reps < 1:
            raise InputError(f"reps must be >= 1, got {self.reps}")
        if self.n_min < 10 * self.fit_size():
            raise InputError(
                f"n_min must be >= 10*K = {10 * self.fit_size()}")
        if self.workers is not None and self.workers < 1:
            raise InputError("workers must be >= 1")
        log_size_grid(self.n_min, self.n_max, self.n_count)  # validates

    def sizes(self) -> tuple[int, ...]:
        return log_size_grid(self.n_min, self.n_max, self.n_count)


# ---------------------------------------------------------------------------
# rate study

@dataclass(frozen=True)
class RateStudyConfig(_StudyConfig):
    """Convergence-rate study: loss to the truth as N grows.

    `setting` picks the estimator: "exact" fits the true number of experts,
    "overfit" fits `fit_k` experts, "merged" fits `fit_k` and then merges
    down the aggregation path to the true size. Every fit starts from a
    perturbed copy of the truth (scale em.init_scale).
    """
    setting: str = "exact"
    fit_k: int = 4
    loss: str = "vde"

    def _check(self, k0: int):
        if self.setting not in SETTINGS:
            raise InputError(f"unknown setting {self.setting!r}")
        if self.loss not in LOSSES:
            raise InputError(f"unknown loss {self.loss!r}")
        if self.setting != "exact" and self.fit_k < k0:
            raise InputError(
                f"fit_k must be >= the true size {k0}, got {self.fit_k}")

    def fit_size(self) -> int:
        if self.setting == "exact":
            return builtin_truths()[self.truth].n_atoms
        return self.fit_k


@dataclass(frozen=True)
class RateRow:
    n: int
    mean_loss: float
    std_loss: float
    reps_used: int


@dataclass(frozen=True)
class RateStudyResult:
    """Per-size loss summaries plus the fitted log-log slope.

    In the merged setting the over-sized fit is a free by-product, so its
    fast-rate-aware loss curve is reported alongside under raw_*.
    `records` are the finished checkpoint rows in (n_index, rep) order.
    """
    rows: tuple[RateRow, ...]
    slope: float
    intercept: float
    skipped: int
    raw_rows: tuple[RateRow, ...] = ()
    raw_slope: float = math.nan
    raw_intercept: float = math.nan
    records: tuple[tuple[str, ...], ...] = ()


# Largest gate spread (see gate_spread) of a fit the rate study will score.
# Beyond log(float max) the ratio of two atoms' gates somewhere on the data
# is not representable in double precision: the gate has separated the data
# and the fit's exp(omega0) weights no longer describe a measurable model.
MAX_GATE_SPREAD = math.log(np.finfo(float).max)  # ~709.78


def gate_spread(model, xs: np.ndarray) -> float:
    """R = max over atom pairs k < l of range_n (omega1_k - omega1_l) . x_n.

    The largest swing, over the covariates `xs`, of the log-ratio between
    two atoms' gates. Intercepts cancel, so R is unchanged by a common
    gating translation (t0, t1) and by relabelling the atoms.
    """
    z = xs @ np.array([atom.omega1 for atom in model.atoms]).T  # (n, K)
    diffs = z[:, :, None] - z[:, None, :]
    return float(np.max(np.ptp(diffs, axis=0)))


def _rate_replication(cfg: RateStudyConfig, n_index: int, n: int,
                      rep: int) -> tuple[str, float | None, float | None]:
    """One dataset, one fit, one loss value. Returns (status, loss, raw).

    A fit whose gate spread R (see `gate_spread`) exceeds MAX_GATE_SPREAD =
    log(float max) ~ 709.78 has separated the data: its gating slopes are
    running off to infinity and no loss of it can be measured. Such a fit
    is classified as diverged, like any other NumericError, and the
    replication returns ("skip", None, None), which counts toward the
    study's 10% abort. Healthy fits of the built-in truths have R of about
    20-75 and a separated one R in the thousands, so the bound sits about a
    factor of 10 from each.
    """
    truth = builtin_truths()[cfg.truth]
    data = sample(truth, GenConfig(n=n, seed=derive_seed(cfg.seed, n_index,
                                                         rep, 0)))
    k = cfg.fit_size()
    init = init_perturbed(truth, k, cfg.em.init_scale,
                          derive_seed(cfg.seed, n_index, rep, 1),
                          gate_scale=cfg.em.init_gate_scale)
    try:
        fit = em_fit(data, replace(cfg.em, K=k), init)
        spread = gate_spread(fit.model, data.xs)
        if spread > MAX_GATE_SPREAD:
            raise NumericError(
                f"gate separated the data: spread {spread:.6g} exceeds "
                f"{MAX_GATE_SPREAD:.6g}", iteration=fit.iterations)
        model = fit.model
        raw_loss = None
        if cfg.setting == "merged":
            raw_loss = vdfra(model, truth)
            model = build_path(model).level(truth.n_atoms)
        loss = LOSSES[cfg.loss](model, truth)
    except NumericError:
        return "skip", None, None
    return "ok", loss, raw_loss


def _curve(sizes, ok, j: int):
    """Per-size mean and spread of value column j of the ok records, and
    the log-log slope and intercept of the positive means (NaN with fewer
    than 3 of them)."""
    rows = []
    for n, values in zip(sizes, ok):
        losses = [v[j] for v in values]
        mean = float(np.mean(losses)) if losses else math.nan
        std = float(np.std(losses, ddof=1)) if len(losses) > 1 else 0.0
        rows.append(RateRow(n=n, mean_loss=mean, std_loss=std,
                            reps_used=len(losses)))
    pts = [(row.n, row.mean_loss) for row in rows
           if row.reps_used > 0 and row.mean_loss > 0]
    slope = slope_fit(pts) if len(pts) >= 3 else (math.nan, math.nan)
    return (tuple(rows), *slope)


KEY_FIELDS = ("n_index", "n", "rep", "status")
RATE_VALUES = ("loss", "raw_loss")


def _load_checkpoint(path, fields, sizes, reps, cols) -> dict:
    """Checkpoint records keyed by (n_index, rep).

    A run killed mid-write leaves a final line without its line terminator.
    That line is torn: it is dropped and its replication recomputed. Every
    other line must be a record of this grid whose status is ok or skip,
    and an ok record's value columns `cols` must parse as numbers. Anything
    else, or a file that cannot be read, is an InputError naming the path
    and, where there is one, the line.
    """
    records: dict[tuple[int, int], tuple[str, ...]] = {}
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        return records
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    reader = csv.reader(io.StringIO(text[:text.rfind("\n") + 1], newline=""))
    try:
        header = next(reader, None)
        if header is not None and tuple(header) != fields:
            raise ValueError("the column layout differs")
        for row in reader:
            if len(row) != len(fields):
                raise ValueError(f"{len(row)} fields, not {len(fields)}")
            i, n, r = int(row[0]), int(row[1]), int(row[2])
            if not (0 <= i < len(sizes) and 0 <= r < reps
                    and n == sizes[i]):
                raise ValueError("checkpoint does not match this "
                                 "configuration's grid")
            if row[3] not in ("ok", "skip"):
                raise ValueError(f"status {row[3]!r} is not ok or skip")
            if row[3] == "ok":
                [float(row[j]) for j in cols]  # raises if one does not parse
            records[(i, r)] = tuple(row)
    except (csv.Error, ValueError) as exc:
        raise InputError(
            f"checkpoint {path} line {reader.line_num}: {exc}") from exc
    return records


def _write_checkpoint(path, fields, records: dict) -> None:
    """Replace the checkpoint with `records` sorted by (n_index, rep).

    The rows go to a temporary file in the same directory that is then
    renamed over the checkpoint, so a crash leaves the old file or the new
    one, never a mix.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with overwrite(tmp, newline="", name=path) as fh:
        csv.writer(fh).writerows(
            [fields, *(records[key] for key in sorted(records))])
    try:
        os.replace(tmp, path)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _run_jobs(jobs, worker: Callable, workers: int, on_done: Callable):
    """Execute (key, args) jobs inline or on a process pool."""
    if workers <= 1 or len(jobs) <= 1:
        for key, args in jobs:
            on_done(key, worker(*args))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(worker, *args): key for key, args in jobs}
        for fut in as_completed(futures):
            on_done(futures[fut], fut.result())


def _run_grid(cfg, checkpoint, values, replication: Callable, reads=None):
    """Run (or resume) a study's (size, rep) grid.

    `replication(cfg, n_index, n, rep)` returns (status, *values), status
    "ok" or "skip". Each result is encoded once as its checkpoint record
    (see the module docstring) and kept in memory. The checkpoint is first
    rewritten from the records it holds, which drops a torn line, and then
    takes each new record as it finishes. A finished run rewrites it from
    memory in (n_index, rep) order, so its bytes do not depend on the
    worker count; an interrupted one leaves its appended rows for the
    resume. More than 10% skipped replications abort the study with
    NumericError.

    Returns the sorted records, per size the ok records' `reads` columns
    (default: all `values`) as floats, and the skip count.
    """
    sizes = cfg.sizes()
    fields = KEY_FIELDS + tuple(values)
    cols = [fields.index(name) for name in reads or values]
    records = {}
    fh = None
    if checkpoint is not None:
        records = _load_checkpoint(checkpoint, fields, sizes, cfg.reps, cols)
        _write_checkpoint(checkpoint, fields, records)
        try:
            fh = open(checkpoint, "a", newline="")
        except OSError as exc:
            raise _unwritable(checkpoint, exc) from exc
        writer = csv.writer(fh)
    jobs = [((i, r), (cfg, i, n, r))
            for i, n in enumerate(sizes) for r in range(cfg.reps)
            if (i, r) not in records]

    def on_done(key, out):
        records[key] = (str(key[0]), str(sizes[key[0]]), str(key[1]), out[0],
                        *("" if v is None else repr(v) for v in out[1:]))
        if fh is not None:
            writer.writerow(records[key])
            fh.flush()

    try:
        _run_jobs(jobs, replication, resolve_workers(cfg.workers), on_done)
    finally:
        if fh is not None:
            fh.close()
    if checkpoint is not None:
        # rows were appended in finishing order, which depends on scheduling
        _write_checkpoint(checkpoint, fields, records)

    done = sorted(records.items())
    ok = [[] for _ in sizes]
    for (i, _), rec in done:
        if rec[3] == "ok":
            ok[i].append(tuple(float(rec[j]) for j in cols))
    skipped = len(done) - sum(map(len, ok))
    if skipped > 0.10 * len(done):
        raise NumericError(f"{skipped} of {len(done)} replications failed; "
                           "study aborted")
    return tuple(rec for _, rec in done), ok, skipped


def run_rate_study(cfg: RateStudyConfig,
                   checkpoint: str | Path | None = None) -> RateStudyResult:
    """Run (or resume) a rate study; fails if more than 10% of reps skip.

    A replication is skipped when its fit raises NumericError, including a
    fit whose gate spread R = max_{k<l} range_n (omega1_k - omega1_l).x_n
    exceeds MAX_GATE_SPREAD = log(float max): such a gate has separated the
    data and its loss cannot be measured (see `_rate_replication`). Skips
    beyond 10% of the grid abort the study with NumericError.

    The checkpoint is finalized as in `_run_grid`.
    """
    merged = cfg.setting == "merged"
    records, ok, skipped = _run_grid(
        cfg, checkpoint, RATE_VALUES, _rate_replication,
        reads=RATE_VALUES if merged else RATE_VALUES[:1])
    rows, slope, intercept = _curve(cfg.sizes(), ok, 0)
    raw = _curve(cfg.sizes(), ok, 1) if merged else ((), math.nan, math.nan)
    return RateStudyResult(rows, slope, intercept, skipped, *raw,
                           records=records)


# ---------------------------------------------------------------------------
# selection study

@dataclass(frozen=True)
class SelectionStudyConfig(_StudyConfig):
    """Selection-frequency study comparing the dendrogram criterion with
    penalized-likelihood sweeps on the same data.

    Per replication the sweep fits sizes 1..kmax (perturbed-truth start at
    or above the true size, k-means start below it, where the perturbation
    recipe is undefined); the dendrogram criterion reads the kmax fit only.
    """
    n_min: int = 1_000
    n_count: int = 4
    kmax: int = 4
    methods: tuple[str, ...] = METHODS
    contamination_eps: float = 0.0
    epsilon_n: float | None = None

    def _check(self, k0: int):
        if self.kmax < max(2, k0):
            raise InputError(f"kmax must be >= max(2, {k0}), got {self.kmax}")
        if not self.methods:
            raise InputError("methods must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise InputError(f"unknown selection method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise InputError("duplicate selection method")
        if not 0.0 <= self.contamination_eps < 1.0:
            raise InputError("contamination_eps must lie in [0, 1)")
        if self.epsilon_n is not None and self.epsilon_n <= 0.0:
            raise InputError("epsilon_n must be > 0")

    def fit_size(self) -> int:
        return self.kmax


@dataclass(frozen=True)
class SelectionRow:
    n: int
    method: str
    proportion_correct: float
    mean_chosen: float
    reps_used: int


@dataclass(frozen=True)
class SelectionStudyResult:
    """Per-size, per-method choice summaries; `records` as in the rate
    study's result."""
    rows: tuple[SelectionRow, ...]
    true_k: int
    skipped: int
    records: tuple[tuple[str, ...], ...] = ()


def select_order(data: Dataset, kmax: int, methods: Sequence[str],
                 em: FitConfig, init_for: Callable[[int], MixingMeasure],
                 epsilon_n: float | None = None,
                 ) -> dict[str, SelectionReport]:
    """Fit candidate sizes and choose among them; one report per method.

    Fits sizes 1..kmax, or only kmax when the DSC is the only method, each
    from init_for(k) with em's settings at K = k. The DSC reads the kmax
    fit's dendrogram (epsilon_n None means log N); AIC/BIC/ICL score every
    fitted size. A failed fit raises NumericError naming its size.

    The one pipeline behind `sgmoe select` and the selection study. It
    looks `em_fit`, `build_path` and the scorers up as this module's
    globals, where the benchmark (perfbench/) wraps them.
    """
    sweep = any(m != "dsc" for m in methods)
    fits = {}
    for k in range(1, kmax + 1) if sweep else (kmax,):
        try:
            fits[k] = em_fit(data, replace(em, K=k), init_for(k))
        except (InputError, NumericError) as exc:
            raise NumericError(
                f"fit failed at candidate size {k}: {exc}") from exc
    reports = {}
    for m in methods:
        if m == "dsc":
            reports[m] = dsc_select(build_path(fits[kmax].model), data,
                                    epsilon_n)
        else:
            scores = criterion_scores(list(fits.values()), data, m)
            reports[m] = SelectionReport(method=m, per_level=scores,
                                         chosen=argmin_level(scores))
    return reports


def _selection_replication(cfg: SelectionStudyConfig, n_index: int, n: int,
                           rep: int) -> tuple[str | int | None, ...]:
    """(status, chosen size per method in cfg.methods order) for one
    dataset; any EM failure skips the rep, with None per method."""
    truth = builtin_truths()[cfg.truth]
    data = sample(truth, GenConfig(
        n=n, seed=derive_seed(cfg.seed, n_index, rep, 0),
        contamination_eps=cfg.contamination_eps))

    def init_for(k):
        init_seed = derive_seed(cfg.seed, n_index, rep, 1, k)
        if k >= truth.n_atoms:
            return init_perturbed(truth, k, cfg.em.init_scale, init_seed,
                                  gate_scale=cfg.em.init_gate_scale)
        return init_kmeans(data, k, init_seed, sigma_floor=cfg.em.sigma_floor)

    try:
        reports = select_order(data, cfg.kmax, cfg.methods, cfg.em, init_for,
                               cfg.epsilon_n)
    except NumericError:
        return ("skip",) + (None,) * len(cfg.methods)
    return ("ok", *(reports[m].chosen for m in cfg.methods))


def run_selection_study(cfg: SelectionStudyConfig,
                        checkpoint: str | Path | None = None,
                        ) -> SelectionStudyResult:
    """Run (or resume) a selection study over the configured size grid.

    The checkpoint is finalized as in `_run_grid`.
    """
    k0 = builtin_truths()[cfg.truth].n_atoms
    records, ok, skipped = _run_grid(cfg, checkpoint, cfg.methods,
                                     _selection_replication)
    rows = []
    for n, used in zip(cfg.sizes(), ok):
        for j, m in enumerate(cfg.methods):
            picks = [p[j] for p in used]
            correct = (float(np.mean([p == k0 for p in picks]))
                       if picks else math.nan)
            mean_chosen = float(np.mean(picks)) if picks else math.nan
            rows.append(SelectionRow(n=n, method=m,
                                     proportion_correct=correct,
                                     mean_chosen=mean_chosen,
                                     reps_used=len(picks)))
    return SelectionStudyResult(rows=tuple(rows), true_k=k0, skipped=skipped,
                                records=records)


# ---------------------------------------------------------------------------
# paper-scale presets

def preset(name: str):
    """Full-size study configurations; the defaults above are desk scale."""
    if name == "fig3a":
        return RateStudyConfig(truth="g0_2", setting="exact",
                               n_min=100, n_max=50_000, n_count=100,
                               reps=30, loss="vdfra", seed=0,
                               em=FitConfig(init_scale=0.0))
    if name == "fig3b":
        return RateStudyConfig(truth="g0_2", setting="overfit", fit_k=4,
                               n_min=338, n_max=100_000, n_count=165,
                               reps=40, loss="vdfra", seed=0,
                               em=FitConfig(init_scale=0.0))
    if name == "fig3c":
        return RateStudyConfig(truth="g0_2", setting="merged", fit_k=4,
                               n_min=100, n_max=100_000, n_count=200,
                               reps=40, loss="vdfra", seed=0,
                               em=FitConfig(init_scale=0.0))
    if name == "fig4":
        return SelectionStudyConfig(truth="g0_2", n_min=1_000, n_max=50_000,
                                    n_count=32, reps=25, kmax=4, seed=0)
    if name == "fig5":
        return SelectionStudyConfig(truth="g0_2", n_min=1_000, n_max=50_000,
                                    n_count=32, reps=25, kmax=4,
                                    contamination_eps=0.05, seed=0)
    raise InputError(f"unknown preset {name!r}")
