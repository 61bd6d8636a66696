"""The three workloads: a fixed operation list each, and their checks.

An operation is one thing a user runs: a rate study, one selection-study
replication, or the simulate -> fit -> dendrogram -> metrics command chain.
`prepare` builds an operation's inputs and returns the call to time plus a
function that gathers its outputs afterwards; `check` verifies the outputs
with `checks`, which shares no code with the program.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from sgmoe import cli, experiments
from sgmoe.datagen import builtin_truths
from sgmoe.estimation import FitConfig
from sgmoe.selection import METHODS
from sgmoe.serialize import save_model

import checks

TRUTH = "g0_2"


class Recorder:
    """Keeps the EM fits and dendrograms of the running operation.

    Wraps `em_fit` and `build_path` where `module` looks them up, like the
    tracer does, so the checks see exactly what the program computed.
    """

    def __init__(self, module, patch):
        self.fits: list = []
        self.dendrograms: list = []
        em_fit, build_path = module.em_fit, module.build_path

        def recording_em_fit(data, cfg, init):
            fit = em_fit(data, cfg, init)
            self.fits.append((data, fit))
            return fit

        def recording_build_path(model):
            dg = build_path(model)
            self.dendrograms.append(dg)
            return dg

        patch.set(module, "em_fit", recording_em_fit)
        patch.set(module, "build_path", recording_build_path)

    def take(self):
        out = {"fits": self.fits, "dendrograms": self.dendrograms}
        self.fits, self.dendrograms = [], []
        return out


def _levels(dg):
    return [checks.atoms_of(level) for level in dg.levels]


class Workload:
    name = ""
    op_seeds: tuple[int, ...] = ()

    def set_up(self, tmp: Path) -> None:
        """Write the operations' input files into `tmp`."""

    def ops(self, seeds) -> list[dict]:
        return [{"seed": s} for s in seeds]

    @staticmethod
    def fit_nlls(executions) -> list[float]:
        """-(final average log-likelihood) of every EM fit that ran."""
        return [-fit.loglik_trace[-1] for ex in executions if ex.record
                for _, fit in ex.record["fits"]]


class RateStudy(Workload):
    """fig3c recipe: merged K=4 fits of g0_2 from the truth, vdfra loss."""

    name = "rate_fig3c_small"
    op_seeds = (0, 1, 2, 3)
    slope_band = (-0.8, -0.3)     # around the paper's N^(-1/2)

    def __init__(self, smoke: bool, patch):
        # the slope check needs the whole grid, so a smoke run keeps it
        # and runs two studies
        self.grid = dict(n_min=100, n_max=1000, n_count=5, reps=4)
        self.op_seeds = self.op_seeds[:2] if smoke else self.op_seeds
        self.recorder = Recorder(experiments, patch)
        self.truth = checks.atoms_of(builtin_truths()[TRUTH])

    def prepare(self, op, tmp: Path, tag: str):
        cfg = experiments.RateStudyConfig(
            truth=TRUTH, setting="merged", fit_k=4, loss="vdfra",
            em=FitConfig(init_scale=0.0), seed=op["seed"], workers=1,
            **self.grid)
        checkpoint = tmp / f"{tag}.csv"

        def call():
            return experiments.run_rate_study(cfg, checkpoint=checkpoint)

        def collect(result):
            return {"skipped": result.skipped,
                    "rows": checks.read_csv(checkpoint),
                    **self.recorder.take()}

        return call, collect

    def check(self, executions, tmp):
        problems = {}
        first = {}
        for ex in executions:
            if ex.record is None:
                continue
            first.setdefault(ex.index, ex.record)
            rows = ex.record["rows"]
            found = problems.setdefault(ex.index, [])
            if sum(r["status"] == "skip" for r in rows) != ex.record["skipped"]:
                found.append("skip count differs from the checkpoint")
            for r in rows:
                if r["status"] != "ok":
                    continue
                for key in ("loss", "raw_loss"):
                    v = float(r[key])
                    if not (np.isfinite(v) and v >= 0.0):
                        found.append(f"{key} {v!r} at n={r['n']}")
            for data, fit in ex.record["fits"]:
                found += checks.check_fit(fit.loglik_trace,
                                          checks.atoms_of(fit.model),
                                          data.xs, data.ys, self.truth)
            for dg in ex.record["dendrograms"]:
                found += checks.check_conservation(_levels(dg))
            if rows != first[ex.index]["rows"]:
                found.append("a rerun of the study wrote another checkpoint")
        pooled: dict[int, list] = {}
        for record in first.values():
            for r in record["rows"]:
                if r["status"] == "ok":
                    pooled.setdefault(int(r["n"]), []).append(float(r["loss"]))
        if pooled:
            ns = sorted(pooled)
            slope = checks.loglog_slope(ns, [np.mean(pooled[n]) for n in ns])
            lo, hi = self.slope_band
            if not lo <= slope <= hi:
                for index in first:
                    problems[index].append(
                        f"pooled merged-loss slope {slope:.3f} outside "
                        f"[{lo}, {hi}]")
        return {i: p for i, p in problems.items() if p}


class SelectionStudy(Workload):
    """fig4/fig5 recipes, one replication per operation, kmax=4, all methods."""

    name = "select_fig45"
    op_seeds = (0,)

    def __init__(self, smoke: bool, patch):
        self.sizes = (400,) if smoke else (1000, 3162)
        self.recorder = Recorder(experiments, patch)

    def ops(self, seeds):
        # clean (fig4) and 5% contaminated (fig5) alternate
        return [{"seed": s, "n": n, "eps": eps}
                for s in seeds for n in self.sizes for eps in (0.0, 0.05)]

    def prepare(self, op, tmp: Path, tag: str):
        cfg = experiments.SelectionStudyConfig(
            truth=TRUTH, n_min=op["n"], n_max=op["n"], n_count=1, reps=1,
            kmax=4, methods=METHODS, contamination_eps=op["eps"],
            seed=op["seed"], workers=1)
        checkpoint = tmp / f"{tag}.csv"

        def call():
            return experiments.run_selection_study(cfg, checkpoint=checkpoint)

        def collect(result):
            return {"rows": checks.read_csv(checkpoint),
                    **self.recorder.take()}

        return call, collect

    def check(self, executions, tmp):
        problems = {}
        for ex in executions:
            if ex.record is None:
                continue
            found = problems.setdefault(ex.index, [])
            (row,) = ex.record["rows"]
            fits = ex.record["fits"]
            data = fits[0][0]
            for _, fit in fits:
                found += checks.check_fit(fit.loglik_trace,
                                          checks.atoms_of(fit.model),
                                          data.xs, data.ys)
            (dg,) = ex.record["dendrograms"]
            found += checks.check_conservation(_levels(dg))
            if row["status"] != "ok":
                found.append(f"replication status {row['status']}")
                continue
            allowed = checks.selection_choices(
                {fit.model.n_atoms: checks.atoms_of(fit.model)
                 for _, fit in fits}, _levels(dg), data.xs, data.ys)
            for method, ok in allowed.items():
                if int(row[method]) not in ok:
                    found.append(f"{method} chose {row[method]}, "
                                 f"recomputed {sorted(ok)}")
        return {i: p for i, p in problems.items() if p}


class CommandChain(Workload):
    """simulate -> fit -> dendrogram -> metrics through `cli.run_cli`."""

    name = "cli_n1e5"
    op_seeds = (0, 1)

    def __init__(self, smoke: bool, patch):
        self.n = 2_000 if smoke else 100_000
        self.op_seeds = self.op_seeds[:1] if smoke else self.op_seeds
        self.recorder = Recorder(cli, patch)
        self.truth = checks.atoms_of(builtin_truths()[TRUTH])

    def set_up(self, tmp: Path) -> None:
        save_model(builtin_truths()[TRUTH], tmp / "truth.json")

    @staticmethod
    def _dir(tmp: Path, index: int) -> Path:
        return tmp / f"chain{index}"

    def prepare(self, op, tmp: Path, tag: str):
        d = self._dir(tmp, op["index"])
        d.mkdir(exist_ok=True)
        seed = str(op["seed"])
        argvs = [
            ["simulate", "--truth", TRUTH, "--n", str(self.n), "--seed", seed,
             "--out", str(d / "data.csv")],
            ["fit", "--data", str(d / "data.csv"), "--k", "4",
             "--init", "perturbed_truth", "--truth", TRUTH,
             "--init-scale", "0", "--seed", seed,
             "--out", str(d / "fit.json")],
            ["dendrogram", "--model", str(d / "fit.json"),
             "--data", str(d / "data.csv"), "--out", str(d / "dendro")],
            ["metrics", "--fitted", str(d / "fit.json"),
             "--reference", str(tmp / "truth.json"),
             "--out", str(d / "metrics.json")],
        ]

        def call():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                for argv in argvs:
                    code = cli.run_cli(argv)
                    if code != 0:
                        raise RuntimeError(f"sgmoe {argv[0]} exited {code}: "
                                           f"{sink.getvalue()[-500:]}")

        def collect(_):
            digests = {name: checks.read_json(d / f"{name}.manifest.json")
                       ["outputs"]
                       for name in ("data", "fit", "dendro", "metrics")}
            fits = [(None, fit) for _, fit in self.recorder.take()["fits"]]
            return {"digests": digests, "fits": fits}

        return call, collect

    def check(self, executions, tmp):
        """The last chain of each operation is on disk; earlier reruns must
        have written the same bytes (same manifest digests)."""
        problems = {}
        last = {ex.index: ex.record for ex in executions if ex.record}
        for ex in executions:
            if ex.record and ex.record["digests"] != last[ex.index]["digests"]:
                problems.setdefault(ex.index, []).append(
                    "a rerun of the chain wrote other bytes")
        for index, record in last.items():
            problems.setdefault(index, []).extend(
                self._check_files(self._dir(tmp, index), record["digests"]))
        return {i: p for i, p in problems.items() if p}

    def _check_files(self, d: Path, digests) -> list[str]:
        found = []
        xs, ys = checks.read_dataset(d / "data.csv")
        if len(ys) != self.n:
            found.append(f"dataset has {len(ys)} rows, not {self.n}")
        fit = checks.read_json(d / "fit.json")
        found += checks.check_fit(fit["loglik_trace"], fit["model"]["atoms"],
                                  xs, ys, self.truth)
        levels = [lvl["atoms"] for lvl in checks.read_json(d / "dendro.json")
                  ["levels"]]
        found += checks.check_conservation(levels)
        for row in checks.read_csv(d / "dendro.csv"):
            atoms = levels[len(levels[0]) - int(row["level"])]
            own = checks.avg_loglik(atoms, xs, ys)
            if not checks.close(own, float(row["avg_loglik"])):
                found.append(f"dendrogram level {row['level']} avg_loglik "
                             f"{row['avg_loglik']} != recomputed {own!r}")
        m = checks.read_json(d / "metrics.json")
        if not 0.0 <= m["vde"] <= m["vdo"] <= m["vdfra"]:
            found.append(f"losses not nested: vde {m['vde']}, vdo {m['vdo']}, "
                         f"vdfra {m['vdfra']}")
        for outputs in digests.values():
            for path, digest in outputs.items():
                if path.endswith(".json"):
                    own = checks.fnv1a64(Path(path).read_bytes())
                    if own != digest:
                        found.append(f"manifest digest of {path} is {digest}, "
                                     f"FNV-1a gives {own}")
        return found


WORKLOADS = {cls.name: cls for cls in (RateStudy, SelectionStudy,
                                       CommandChain)}
