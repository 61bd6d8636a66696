"""Spans around the program's public functions, recorded from outside it.

The tracer replaces the attributes that each calling module looks up
(``experiments.em_fit``, ``estimation.gating_newton_step``,
``metrics.translation_infimum``, ...) with wrappers that record a span:
name, start, end, parent span and operation id. Spans stay in memory and
are written out when the run ends. A span's self time is its duration
minus the part covered by its child spans, so the self times of all spans
of an operation add up to the operation's wall time (the root span).

Span names are ``<layer>.<function>``; the layer is the sgmoe module.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

clock = time.perf_counter


class Patch:
    """Replace module attributes or dict entries; `undo` restores them."""

    def __init__(self):
        self._saved = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def undo(self):
        while self._saved:
            owner, key, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


class Tracer:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before` may replace the positional args and
        `after` sees (args, result) once the span has closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[i]
        return out

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"])
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# what to wrap

def _count_objective(tracer, args):
    objective = args[0]

    def counted(t0, t1):
        tracer.counts["metrics.objective_evals"] += 1
        return objective(t0, t1)

    return (counted,) + tuple(args[1:])


def _after_em_fit(tracer, args, fit):
    tracer.counts["estimation.em_iters"] += fit.iterations
    tracer.counts["estimation.em_converged"] += int(fit.converged)


def _after_sample(tracer, args, data):
    tracer.counts["datagen.rows_sampled"] += data.n


def _after_study(tracer, args, result):
    cfg = args[0]
    tracer.counts["experiments.replications"] += len(cfg.sizes()) * cfg.reps
    tracer.counts["experiments.replications_skipped"] += result.skipped


def _file_bytes(key, index):
    def after(tracer, args, result):
        tracer.counts[key] += os.path.getsize(args[index])
    return after


def install(tracer: Tracer, patch: Patch) -> None:
    """Wrap every function the workloads reach, at each caller's lookup."""
    from sgmoe import cli, estimation, experiments, metrics, selection

    def put(owner, key, name, before=None, after=None):
        fn = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        patch.set(owner, key, tracer.wrap(name, fn, before, after))

    # experiments: the runner and every layer a replication calls
    put(experiments, "run_rate_study", "experiments.study",
        after=_after_study)
    put(experiments, "run_selection_study", "experiments.study",
        after=_after_study)
    put(experiments, "sample", "datagen.sample", after=_after_sample)
    put(experiments, "init_perturbed", "estimation.init")
    put(experiments, "init_kmeans", "estimation.init")
    put(experiments, "em_fit", "estimation.em_fit", after=_after_em_fit)
    put(experiments, "build_path", "dendrogram.build_path")
    put(experiments, "vdfra", "metrics.loss")
    for key in list(experiments.LOSSES):
        put(experiments.LOSSES, key, "metrics.loss")
    put(experiments, "dsc_select", "selection.dsc_select")
    put(experiments, "criterion_scores", "selection.criterion_scores")

    # inside the layers
    put(estimation, "gating_newton_step", "estimation.gating_newton_step")
    put(estimation, "init_perturbed", "estimation.init")   # via make_init
    put(estimation, "init_kmeans", "estimation.init")
    put(metrics, "translation_infimum", "metrics.translation_infimum",
        before=_count_objective)
    put(selection, "avg_log_likelihood", "model.avg_log_likelihood")
    put(selection, "responsibility_matrix", "model.responsibility_matrix")

    # the command line chain
    put(cli, "run_cli", "cli.run_cli")
    put(cli, "sample", "datagen.sample", after=_after_sample)
    put(cli, "write_dataset_csv", "serialize.csv_write",
        after=_file_bytes("serialize.csv_bytes", 1))
    put(cli, "load_dataset_csv", "serialize.csv_read",
        after=_file_bytes("serialize.csv_bytes", 0))
    put(cli, "file_digest", "serialize.digest",
        after=_file_bytes("serialize.digest_bytes", 0))
    for key in ("save_stamped", "save_fit", "save_dendrogram", "save_report",
                "save_manifest", "load_model_or_fit"):
        put(cli, key, "serialize.json")
    put(cli, "em_fit", "estimation.em_fit", after=_after_em_fit)
    put(cli, "build_path", "dendrogram.build_path")
    put(cli, "avg_log_likelihood", "model.avg_log_likelihood")
    put(cli, "loss_report", "metrics.loss")


def layer_metrics(totals: dict, counts: Counter, rounds: int) -> dict:
    """Per-layer figures per round, named as in BENCHMARK.json.

    `_s` figures are self times (wrapped children excluded), except
    `estimation.em_fit_s` and `experiments.study_s`, which are inclusive;
    their self parts are `estimation.em_other_s` and
    `experiments.runner_self_s`.
    """
    def calls(name):
        return totals[name][0] / rounds if name in totals else 0.0

    def incl(name):
        return totals[name][1] / rounds if name in totals else 0.0

    def own(name):
        return totals[name][2] / rounds if name in totals else 0.0

    def count(key):
        return counts[key] / rounds

    em_iters = count("estimation.em_iters")
    return {
        "estimation.em_fit_s": (incl("estimation.em_fit"), "s"),
        "estimation.em_fits": (calls("estimation.em_fit"), "count"),
        "estimation.em_iters": (em_iters, "count"),
        "estimation.em_converged": (count("estimation.em_converged"),
                                    "count"),
        "estimation.newton_steps": (calls("estimation.gating_newton_step"),
                                    "count"),
        "estimation.newton_s": (own("estimation.gating_newton_step"), "s"),
        "estimation.em_other_s": (own("estimation.em_fit"), "s"),
        "estimation.ms_per_em_iter": (
            1e3 * incl("estimation.em_fit") / em_iters if em_iters else 0.0,
            "ms"),
        "estimation.init_s": (own("estimation.init"), "s"),
        "metrics.infimum_s": (own("metrics.translation_infimum"), "s"),
        "metrics.infimum_calls": (calls("metrics.translation_infimum"),
                                  "count"),
        "metrics.objective_evals": (count("metrics.objective_evals"),
                                    "count"),
        "metrics.loss_prep_s": (own("metrics.loss"), "s"),
        "model.avg_log_likelihood_s": (own("model.avg_log_likelihood"), "s"),
        "model.avg_log_likelihood_calls": (calls("model.avg_log_likelihood"),
                                           "count"),
        "model.responsibility_matrix_s": (own("model.responsibility_matrix"),
                                          "s"),
        "selection.dsc_select_s": (own("selection.dsc_select"), "s"),
        "selection.criterion_scores_s": (own("selection.criterion_scores"),
                                         "s"),
        "dendrogram.build_path_s": (own("dendrogram.build_path"), "s"),
        "dendrogram.build_path_calls": (calls("dendrogram.build_path"),
                                        "count"),
        "datagen.sample_s": (own("datagen.sample"), "s"),
        "datagen.rows_sampled": (count("datagen.rows_sampled"), "count"),
        "experiments.study_s": (incl("experiments.study"), "s"),
        "experiments.runner_self_s": (own("experiments.study"), "s"),
        "experiments.replications": (count("experiments.replications"),
                                     "count"),
        "experiments.replications_skipped": (
            count("experiments.replications_skipped"), "count"),
        "serialize.digest_s": (own("serialize.digest"), "s"),
        "serialize.digest_bytes": (count("serialize.digest_bytes"), "bytes"),
        "serialize.csv_write_s": (own("serialize.csv_write"), "s"),
        "serialize.csv_read_s": (own("serialize.csv_read"), "s"),
        "serialize.csv_bytes": (count("serialize.csv_bytes"), "bytes"),
        "serialize.json_s": (own("serialize.json"), "s"),
        "cli.self_s": (own("cli.run_cli"), "s"),
    }


# the self-time figures above that partition an operation's wall time
SELF_TIME_METRICS = (
    "experiments.runner_self_s", "estimation.em_other_s",
    "estimation.newton_s", "estimation.init_s", "metrics.infimum_s",
    "metrics.loss_prep_s", "model.avg_log_likelihood_s",
    "model.responsibility_matrix_s", "selection.dsc_select_s",
    "selection.criterion_scores_s", "dendrogram.build_path_s",
    "datagen.sample_s", "serialize.digest_s", "serialize.csv_write_s",
    "serialize.csv_read_s", "serialize.json_s", "cli.self_s",
)
