"""The benchmark's hooks (perfbench/) attach to the program and come off.

The traced benchmark wraps module globals by name: a global that is
renamed or dropped breaks it, and its smoke run with tracing is not part
of the tier-1 suite.
"""

import importlib
from pathlib import Path

from sgmoe import cli, estimation, experiments, metrics, selection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _globals():
    """Every module global the hooks may patch, and the loss table."""
    owners = {m.__name__: vars(m) for m in (cli, estimation, experiments,
                                           metrics, selection)}
    owners["experiments.LOSSES"] = experiments.LOSSES
    return {(owner, key): value for owner, table in owners.items()
            for key, value in table.items()}


def test_hooks_attach_and_every_patched_global_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    before = _globals()
    patch = spans.Patch()
    try:
        spans.install(spans.Tracer(), patch)
        workloads.Recorder(experiments, patch)
        workloads.Recorder(cli, patch)
        during = _globals()
    finally:
        patch.undo()
    patched = {key for key, value in during.items()
               if before.get(key) is not value}
    assert patched <= set(before)
    for name in ("em_fit", "build_path", "init_kmeans", "init_perturbed",
                 "dsc_select", "criterion_scores"):
        assert ("sgmoe.experiments", name) in patched
    for name in ("gating_newton_step", "init_kmeans", "init_perturbed"):
        assert ("sgmoe.estimation", name) in patched
    assert ("sgmoe.selection", "responsibility_matrix") in patched
    assert ("sgmoe.cli", "save_fit") in patched
    after = _globals()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
