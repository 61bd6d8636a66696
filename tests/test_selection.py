"""Dendrogram selection criterion, parameter counts, and sweep baselines."""

from __future__ import annotations

import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sgmoe.cli import run_cli
from sgmoe.datagen import GenConfig, builtin_truths, sample
from sgmoe.dendrogram import Dendrogram, MergeRecord, build_path
from sgmoe.errors import InputError
from sgmoe.estimation import FitConfig, em_fit, init_perturbed, make_init
from sgmoe.experiments import select_order
from sgmoe.selection import (
    SelectionReport,
    criterion_scores,
    dsc_select,
    param_count,
)
from sgmoe.model import Dataset

from helpers import g0_two_expert, make_measure


def constant_density_dendrogram(heights):
    """Levels made of duplicated atoms, so every level has the same density.

    With equal likelihood terms, the criterion ranks levels purely by
    height; fabricated heights make the hand computation trivial.
    """
    atom = (0.0, (0.0,), (1.0,), 0.5, 0.8)
    k = len(heights) + 1
    levels = []
    for kappa in range(k, 0, -1):
        w = math.log(1.0 / kappa)
        levels.append(make_measure([(w, *atom[1:])] * kappa))
    merges = tuple(
        MergeRecord(level=k - i, pair=(0, 1), height=h,
                    merged_atom=levels[i + 1].atoms[0])
        for i, h in enumerate(heights))
    return Dendrogram(levels=tuple(levels), merges=merges,
                      heights=tuple(heights))


def toy_data(seed=0, n=50):
    rng = np.random.default_rng(seed)
    return Dataset(xs=rng.uniform(-1, 1, size=(n, 1)), ys=rng.normal(size=n))


def sweep(data, kmax, methods, cfg):
    """`select_order` with the command line's starts: make_init at each size."""
    return select_order(data, kmax, methods, cfg,
                        lambda k: make_init(data, replace(cfg, K=k)))


class TestParamCount:
    def test_known_values(self):
        assert param_count(1, 1) == 3
        assert param_count(2, 1) == 8
        assert param_count(3, 2) == 18

    def test_strictly_increasing(self):
        for d in (1, 2, 3):
            counts = [param_count(k, d) for k in range(1, 6)]
            assert all(b > a for a, b in zip(counts, counts[1:]))
        for k in (1, 2, 5):
            counts = [param_count(k, d) for d in range(1, 5)]
            assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_invalid(self):
        with pytest.raises(InputError):
            param_count(0, 1)
        with pytest.raises(InputError):
            param_count(2, 0)


class TestDscSelect:
    def test_two_atom_dendrogram_only_level_two(self):
        dg = build_path(g0_two_expert())
        rep = dsc_select(dg, toy_data())
        assert rep.chosen == 2
        assert set(rep.per_level) == {2}
        assert rep.method == "dsc"

    def test_hand_computed_toy(self):
        # heights (10, 0.01) with equal likelihoods at every level: the
        # score is -(h + eps*ll), so level 3 (height 10) is the argmin
        dg = constant_density_dendrogram([10.0, 0.01])
        data = toy_data()
        rep = dsc_select(dg, data, epsilon_n=5.0)
        assert rep.chosen == 3
        from sgmoe.model import avg_log_likelihood
        base_ll = avg_log_likelihood(dg.level(3), data)
        assert rep.per_level[3] == pytest.approx(-(10.0 + 5.0 * base_ll))
        assert rep.per_level[2] == pytest.approx(-(0.01 + 5.0 * base_ll))

    def test_argmin_invariant_under_joint_rescaling(self):
        dg = constant_density_dendrogram([0.4, 3.0, 0.2])
        data = toy_data(seed=5)
        rep = dsc_select(dg, data, epsilon_n=2.0)
        scaled = {k: 7.3 * v for k, v in rep.per_level.items()}
        assert min(scaled, key=lambda k: (scaled[k], k)) == rep.chosen

    def test_default_epsilon_is_log_n(self):
        dg = build_path(g0_two_expert())
        data = toy_data(n=200)
        rep = dsc_select(dg, data)
        assert rep.epsilon_n == pytest.approx(math.log(200))

    def test_single_atom_rejected(self):
        dg = build_path(make_measure([(0.0, (0.0,), (0.0,), 0.0, 1.0)]))
        with pytest.raises(InputError):
            dsc_select(dg, toy_data())

    def test_bad_epsilon_rejected(self):
        dg = build_path(g0_two_expert())
        with pytest.raises(InputError):
            dsc_select(dg, toy_data(), epsilon_n=0.0)

    def test_pipeline_recovers_two_experts(self):
        # over-fit K=4 on clean two-expert data, then select on the path
        g0 = builtin_truths()["g0_2"]
        data = sample(g0, GenConfig(n=20_000, seed=314))
        cfg = FitConfig(K=4, init="perturbed_truth", seed=4)
        fit = em_fit(data, cfg, init_perturbed(g0, 4, 0.5, seed=271))
        rep = dsc_select(build_path(fit.model), data)
        assert rep.chosen == 2


class TestCriterionSweep:
    """AIC/BIC/ICL through `select_order`, started as `sgmoe select` does."""

    def test_bic_consistent_on_single_expert(self):
        # single-expert data: BIC should pick 1 nearly always at this size
        g1 = make_measure([(0.0, (0.0,), (1.2,), 0.3, 0.25)])
        hits = 0
        for seed in range(20):
            data = sample(g1, GenConfig(n=5000, seed=1000 + seed))
            rep = sweep(data, 3, ("bic",),
                        FitConfig(K=1, seed=seed, init="kmeans"))["bic"]
            hits += rep.chosen == 1
        assert hits >= 18

    def test_icl_at_least_bic(self):
        g0 = builtin_truths()["g0_2"]
        data = sample(g0, GenConfig(n=2000, seed=8))
        reports = sweep(data, 3, ("bic", "icl"),
                        FitConfig(K=1, seed=0, init="kmeans"))
        bic = reports["bic"].per_level
        icl = reports["icl"].per_level
        for k in bic:
            assert icl[k] >= bic[k] - 1e-9

    def test_all_methods_recover_truth_at_large_n(self):
        # AIC/BIC/ICL on one large draw; TestDscSelect checks the DSC on one
        g0 = builtin_truths()["g0_2"]
        data = sample(g0, GenConfig(n=20_000, seed=1618))
        reports = sweep(data, 3, ("aic", "bic", "icl"),
                        FitConfig(K=1, seed=9, init="kmeans"))
        for method in ("aic", "bic", "icl"):
            scores = reports[method].per_level
            assert min(scores, key=lambda k: (scores[k], k)) == 2

    def test_failure_names_candidate_size(self):
        from sgmoe.errors import NumericError
        data = toy_data(n=3)
        with pytest.raises(NumericError, match="candidate size 4"):
            sweep(data, 4, ("bic",), FitConfig(K=1, seed=0, init="kmeans"))

    def test_unknown_method_rejected(self):
        data = toy_data()
        with pytest.raises(InputError):
            criterion_scores([], data, "gic")
        with pytest.raises(InputError):
            sweep(data, 2, ("gic",), FitConfig(K=1, seed=0))


class TestSelectionReport:
    def test_round_trip(self):
        rep = SelectionReport(method="bic", per_level={1: 3.0, 2: 1.5},
                              chosen=2)
        assert SelectionReport.from_dict(rep.to_dict()).to_dict() == rep.to_dict()

    def test_chosen_must_be_scored(self):
        with pytest.raises(InputError):
            SelectionReport(method="aic", per_level={1: 0.0}, chosen=2)


def test_readme_library_example():
    # one draw at N = 2e4, K = 4 (116 EM iterations): the README's example
    # runs as printed, which is no evidence that the DSC recovers k0
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme,
                      re.M | re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["report"].chosen == 2


def test_readme_command_line_block(tmp_path, monkeypatch):
    # every line of the README's Command line block, as printed, in one
    # directory; the studies are left out (full-size grids)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme,
                      re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        if not line or line.startswith("#"):
            continue
        argv = shlex.split(line)
        if argv[:2] == ["python", "-c"]:
            exec(argv[2], {})
        elif argv[1] not in ("rate-study", "select-study"):
            assert argv[0] == "sgmoe"
            assert run_cli(argv[1:]) == 0, line
            ran.append(argv[1])
    assert ran == ["simulate", "fit", "dendrogram", "select", "metrics"]
