"""Study harness: grids, slopes, determinism, resumability, skip accounting."""

from __future__ import annotations

import csv
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from sgmoe.datagen import builtin_truths
from sgmoe.errors import InputError, NumericError
from sgmoe.estimation import FitConfig, FitResult
from sgmoe.experiments import (
    MAX_GATE_SPREAD,
    PRESET_NAMES,
    RateStudyConfig,
    SelectionStudyConfig,
    gate_spread,
    log_size_grid,
    preset,
    resolve_workers,
    run_rate_study,
    run_selection_study,
    slope_fit,
)
from sgmoe.model import ExpertAtom, MixingMeasure, translate


@pytest.fixture(autouse=True)
def _no_thread_override(monkeypatch):
    monkeypatch.delenv("SGMOE_THREADS", raising=False)


def tiny_rate_config(**kw):
    base = dict(truth="g0_2", setting="exact", n_min=100, n_max=400,
                n_count=3, reps=2, loss="vde", seed=11, workers=1,
                em=FitConfig(K=2, tol=1e-5, max_iter=300))
    base.update(kw)
    return RateStudyConfig(**base)


def zero_update_config(**kw):
    # scale-0 perturbation copies the truth; max_iter 0 returns it untouched
    base = dict(truth="g0_2", setting="exact", n_min=100, n_max=400,
                n_count=3, reps=2, loss="vde", seed=3, workers=1,
                em=FitConfig(K=2, max_iter=0, init_scale=0.0))
    base.update(kw)
    return RateStudyConfig(**base)


@lru_cache(maxsize=None)
def cached_rate_result(cfg):
    return run_rate_study(cfg)


class TestGridAndSlope:
    def test_grid_endpoints_and_length(self):
        grid = log_size_grid(100, 10_000, 12)
        assert len(grid) == 12
        assert grid[0] == 100 and grid[-1] == 10_000
        assert all(b >= a for a, b in zip(grid, grid[1:]))

    def test_grid_single_point(self):
        assert log_size_grid(500, 500, 1) == (500,)

    def test_grid_rejects_bad_ranges(self):
        with pytest.raises(InputError):
            log_size_grid(100, 10, 3)
        with pytest.raises(InputError):
            log_size_grid(0, 10, 3)
        with pytest.raises(InputError):
            log_size_grid(10, 100, 0)

    def test_slope_exact_half_power(self):
        pts = [(n, 3.7 * n ** -0.5) for n in (10, 100, 1000, 10_000)]
        slope, intercept = slope_fit(pts)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.7), abs=1e-10)

    def test_slope_constant(self):
        slope, _ = slope_fit([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_slope_quarter_power(self):
        pts = [(n, n ** -0.25) for n in (10, 40, 160, 640)]
        slope, _ = slope_fit(pts)
        assert slope == pytest.approx(-0.25, abs=1e-12)

    def test_slope_rejects_short_or_nonpositive(self):
        with pytest.raises(InputError):
            slope_fit([(10, 1.0), (20, 0.5)])
        with pytest.raises(InputError):
            slope_fit([(10, 1.0), (20, 0.5), (30, 0.0)])


class TestWorkerResolution:
    def test_config_when_no_env(self):
        assert resolve_workers(2) == 2

    def test_default_at_least_one(self):
        assert resolve_workers() >= 1


class TestRateConfigValidation:
    def test_unknown_names_rejected(self):
        with pytest.raises(InputError):
            tiny_rate_config(truth="g9")
        with pytest.raises(InputError):
            tiny_rate_config(setting="underfit")
        with pytest.raises(InputError):
            tiny_rate_config(loss="hellinger")

    def test_sample_size_floor(self):
        with pytest.raises(InputError):
            tiny_rate_config(setting="overfit", fit_k=4, n_min=30)

    def test_fit_k_below_truth_rejected(self):
        with pytest.raises(InputError):
            tiny_rate_config(setting="merged", fit_k=1)

    def test_reps_floor(self):
        with pytest.raises(InputError):
            tiny_rate_config(reps=0)


class TestRateStudy:
    def test_zero_update_study_sits_at_truth(self):
        res = run_rate_study(zero_update_config())
        assert res.skipped == 0
        for row in res.rows:
            assert row.reps_used == 2
            assert row.mean_loss < 1e-6

    def test_zero_update_merged_also_exact(self):
        res = run_rate_study(zero_update_config(
            setting="merged", fit_k=4,
            em=FitConfig(K=4, max_iter=0, init_scale=0.0)))
        for row in res.rows:
            assert row.mean_loss < 1e-6
        assert len(res.raw_rows) == 3
        for row in res.raw_rows:
            assert row.mean_loss < 1e-6

    def test_deterministic_rerun(self):
        cfg = tiny_rate_config()
        assert repr(run_rate_study(cfg)) == repr(cached_rate_result(cfg))

    def test_losses_shrink_with_n(self):
        res = cached_rate_result(tiny_rate_config())
        assert all(row.mean_loss > 0 for row in res.rows)
        assert math.isfinite(res.slope)
        assert res.rows[-1].mean_loss < res.rows[0].mean_loss

    def test_resume_completes_to_identical_table(self, tmp_path):
        cfg = tiny_rate_config()
        full = tmp_path / "full.csv"
        res_full = run_rate_study(cfg, checkpoint=full)
        assert repr(res_full) == repr(cached_rate_result(cfg))

        with open(full, newline="") as fh:
            lines = fh.read().splitlines()
        part = tmp_path / "part.csv"
        part.write_text("\n".join(lines[:4]) + "\n")
        res_resumed = run_rate_study(cfg, checkpoint=part)
        assert repr(res_resumed) == repr(res_full)
        # and a second resume finds nothing left to do
        assert repr(run_rate_study(cfg, checkpoint=part)) == repr(res_full)

    def test_replication_order_irrelevant(self, tmp_path):
        cfg = tiny_rate_config()
        full = tmp_path / "full.csv"
        res_full = run_rate_study(cfg, checkpoint=full)
        with open(full, newline="") as fh:
            lines = fh.read().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(
            "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n")
        assert repr(run_rate_study(cfg, checkpoint=shuffled)) == repr(res_full)

    def test_truncated_tail_is_recomputed(self, tmp_path):
        cfg = tiny_rate_config()
        full = tmp_path / "full.csv"
        res_full = run_rate_study(cfg, checkpoint=full)
        with open(full, newline="") as fh:
            text = fh.read()
        cut = tmp_path / "cut.csv"
        cut.write_text(text[:text.rfind(",")])  # mid-row power cut
        assert repr(run_rate_study(cfg, checkpoint=cut)) == repr(res_full)
        # the rewritten file must reload cleanly
        assert repr(run_rate_study(cfg, checkpoint=cut)) == repr(res_full)

    def test_checkpoint_from_other_grid_rejected(self, tmp_path):
        cfg = tiny_rate_config()
        ckpt = tmp_path / "c.csv"
        run_rate_study(cfg, checkpoint=ckpt)
        with pytest.raises(InputError):
            run_rate_study(tiny_rate_config(n_min=120, n_max=480),
                           checkpoint=ckpt)

    def test_process_pool_matches_inline(self):
        cfg = zero_update_config(workers=2)
        assert repr(run_rate_study(cfg)) == \
            repr(run_rate_study(zero_update_config(workers=1)))

    def test_finished_checkpoint_is_sorted(self, tmp_path):
        # a resume that appends after out-of-order rows must still leave
        # the same bytes as a fresh inline run
        cfg = zero_update_config()
        fresh = tmp_path / "fresh.csv"
        run_rate_study(cfg, checkpoint=fresh)
        lines = fresh.read_text().splitlines()
        part = tmp_path / "part.csv"
        part.write_text("\n".join([lines[0]] + lines[:2:-1]) + "\n")
        run_rate_study(cfg, checkpoint=part)
        assert part.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("cut", ["mid-number", "empty-last-field"])
    def test_torn_final_line_is_recomputed(self, tmp_path, cut):
        # a final line without its terminator is torn, even when it still
        # has every field: a resume recomputes it and matches a fresh run
        cfg = RateStudyConfig(truth="g0_2", setting="merged", fit_k=3,
                              n_min=400, n_max=800, n_count=2, reps=2,
                              seed=6, workers=1,
                              em=FitConfig(K=3, tol=1e-5, max_iter=200))
        fresh = tmp_path / "fresh.csv"
        res = run_rate_study(cfg, checkpoint=fresh)
        body = fresh.read_bytes().rstrip(b"\r\n")
        assert body.rsplit(b"\n", 1)[1].split(b",")[3] == b"ok"
        part = tmp_path / "part.csv"
        part.write_bytes(body[:-8] if cut == "mid-number"
                         else body[:body.rfind(b",") + 1])
        assert repr(run_rate_study(cfg, checkpoint=part)) == repr(res)
        assert part.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("row", ["-1,100,0,ok,0.5,", "0,100,-1,ok,0.5,"])
    def test_negative_grid_key_rejected(self, tmp_path, row):
        # sizes[-1] is this grid's one size and -1 < reps: only a lower
        # bound on the keys rejects these rows
        ckpt = tmp_path / "c.csv"
        ckpt.write_text("n_index,n,rep,status,loss,raw_loss\n" + row + "\n")
        with pytest.raises(InputError, match="checkpoint does not match "
                           "this configuration's grid"):
            run_rate_study(zero_update_config(n_max=100, n_count=1),
                           checkpoint=ckpt)

    def test_records_are_the_checkpoint_rows(self, tmp_path):
        cfg = tiny_rate_config()
        ckpt = tmp_path / "c.csv"
        res = run_rate_study(cfg, checkpoint=ckpt)
        with open(ckpt, newline="") as fh:
            rows = [tuple(row) for row in csv.reader(fh)]
        assert rows[0] == ("n_index", "n", "rep", "status", "loss",
                           "raw_loss")
        assert res.records == tuple(rows[1:])
        assert cached_rate_result(cfg).records == res.records


class TestSkipAccounting:
    def test_isolated_failures_are_counted(self, monkeypatch):
        import sgmoe.experiments as exp
        real = exp.em_fit

        def flaky(data, cfg, init):
            if data.n == 100 and data.ys[0] == flaky.mark:
                raise NumericError("synthetic failure")
            return real(data, cfg, init)

        cfg = zero_update_config(n_count=3, reps=4)
        probe = run_rate_study(cfg)  # locate one rep's dataset
        flaky.mark = None
        monkeypatch.setattr(exp, "em_fit", flaky)

        from sgmoe.datagen import GenConfig, builtin_truths, derive_seed, sample
        data0 = sample(builtin_truths()["g0_2"],
                       GenConfig(n=100, seed=derive_seed(cfg.seed, 0, 0, 0)))
        flaky.mark = data0.ys[0]
        res = run_rate_study(cfg)
        assert res.skipped == 1  # 1 of 12 is under the 10% abort line
        assert res.rows[0].reps_used == 3
        assert res.rows[1].reps_used == 4
        assert probe.skipped == 0

    def test_excess_failures_abort(self, monkeypatch):
        import sgmoe.experiments as exp

        def always_fails(data, cfg, init):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(exp, "em_fit", always_fails)
        with pytest.raises(NumericError, match="replications failed"):
            run_rate_study(zero_update_config())


class TestSeparationRule:
    # the fit EM returns on a separated N=100, K=3 merged replication:
    # (omega0, omega1, a, b, sigma) per atom; its raw vdfra is 1.2e218
    SEPARATED = MixingMeasure(atoms=tuple(
        ExpertAtom(omega0=w0, omega1=[w1], a=[a], b=b, sigma=sigma)
        for w0, w1, a, b, sigma in (
            (-13.673502512842816, 17.061303670466145, -20.487518585141117,
             15.692009346217104, 0.04429073349644313),
            (502.1229931711757, -1661.74255142862, 18.989196788231695,
             -4.896015817237101, 0.4640394183533884),
            (0.0, 0.0, -20.408250712033112, 15.186336116394907,
             0.24464748599378938))), dim=1)

    def merged_config(self):
        return zero_update_config(
            setting="merged", fit_k=3, n_min=100, n_max=100, n_count=1,
            em=FitConfig(K=3, max_iter=0, init_scale=0.0))

    def test_separated_fit_is_skipped(self, monkeypatch):
        import sgmoe.experiments as exp

        def separated(data, cfg, init):
            return FitResult(model=self.SEPARATED, loglik_trace=(),
                             iterations=163, converged=True)

        monkeypatch.setattr(exp, "em_fit", separated)
        assert exp._rate_replication(self.merged_config(), 0, 100, 1) == \
            ("skip", None, None)
        with pytest.raises(NumericError, match="replications failed"):
            run_rate_study(self.merged_config())

    def test_truth_level_fit_stays_ok(self, monkeypatch):
        import sgmoe.experiments as exp
        truth = builtin_truths()["g0_2"]

        def at_truth(data, cfg, init):
            return FitResult(model=truth, loglik_trace=(), iterations=0,
                             converged=True)

        monkeypatch.setattr(exp, "em_fit", at_truth)
        status, loss, raw = exp._rate_replication(zero_update_config(),
                                                  0, 100, 0)
        assert status == "ok"
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert raw is None

    def test_spread_is_gauge_and_label_invariant(self):
        xs = np.random.default_rng(0).uniform(0.0, 1.0, size=(50, 1))
        truth = builtin_truths()["g0_3"]
        base = gate_spread(truth, xs)
        assert 0.0 < base < MAX_GATE_SPREAD
        moved = translate(truth, 4.5, [-37.0])
        assert gate_spread(moved, xs) == pytest.approx(base, rel=1e-12)
        for perm in itertools.permutations(truth.atoms):
            relabelled = MixingMeasure(atoms=perm, dim=truth.dim)
            assert gate_spread(relabelled, xs) == base
        assert gate_spread(self.SEPARATED, xs) > MAX_GATE_SPREAD


class TestSelectionStudy:
    def small_config(self, **kw):
        base = dict(truth="g0_2", n_min=500, n_max=500, n_count=1, reps=3,
                    kmax=2, seed=21, workers=1,
                    em=FitConfig(K=2, tol=1e-5, max_iter=300))
        base.update(kw)
        return SelectionStudyConfig(**base)

    def test_smoke_rows_cover_grid(self):
        res = run_selection_study(self.small_config())
        assert res.true_k == 2
        assert res.skipped == 0
        assert [(r.n, r.method) for r in res.rows] == \
            [(500, m) for m in ("dsc", "aic", "bic", "icl")]
        for row in res.rows:
            assert row.reps_used == 3
            assert 0.0 <= row.proportion_correct <= 1.0
            assert 1.0 <= row.mean_chosen <= 2.0

    def test_deterministic_rerun(self):
        cfg = self.small_config()
        assert repr(run_selection_study(cfg)) == \
            repr(run_selection_study(cfg))

    def test_dsc_only_config(self):
        res = run_selection_study(self.small_config(methods=("dsc",)))
        assert [r.method for r in res.rows] == ["dsc"]

    def test_resume_matches_fresh(self, tmp_path):
        cfg = self.small_config()
        full = tmp_path / "sel.csv"
        res_full = run_selection_study(cfg, checkpoint=full)
        with open(full, newline="") as fh:
            lines = fh.read().splitlines()
        part = tmp_path / "part.csv"
        part.write_text("\n".join(lines[:3]) + "\n")
        assert repr(run_selection_study(cfg, checkpoint=part)) == \
            repr(res_full)

    def test_finished_checkpoint_is_sorted(self, tmp_path):
        cfg = self.small_config()
        fresh = tmp_path / "fresh.csv"
        run_selection_study(cfg, checkpoint=fresh)
        lines = fresh.read_text().splitlines()
        part = tmp_path / "part.csv"
        part.write_text("\n".join([lines[0]] + lines[:1:-1]) + "\n")
        run_selection_study(cfg, checkpoint=part)
        assert part.read_bytes() == fresh.read_bytes()

    def test_records_are_the_checkpoint_rows(self, tmp_path):
        cfg = self.small_config()
        ckpt = tmp_path / "c.csv"
        res = run_selection_study(cfg, checkpoint=ckpt)
        with open(ckpt, newline="") as fh:
            rows = [tuple(row) for row in csv.reader(fh)]
        assert rows[0] == ("n_index", "n", "rep", "status", "dsc", "aic",
                           "bic", "icl")
        assert res.records == tuple(rows[1:])
        assert run_selection_study(cfg).records == res.records

    def test_validation(self):
        with pytest.raises(InputError):
            self.small_config(methods=("dsc", "dsc"))
        with pytest.raises(InputError):
            self.small_config(methods=("gic",))
        with pytest.raises(InputError):
            self.small_config(kmax=1)
        with pytest.raises(InputError):
            self.small_config(contamination_eps=1.0)
        with pytest.raises(InputError):
            self.small_config(epsilon_n=0.0)
        with pytest.raises(InputError):
            self.small_config(n_min=10, n_max=500)

    def test_cli_and_study_share_one_pipeline(self, monkeypatch, tmp_path):
        # `sgmoe select` and a replication both fit sizes 1..kmax and build
        # one dendrogram of the kmax fit through `experiments`' globals,
        # the names the benchmark's recorder and tracer wrap
        import sgmoe.experiments as exp
        from sgmoe.cli import run_cli

        calls = []

        def record(name, describe=lambda args, out: ""):
            fn = getattr(exp, name)

            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                calls.append(name + describe(args, out))
                return out
            monkeypatch.setattr(exp, name, wrapped)

        record("em_fit", lambda args, fit: f":{fit.model.n_atoms}")
        record("build_path", lambda args, dg: f":{args[0].n_atoms}")
        for name in ("init_perturbed", "init_kmeans", "dsc_select",
                     "criterion_scores"):
            record(name)
        scoring = ["build_path:3", "dsc_select"] + ["criterion_scores"] * 3

        data = tmp_path / "data.csv"
        assert run_cli(["simulate", "--truth", "g0_2", "--n", "300",
                        "--seed", "7", "--out", str(data)]) == 0
        assert run_cli(["select", "--data", str(data), "--kmax", "3",
                        "--method", "all", "--seed", "5",
                        "--out", str(tmp_path / "sel")]) == 0
        assert calls == ["em_fit:1", "em_fit:2", "em_fit:3"] + scoring

        calls.clear()
        res = run_selection_study(self.small_config(n_min=300, n_max=300,
                                                    reps=1, kmax=3))
        assert res.skipped == 0
        assert calls == ["init_kmeans", "em_fit:1",
                         "init_perturbed", "em_fit:2",
                         "init_perturbed", "em_fit:3"] + scoring


class TestPresets:
    def test_all_names_construct(self):
        for name in PRESET_NAMES:
            preset(name)

    def test_rate_grids_match_published_scale(self):
        a, b, c = preset("fig3a"), preset("fig3b"), preset("fig3c")
        assert (a.setting, a.n_count, a.reps, a.n_max) == \
            ("exact", 100, 30, 50_000)
        assert (b.setting, b.fit_k, b.n_count, b.reps, b.n_min, b.n_max) == \
            ("overfit", 4, 165, 40, 338, 100_000)
        assert (c.setting, c.n_count, c.reps, c.n_max) == \
            ("merged", 200, 40, 100_000)

    def test_selection_grids(self):
        clean, dirty = preset("fig4"), preset("fig5")
        assert (clean.n_count, clean.reps, clean.kmax) == (32, 25, 4)
        assert clean.contamination_eps == 0.0
        assert dirty.contamination_eps == 0.05
        assert (dirty.n_min, dirty.n_max) == (1_000, 50_000)

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            preset("fig6")
