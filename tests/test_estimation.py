"""EM fitting, the gating Newton step, and initialization schemes."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmoe import estimation, model
from sgmoe.datagen import GenConfig, sample
from sgmoe.errors import InputError
from sgmoe.estimation import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    RIDGE,
    SIGMA_FLOOR,
    FitConfig,
    FitResult,
    em_fit,
    gating_newton_step,
    init_kmeans,
    init_perturbed,
    init_random,
    make_init,
)
from sgmoe.datagen import builtin_truths
from sgmoe.model import (
    Dataset,
    MixingMeasure,
    avg_log_likelihood,
    normalize_baseline,
)

from helpers import (
    g0_two_expert,
    make_measure,
    naive_gating_newton_step,
    random_dataset,
    reference_em_fit,
    reference_gating_newton_step,
)


def two_dim_truth():
    """A three-expert truth on D = 2 covariates."""
    return make_measure([(-1.0, (3.0, -2.0), (1.0, 4.0), 0.5, 0.5),
                         (0.5, (-1.5, 2.5), (-2.0, 1.0), 2.0, 0.3),
                         (0.0, (0.0, 0.0), (3.0, -3.0), -1.0, 0.4)])


def single_expert_data(rng, n=400, a=1.5, b=-0.7, sigma=0.09):
    xs = rng.uniform(-1, 1, size=(n, 1))
    ys = a * xs[:, 0] + b + rng.normal(0, math.sqrt(sigma), size=n)
    return Dataset(xs=xs, ys=ys)


class TestFitConfig:
    def test_defaults_valid(self):
        cfg = FitConfig()
        assert cfg.tol == 1e-6 and cfg.max_iter == 2000

    def test_fields(self):
        # the Newton cap and tolerance, the ridge and the variance floor
        # are module constants, not settings
        assert [f.name for f in dataclasses.fields(FitConfig)] == [
            "tol", "max_iter", "init", "init_scale", "init_gate_scale", "seed"]
        assert (NEWTON_MAX_ITER, NEWTON_TOL, RIDGE, SIGMA_FLOOR) == \
            (25, 1e-8, 1e-8, 1e-8)

    @pytest.mark.parametrize("bad", [
        dict(max_iter=-2), dict(tol=0.0), dict(max_iter=-1), dict(tol=-1.0),
        dict(init="fancy"), dict(init="Kmeans"), dict(init_scale=-0.5),
        dict(init_gate_scale=-0.1),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(InputError):
            FitConfig(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tol", "init_scale",
                                      "init_gate_scale"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(InputError, match=f"{name} must be finite"):
            FitConfig(**{name: value})

    def test_negative_init_scale_rejected(self):
        with pytest.raises(InputError, match="init_scale"):
            FitConfig(init_scale=-0.5)

    @pytest.mark.parametrize("value", [50.0, np.float64(50.0), True, "50"])
    def test_max_iter_must_be_an_integer(self, value):
        # a float or bool count would fail deep inside em_fit, or run as 1
        with pytest.raises(InputError, match="max_iter must be an integer"):
            FitConfig(max_iter=value)
        cfg = FitConfig(max_iter=np.int64(50))
        assert type(cfg.max_iter) is int and cfg.max_iter == 50

    def test_zero_iterations_allowed(self):
        # max_iter=0 means score the starting model without updating it
        assert FitConfig(max_iter=0).max_iter == 0


class TestGatingNewton:
    def test_stationary_at_optimum(self):
        # all mass on expert 0 and gates already strongly favoring it
        n = 60
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, size=(n, 1))
        resp = np.zeros((2, n))
        resp[0] = 1.0
        gates = np.array([[0.0, 50.0], [0.0, 0.0]])   # (omega1, omega0) rows
        new_gates, _ = gating_newton_step(gates, resp, xs)
        assert float(np.max(np.abs(new_gates - gates))) < 1e-8

    def test_constant_covariate_closed_form(self):
        # x == 0 makes the gate a plain logit on mean responsibilities
        n = 200
        rng = np.random.default_rng(7)
        xs = np.zeros((n, 1))
        r1 = rng.uniform(0.1, 0.9, size=n)
        resp = np.stack([r1, 1 - r1])
        gates = np.zeros((2, 2))
        for _ in range(60):
            gates, _ = gating_newton_step(gates, resp, xs)
        want = math.log(float(np.mean(r1)) / float(np.mean(1 - r1)))
        got = gates[0, 1] - gates[1, 1]
        assert got == pytest.approx(want, abs=1e-8)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(11)
        n, k, d = 50, 3, 1
        xs = rng.uniform(-1, 1, size=(n, d))
        raw = rng.uniform(0.05, 1.0, size=(n, k))
        resp = raw / raw.sum(axis=1, keepdims=True)

        gates = np.zeros((k, d + 1))
        for _ in range(200):
            gates, obj = gating_newton_step(gates, resp.T, xs)

        # slow independent oracle: projected gradient ascent with baseline
        # row pinned to zero (same gauge section up to translation)
        z = np.hstack([xs, np.ones((n, 1))])
        g = np.zeros((k, d + 1))
        lr = 0.5 / n
        for _ in range(200000):
            logits = z @ g.T
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            grad = (resp - p).T @ z
            grad[-1] = 0.0   # pin the last row: fixes the translation gauge
            g += lr * grad
            if float(np.max(np.abs(grad[:-1]))) < 1e-10:
                break

        def pin(gm):
            return gm - gm[-1]

        np.testing.assert_allclose(pin(gates), pin(g), atol=1e-5)

    def test_objective_never_decreases(self):
        rng = np.random.default_rng(13)
        n, k = 80, 3
        xs = rng.uniform(-2, 2, size=(n, 2))
        raw = rng.uniform(0.01, 1.0, size=(n, k))
        resp = raw / raw.sum(axis=1, keepdims=True)
        gates = rng.normal(size=(k, 3))
        prev = None
        for _ in range(30):
            gates, obj = gating_newton_step(gates, resp.T, xs)
            if prev is not None:
                assert obj >= prev - 1e-12
            prev = obj

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5),
           d=st.integers(1, 3))
    def test_matches_einsum_oracle(self, seed, k, d):
        rng = np.random.default_rng(seed)
        n = 40
        xs = rng.uniform(-2, 2, size=(n, d))
        raw = rng.uniform(0.01, 1.0, size=(n, k))
        resp = raw / raw.sum(axis=1, keepdims=True)
        gates = rng.normal(size=(k, d + 1))
        got, got_obj = gating_newton_step(gates, resp.T, xs)
        want, want_obj = naive_gating_newton_step(gates, resp, xs)

        # only the ridge fixes the translation direction, so rounding there
        # grows by 1/ridge; compare in the pinned gauge, as the model does
        def pin(g):
            return g - g[-1]

        err = float(np.linalg.norm(pin(got) - pin(want)))
        assert err <= 1e-9 * max(1.0, float(np.linalg.norm(pin(want))))
        assert got_obj == pytest.approx(want_obj, rel=1e-9, abs=1e-9)

    def test_responsibility_layout_does_not_matter(self):
        # em_fit passes its C-ordered (K, N) responsibilities; the same
        # values in Fortran order give the same bits
        rng = np.random.default_rng(41)
        n, k, d = 300, 4, 2
        xs = rng.uniform(-2, 2, size=(n, d))
        raw = rng.uniform(0.01, 1.0, size=(k, n))
        resp = raw / raw.sum(axis=0)
        resp_f = np.asfortranarray(resp)
        assert resp.flags.c_contiguous and not resp_f.flags.c_contiguous
        gates = rng.normal(scale=2.0, size=(k, d + 1))
        got, got_obj = gating_newton_step(gates, resp_f, xs)
        want, want_obj = gating_newton_step(gates, resp, xs)
        assert np.array_equal(got, want)
        assert got_obj == want_obj


class TestEmFit:
    def test_estep_makes_underflowed_rows_uniform(self, monkeypatch):
        # rows whose log-joint is -inf for every expert get uniform
        # responsibilities, as in responsibility_matrix
        rng = np.random.default_rng(19)
        data = single_expert_data(rng, n=50)
        real_log_joint = estimation.log_joint
        real_step = estimation.gating_newton_step
        seen = []

        def dead_rows(*args):
            lj = real_log_joint(*args)
            lj[:, :3] = -np.inf
            return lj

        def spy(gates, resp, xs, **kwargs):
            seen.append(resp.copy())
            return real_step(gates, resp, xs, **kwargs)

        monkeypatch.setattr(estimation, "log_joint", dead_rows)
        monkeypatch.setattr(estimation, "gating_newton_step", spy)
        em_fit(data, FitConfig(max_iter=1), init_random(data, 3, 0))
        resp = seen[0]
        assert np.all(resp[:, :3] == 1.0 / 3.0)
        assert np.all(np.isfinite(resp))
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=1e-12)

    def test_single_expert_recovers_wls(self):
        rng = np.random.default_rng(17)
        data = single_expert_data(rng, n=600)
        cfg = FitConfig(seed=0)
        res = em_fit(data, cfg, make_init(data, 1, cfg))
        # closed-form least squares on the full data
        z = np.hstack([data.xs, np.ones((data.n, 1))])
        beta = np.linalg.solve(z.T @ z, z.T @ data.ys)
        resid = data.ys - z @ beta
        at = res.model.atoms[0]
        assert at.a[0] == pytest.approx(beta[0], abs=1e-6)
        assert at.b == pytest.approx(beta[1], abs=1e-6)
        assert at.sigma == pytest.approx(float(np.mean(resid ** 2)), abs=1e-6)
        assert at.omega0 == 0.0 and at.omega1[0] == 0.0

    def test_fixed_point_converges_fast(self):
        rng = np.random.default_rng(19)
        data = single_expert_data(rng)
        cfg = FitConfig(seed=1)
        first = em_fit(data, cfg, make_init(data, 1, cfg))
        again = em_fit(data, cfg, first.model)
        assert again.iterations <= 2
        assert again.loglik_trace[-1] == pytest.approx(
            first.loglik_trace[-1], abs=1e-6)

    def test_ascent_and_sigma_floor(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            k = int(rng.integers(1, 4))
            data = random_dataset(rng, n=int(rng.integers(50, 300)), dim=1)
            cfg = FitConfig(seed=trial, max_iter=200)
            res = em_fit(data, cfg, make_init(data, k, cfg))
            tr = np.array(res.loglik_trace)
            assert np.all(np.diff(tr) >= -1e-8)
            assert all(at.sigma >= SIGMA_FLOOR for at in res.model.atoms)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_ascent_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 500))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        data = random_dataset(rng, n=n, dim=d)
        cfg = FitConfig(seed=seed, max_iter=60, init="random")
        res = em_fit(data, cfg, make_init(data, k, cfg))
        tr = np.array(res.loglik_trace)
        assert np.all(np.diff(tr) >= -1e-8)

    def test_output_is_baseline_normalized(self):
        rng = np.random.default_rng(29)
        data = random_dataset(rng, n=120, dim=2)
        cfg = FitConfig(seed=2, max_iter=50)
        res = em_fit(data, cfg, make_init(data, 3, cfg))
        last = res.model.atoms[-1]
        assert last.omega0 == 0.0
        np.testing.assert_array_equal(last.omega1, np.zeros(2))

    def test_recovers_two_expert_truth(self):
        g0 = g0_two_expert()
        data = sample(g0, GenConfig(n=20000, seed=42))
        cfg = FitConfig(init="perturbed_truth", init_scale=0.5, seed=3)
        res = em_fit(data, cfg, make_init(data, 2, cfg, reference=g0))
        assert res.converged
        fit_ll = avg_log_likelihood(res.model, data)
        true_ll = avg_log_likelihood(g0, data)
        assert fit_ll >= true_ll - 0.01
        bs = sorted(at.b for at in res.model.atoms)
        assert bs[0] == pytest.approx(-5.0, abs=0.5)
        assert bs[1] == pytest.approx(15.0, abs=1.5)

    @pytest.mark.parametrize("start,seed", [
        ("kmeans", 0), ("kmeans", 1), ("kmeans", 2),
        ("perturbed", 0), ("perturbed", 1), ("perturbed", 2)])
    def test_fit_does_not_depend_on_atom_order(self, start, seed):
        # permuting the start's atoms permutes the fit and nothing else:
        # the same iterations, the same trace, the same model once the
        # permutation is undone and the gauge pinned
        g0 = builtin_truths()["g0_3"]
        data = sample(g0, GenConfig(n=500, seed=7))
        cfg = FitConfig(seed=seed)
        init = init_kmeans(data, 4, seed) if start == "kmeans" else \
            init_perturbed(g0, 4, 0.5, seed)
        base = em_fit(data, cfg, init)

        def params(m):
            return np.concatenate([m.gates().ravel(), m.betas().ravel(),
                                   m.sigmas()])

        want = params(base.model)
        # the reversal, a rotation and two swaps, each moving the last atom
        for perm in ((3, 2, 1, 0), (1, 2, 3, 0), (3, 1, 2, 0), (0, 1, 3, 2)):
            got = em_fit(data, cfg, MixingMeasure(
                atoms=tuple(init.atoms[i] for i in perm), dim=init.dim))
            assert got.iterations == base.iterations
            np.testing.assert_allclose(got.loglik_trace, base.loglik_trace,
                                       rtol=0, atol=1e-8)
            undone = normalize_baseline(MixingMeasure(
                atoms=tuple(got.model.atoms[i] for i in np.argsort(perm)),
                dim=init.dim))
            assert np.all(np.abs(params(undone) - want)
                          <= 1e-6 * np.maximum(1.0, np.abs(want)))

    def test_init_shape_mismatch(self):
        rng = np.random.default_rng(31)
        data = random_dataset(rng, n=50, dim=1)
        cfg = FitConfig(seed=0)
        with pytest.raises(InputError, match="init dim 2 != data dim 1"):
            em_fit(data, cfg, init_random(random_dataset(rng, n=50, dim=2),
                                          3, seed=0))

    def test_result_round_trip(self):
        rng = np.random.default_rng(37)
        data = random_dataset(rng, n=60, dim=1)
        cfg = FitConfig(seed=4, max_iter=30)
        res = em_fit(data, cfg, make_init(data, 2, cfg))
        d = res.to_dict()
        back = FitResult.from_dict(d)
        assert back.to_dict() == d

    def test_trace_is_a_read_only_float_array(self):
        rng = np.random.default_rng(37)
        data = random_dataset(rng, n=60, dim=1)
        res = em_fit(data, FitConfig(max_iter=5),
                     init_random(data, 2, seed=0))
        trace = res.loglik_trace
        assert trace.dtype == np.float64
        assert trace.shape == (res.iterations + 1,)
        with pytest.raises(ValueError):
            trace[0] = 0.0
        assert all(type(v) is float for v in res.to_dict()["loglik_trace"])
        d = res.to_dict()
        d["loglik_trace"] = ["x"]
        with pytest.raises(InputError, match="malformed"):
            FitResult.from_dict(d)


class TestInitKmeans:
    def test_single_cluster_is_global_ls(self):
        rng = np.random.default_rng(41)
        data = single_expert_data(rng, n=100)
        g = init_kmeans(data, 1, seed=0)
        z = np.hstack([data.xs, np.ones((data.n, 1))])
        beta = np.linalg.solve(z.T @ z, z.T @ data.ys)
        assert g.atoms[0].a[0] == pytest.approx(beta[0], rel=1e-10)
        assert g.atoms[0].b == pytest.approx(beta[1], rel=1e-10)
        assert g.atoms[0].omega0 == 0.0

    def test_two_separated_clusters(self):
        # 20 points, two tight blobs; compare against exhaustive 2-means
        rng = np.random.default_rng(43)
        pts_a = np.stack([rng.uniform(-1, -0.8, 10), rng.normal(5, 0.05, 10)],
                         axis=1)
        pts_b = np.stack([rng.uniform(0.8, 1.0, 10), rng.normal(-5, 0.05, 10)],
                         axis=1)
        pts = np.vstack([pts_a, pts_b])
        data = Dataset(xs=pts[:, :1], ys=pts[:, 1])
        g = init_kmeans(data, 2, seed=7)

        # every split into two non-empty groups, as bit masks 1..2^20-2;
        # a group's squared deviations are sum|p|^2 - |sum p|^2 / count
        points = np.hstack([data.xs, data.ys[:, None]])
        total = float(np.sum(points ** 2))
        best_cost, best_id = math.inf, None
        for lo in range(1, 2 ** 20 - 1, 2 ** 16):
            ids = np.arange(lo, min(lo + 2 ** 16, 2 ** 20 - 1))
            bits = ((ids[:, None] >> np.arange(20)) & 1).astype(float)
            sums = bits @ points
            counts = bits.sum(axis=1)
            rest = points.sum(axis=0) - sums
            cost = (total - np.sum(sums ** 2, axis=1) / counts
                    - np.sum(rest ** 2, axis=1) / (20 - counts))
            i = int(np.argmin(cost))
            if cost[i] < best_cost:
                best_cost, best_id = float(cost[i]), int(ids[i])
        best_split = ((best_id >> np.arange(20)) & 1).astype(bool)
        centers_opt = sorted([float(points[best_split].mean(axis=0)[1]),
                              float(points[~best_split].mean(axis=0)[1])])
        got = sorted(at.b for at in g.atoms)
        # cluster intercepts should land near the optimal cluster y-centers
        assert got[0] == pytest.approx(centers_opt[0], abs=0.5)
        assert got[1] == pytest.approx(centers_opt[1], abs=0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        data = random_dataset(rng, n=200, dim=2)
        a = init_kmeans(data, 4, seed=123)
        b = init_kmeans(data, 4, seed=123)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("block", [16, 64])
    def test_labels_do_not_depend_on_row_block(self, monkeypatch, block):
        g0 = builtin_truths()["g0_3"]
        data = sample(g0, GenConfig(n=500, seed=3, contamination_eps=0.05))
        # four distinct points and five clusters: one cluster empties and
        # is re-seeded at the farthest point, first seen at row 180
        points = np.repeat([2.0, 0.7, 0.3, -0.8], [40, 76, 64, 52])[:, None]

        def run():
            return (init_kmeans(data, 3, seed=2).to_dict(),
                    estimation._kmeans_pp(points, 5,
                                          np.random.default_rng(0)))

        want_init, want_labels = run()
        assert np.flatnonzero(want_labels == 4).tolist() == [180]
        monkeypatch.setattr(model, "ROW_BLOCK", block)
        got_init, got_labels = run()
        assert got_init == want_init
        np.testing.assert_array_equal(got_labels, want_labels)

    def test_too_few_points(self):
        rng = np.random.default_rng(53)
        data = random_dataset(rng, n=3, dim=1)
        with pytest.raises(InputError):
            init_kmeans(data, 5, seed=0)

    def test_weights_are_proportions(self):
        rng = np.random.default_rng(59)
        data = random_dataset(rng, n=100, dim=1)
        g = init_kmeans(data, 3, seed=1)
        assert float(np.sum(g.weights())) == pytest.approx(1.0, rel=1e-12)


class TestInitPerturbed:
    def test_scale_zero_copies_truth(self):
        g0 = g0_two_expert()
        g = init_perturbed(g0, 4, scale=0.0, seed=9)
        assert g.n_atoms == 4
        for j, at in enumerate(g.atoms):
            src = g0.atoms[j % 2]
            assert at.omega0 == src.omega0
            np.testing.assert_array_equal(at.omega1, src.omega1)
            np.testing.assert_array_equal(at.a, src.a)
            assert at.b == src.b and at.sigma == src.sigma

    def test_round_robin_assignment(self):
        g0 = g0_two_expert()
        g = init_perturbed(g0, 5, scale=0.0, seed=0)
        assert [at.b for at in g.atoms] == [15.0, -5.0, 15.0, -5.0, 15.0]

    def test_k_below_reference_rejected(self):
        with pytest.raises(InputError):
            init_perturbed(g0_two_expert(), 1, scale=0.1, seed=0)

    def test_deterministic_and_sigma_positive(self):
        g0 = g0_two_expert()
        a = init_perturbed(g0, 4, scale=2.0, seed=77)
        b = init_perturbed(g0, 4, scale=2.0, seed=77)
        assert a.to_dict() == b.to_dict()
        assert all(at.sigma > 0 for at in a.atoms)

    def test_gate_scale_zero_keeps_gates_exact(self):
        g0 = g0_two_expert()
        g = init_perturbed(g0, 4, scale=0.7, seed=5, gate_scale=0.0)
        for j, at in enumerate(g.atoms):
            src = g0.atoms[j % 2]
            assert at.omega0 == src.omega0
            np.testing.assert_array_equal(at.omega1, src.omega1)
            # expert blocks still move
            assert at.b != src.b

    def test_gate_scale_does_not_shift_expert_draws(self):
        # the per-atom draw order is fixed, so the expert-block noise is
        # identical whatever the gate scale
        g0 = g0_two_expert()
        a = init_perturbed(g0, 4, scale=0.3, seed=11, gate_scale=0.0)
        b = init_perturbed(g0, 4, scale=0.3, seed=11, gate_scale=2.0)
        for x, y in zip(a.atoms, b.atoms):
            np.testing.assert_array_equal(x.a, y.a)
            assert x.b == y.b and x.sigma == y.sigma

    def test_negative_gate_scale_rejected(self):
        with pytest.raises(InputError):
            init_perturbed(g0_two_expert(), 4, scale=0.1, seed=0,
                           gate_scale=-0.5)


class TestMakeInit:
    def test_dispatch(self):
        rng = np.random.default_rng(61)
        data = random_dataset(rng, n=50, dim=1)
        for k, init in ((2, "kmeans"), (3, "random")):
            cfg = FitConfig(init=init, seed=0)
            assert make_init(data, k, cfg).n_atoms == k
        g = make_init(data, 3, FitConfig(init="perturbed_truth", seed=0),
                      reference=g0_two_expert())
        assert g.n_atoms == 3

    def test_perturbed_requires_reference(self):
        rng = np.random.default_rng(67)
        data = random_dataset(rng, n=50, dim=1)
        with pytest.raises(InputError):
            make_init(data, 2, FitConfig(init="perturbed_truth", seed=0))


class TestRowBlocks:
    """Passes over the rows run block by block: one block is the unblocked
    arithmetic bit for bit, several blocks agree with it to rounding."""

    B = 64

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("start", ["near", "far"])
    def test_gating_step_matches_unblocked(self, monkeypatch, n, start):
        monkeypatch.setattr(model, "ROW_BLOCK", self.B)
        rng = np.random.default_rng(n)
        k, d = 3, 2
        xs = rng.uniform(-2, 2, size=(n, d))
        raw = rng.uniform(0.01, 1.0, size=(n, k))
        resp = np.ascontiguousarray((raw / raw.sum(axis=1, keepdims=True)).T)
        # far from the optimum the full step overshoots and is halved
        gates = rng.normal(scale=3.0 if start == "far" else 0.5,
                           size=(k, d + 1))
        want = reference_gating_newton_step(gates, resp, xs)
        if start == "far":
            assert want["halvings"] > 0

        solved = []
        real_solve = np.linalg.solve

        def spy(a, b):
            solved.append((a.copy(), b.copy()))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        got, got_obj = gating_newton_step(gates, resp, xs)
        monkeypatch.setattr(np.linalg, "solve", real_solve)

        def close(a, b, size=None):
            size = np.linalg.norm(b) if size is None else size
            return np.linalg.norm(a - b) <= 1e-12 * size

        (hess, grad), = solved
        assert close(hess, want["hess"])
        assert close(grad, want["grad"].reshape(-1))
        step = real_solve(hess, grad).reshape(want["step"].shape)

        # the translation direction is fixed by the ridge alone, so its
        # rounding grows by 1/ridge: compare in the pinned gauge
        def pin(g):
            return g - g[-1]

        assert close(pin(step), pin(want["step"]))
        # the same number of halvings: the accepted move is the same
        # fraction of the step, and the gates agree to the rounding of
        # gates + scale * step
        scale = 0.5 ** want["halvings"]
        moved = pin(got) - pin(gates)
        ref = pin(want["step"])
        assert float(np.vdot(moved, ref) / np.vdot(ref, ref)) == \
            pytest.approx(scale, rel=1e-9)
        assert close(pin(got), pin(want["gates"]),
                     size=np.linalg.norm(pin(gates))
                     + scale * np.linalg.norm(pin(want["step"])))
        assert got_obj == pytest.approx(want["obj"], rel=1e-12)
        if n <= self.B:
            assert np.array_equal(got, want["gates"])
            assert got_obj == want["obj"]

    @staticmethod
    def assert_same_fit(got, want):
        assert np.array_equal(got.loglik_trace, want.loglik_trace)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.model.to_dict() == want.model.to_dict()

    @pytest.mark.parametrize("n", [100, 1000, 3162])
    def test_em_fit_one_block_is_bit_identical(self, n):
        # at D = 2 the kernels read x's coefficients through (K, 2) views
        # of the (K, 3) gating and expert rows
        for truth in (builtin_truths()["g0_2"], two_dim_truth()):
            data = sample(truth, GenConfig(n=n, seed=n))
            for k, cfg in ((4, FitConfig(seed=1, max_iter=300)),
                           (3, FitConfig(seed=2, max_iter=300))):
                init = init_perturbed(truth, k, 0.5, cfg.seed)
                got = em_fit(data, cfg, init)
                want = reference_em_fit(data, cfg, init)
                self.assert_same_fit(got, want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_em_fit_over_blocks_is_the_blocked_reference(self, monkeypatch,
                                                         d):
        # every pass adds its blocks' sums in the reference's order, and
        # the last block (3 rows) takes views of the same buffers
        monkeypatch.setattr(model, "ROW_BLOCK", self.B)
        truth = builtin_truths()["g0_3"] if d == 1 else two_dim_truth()
        data = sample(truth, GenConfig(n=2 * self.B + 3, seed=5))
        cfg = FitConfig(seed=0, tol=1e-12, max_iter=50)
        init = init_perturbed(truth, 3, 0.3, 0)
        got = em_fit(data, cfg, init)
        assert got.iterations > 10
        self.assert_same_fit(got, reference_em_fit(data, cfg, init, self.B))

    def test_em_fit_dead_rows_in_later_blocks_match_reference(self,
                                                              monkeypatch):
        monkeypatch.setattr(model, "ROW_BLOCK", self.B)
        g0 = builtin_truths()["g0_3"]
        n = 2 * self.B + 3
        data = sample(g0, GenConfig(n=n, seed=7))
        dead = np.zeros(n, dtype=bool)
        dead[[self.B + 5, 2 * self.B + 1]] = True   # second and last block
        real_log_joint = estimation.log_joint

        def dead_rows(*args):
            lj = real_log_joint(*args)
            lj[:, np.isin(args[4], data.ys[dead])] = -np.inf
            return lj

        monkeypatch.setattr(estimation, "log_joint", dead_rows)
        cfg = FitConfig(seed=0, max_iter=30)
        init = init_perturbed(g0, 3, 0.3, 0)
        self.assert_same_fit(em_fit(data, cfg, init),
                             reference_em_fit(data, cfg, init, self.B, dead))

    def test_fits_of_other_sizes_in_one_process(self, monkeypatch):
        # K = 4, then 2, then 4 again: a buffer kept from an earlier fit,
        # or a stale view of one, would move the later fits
        monkeypatch.setattr(model, "ROW_BLOCK", self.B)
        g0 = builtin_truths()["g0_2"]
        data = sample(g0, GenConfig(n=2 * self.B + 3, seed=9))
        for k in (4, 2, 4):
            cfg = FitConfig(seed=k, max_iter=40)
            init = init_perturbed(g0, k, 0.5, 1)
            self.assert_same_fit(em_fit(data, cfg, init),
                                 reference_em_fit(data, cfg, init, self.B))

    def test_em_fit_over_blocks_follows_unblocked(self, monkeypatch):
        # g0_3's gates overlap; on near-separable data (g0_2 at this N)
        # the gating objective is flat and rounding moves the gates
        g0 = builtin_truths()["g0_3"]
        data = sample(g0, GenConfig(n=2 * self.B + 3, seed=5))
        cfg = FitConfig(seed=0, max_iter=50)
        init = init_perturbed(g0, 3, 0.3, 0)
        want = reference_em_fit(data, cfg, init)
        monkeypatch.setattr(model, "ROW_BLOCK", self.B)
        got = em_fit(data, cfg, init)
        assert got.iterations == want.iterations
        np.testing.assert_allclose(got.loglik_trace, want.loglik_trace,
                                   rtol=1e-12)

    def test_estep_dead_rows_in_later_blocks(self, monkeypatch):
        # underflowed rows in any block get uniform responsibilities
        monkeypatch.setattr(model, "ROW_BLOCK", 16)
        rng = np.random.default_rng(3)
        data = single_expert_data(rng, n=50)
        dead = [5, 17, 40]
        real_log_joint = estimation.log_joint
        real_step = estimation.gating_newton_step
        block_sizes, seen = [], []

        def dead_rows(*args):
            lj = real_log_joint(*args)
            xs = args[3]
            block_sizes.append(len(xs))
            lj[:, np.isin(xs[:, 0], data.xs[dead, 0])] = -np.inf
            return lj

        def spy(gates, resp, xs, **kwargs):
            seen.append(resp.copy())
            return real_step(gates, resp, xs, **kwargs)

        monkeypatch.setattr(estimation, "log_joint", dead_rows)
        monkeypatch.setattr(estimation, "gating_newton_step", spy)
        em_fit(data, FitConfig(max_iter=1), init_random(data, 3, 0))
        assert block_sizes[:4] == [16, 16, 16, 2]
        resp = seen[0]
        assert np.all(resp[:, dead] == 1.0 / 3.0)
        assert np.all(np.isfinite(resp))
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=1e-12)


class TestWorkingMemory:
    """A pass over many row blocks holds block-sized temporaries, beside
    the data and the N x K responsibilities."""

    def test_em_fit_peak_above_responsibilities(self, monkeypatch):
        monkeypatch.setattr(model, "ROW_BLOCK", 256)
        g0 = builtin_truths()["g0_3"]
        n, k = 40_000, 3
        data = sample(g0, GenConfig(n=n, seed=1))
        cfg = FitConfig(seed=0, max_iter=2)
        init = init_perturbed(g0, k, 0.3, 0)
        tracemalloc.start()
        try:
            fit = em_fit(data, cfg, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.iterations == 2
        # float64: the responsibilities take n * k * 8 bytes; everything
        # else must stay below one N-vector
        assert peak - n * k * 8 < n * 8

    def test_em_fit_peak_at_default_row_block(self):
        # the cli_n1e5 fit: beside its 3.2 MB of responsibilities a fit
        # holds one workspace of 17 blocks of doubles at K = 4, D = 1
        # (2.2 MB at ROW_BLOCK = 16384); the fresh temporaries per block
        # that it replaced peaked at 3.03 MB above the responsibilities
        g0 = builtin_truths()["g0_2"]
        n, k = 100_000, 4
        data = sample(g0, GenConfig(n=n, seed=3))
        cfg = FitConfig(max_iter=2, init="perturbed_truth",
                        init_scale=0.0)
        init = init_perturbed(g0, k, 0.0, 0)
        tracemalloc.start()
        try:
            fit = em_fit(data, cfg, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.iterations == 2
        assert peak - n * k * 8 <= 3_030_000
