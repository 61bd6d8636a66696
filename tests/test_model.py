"""Model core: densities, gates, responsibilities, gauge operations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.special import logsumexp

from sgmoe import model
from sgmoe.errors import InputError
from sgmoe.model import (
    Dataset,
    ExpertAtom,
    MixingMeasure,
    UnderflowWarning,
    avg_log_likelihood,
    conditional_density,
    gating_probs,
    log_density_vector,
    log_joint,
    logsumexp_cols,
    normalize_baseline,
    responsibilities,
    responsibility_matrix,
    softmax_cols,
    translate,
)

from helpers import (
    g0_two_expert,
    make_atom,
    make_measure,
    naive_avg_loglik,
    naive_density,
    naive_gates,
    random_dataset,
    random_measure,
    ref_log_gates,
    ref_log_joint,
    ref_logsumexp_cols,
    ref_softmax_cols,
)


class TestValidation:
    def test_sigma_must_be_positive(self):
        with pytest.raises(InputError):
            make_atom(sigma=0.0)
        with pytest.raises(InputError):
            make_atom(sigma=-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            make_atom(omega0=float("nan"))
        with pytest.raises(InputError):
            make_atom(omega1=(float("inf"),))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            ExpertAtom(omega0=0.0, omega1=np.zeros(2), a=np.zeros(3),
                       b=0.0, sigma=1.0)
        atom1 = make_atom(omega1=(0.0,), a=(0.0,))
        atom2 = make_atom(omega1=(0.0, 0.0), a=(0.0, 0.0))
        with pytest.raises(InputError):
            MixingMeasure(atoms=(atom1, atom2), dim=1)

    def test_empty_measure_rejected(self):
        with pytest.raises(InputError):
            MixingMeasure(atoms=(), dim=1)

    def test_dataset_shape_checks(self):
        with pytest.raises(InputError):
            Dataset(xs=np.zeros((3, 1)), ys=np.zeros(4))
        with pytest.raises(InputError):
            Dataset(xs=np.zeros(3), ys=np.zeros(3))
        with pytest.raises(InputError):
            Dataset(xs=np.array([[np.nan]]), ys=np.array([0.0]))

    def test_dataset_copies_what_it_is_given(self):
        xs, ys = np.zeros((3, 1)), np.ones(3)
        data = Dataset(xs=xs, ys=ys)
        xs[0, 0] = ys[0] = 5.0
        assert data.xs[0, 0] == 0.0 and data.ys[0] == 1.0
        assert xs.flags.writeable and not data.xs.flags.writeable

    def test_covariate_shape_checked(self):
        g = g0_two_expert()
        with pytest.raises(InputError):
            gating_probs(g, np.zeros(2))
        with pytest.raises(InputError):
            conditional_density(g, np.array([np.inf]), 0.0)


class TestGates:
    def test_two_atom_hand_value(self):
        # score gap log(3) at x=0 gives probabilities (0.75, 0.25)
        g = make_measure([
            (math.log(3.0), (0.0,), (0.0,), 0.0, 1.0),
            (0.0, (0.0,), (0.0,), 0.0, 1.0),
        ])
        np.testing.assert_allclose(gating_probs(g, np.zeros(1)),
                                   [0.75, 0.25], rtol=0, atol=1e-15)

    def test_two_expert_truth_at_origin(self):
        p = gating_probs(g0_two_expert(), np.zeros(1))
        e = math.exp(-8.0)
        np.testing.assert_allclose(p, [e / (1 + e), 1 / (1 + e)], rtol=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_measure(rng, k=int(rng.integers(1, 6)),
                               dim=int(rng.integers(1, 4)), scale=2.0)
            x = rng.normal(size=g.dim)
            np.testing.assert_allclose(gating_probs(g, x), naive_gates(g, x),
                                       rtol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simplex_membership(self, seed):
        rng = np.random.default_rng(seed)
        g = random_measure(rng, k=int(rng.integers(1, 7)),
                           dim=int(rng.integers(1, 4)), scale=5.0)
        p = gating_probs(g, rng.normal(size=g.dim) * 3.0)
        assert np.all(p >= 0.0)
        assert abs(float(np.sum(p)) - 1.0) < 1e-12


class TestDensity:
    def test_standard_normal_value(self):
        g = make_measure([(0.0, (0.0,), (0.0,), 0.0, 1.0)])
        got = conditional_density(g, np.zeros(1), 0.0)
        assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_matches_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_measure(rng, k=int(rng.integers(1, 5)),
                               dim=int(rng.integers(1, 3)), scale=1.5)
            x = rng.normal(size=g.dim)
            y = float(rng.normal(scale=3.0))
            assert conditional_density(g, x, y) == pytest.approx(
                naive_density(g, x, y), rel=1e-12)

    def test_integrates_to_one(self):
        # normalization over y at fixed x, adaptive quadrature
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_measure(rng, k=3, dim=2, scale=1.0)
            x = rng.normal(size=2)
            val, err = quad(lambda y: conditional_density(g, x, y),
                            -60.0, 60.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_strictly_positive_far_out(self):
        g = g0_two_expert()
        with pytest.warns(UnderflowWarning):
            val = conditional_density(g, np.array([0.0]), 1e6)
        assert val > 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gauge_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        t0 = float(rng.normal(scale=2.0))
        t1 = rng.normal(scale=2.0, size=2)
        x = rng.normal(size=2)
        y = float(rng.normal(scale=2.0))
        assert conditional_density(translate(g, t0, t1), x, y) == pytest.approx(
            conditional_density(g, x, y), rel=1e-10)


class TestAvgLogLikelihood:
    def test_matches_naive_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_measure(rng, k=int(rng.integers(1, 5)), dim=2, scale=1.0)
            data = random_dataset(rng, n=int(rng.integers(1, 200)), dim=2)
            assert avg_log_likelihood(g, data) == pytest.approx(
                naive_avg_loglik(g, data), abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            avg_log_likelihood(g0_two_expert(), random_dataset(
                np.random.default_rng(0), n=5, dim=2))

    def test_underflow_floored_not_inf(self):
        g = make_measure([(0.0, (0.0,), (0.0,), 0.0, 1e-4)])
        data = Dataset(xs=np.zeros((2, 1)), ys=np.array([0.0, 500.0]))
        with pytest.warns(UnderflowWarning):
            val = avg_log_likelihood(g, data)
        assert math.isfinite(val)
        assert val <= 0.0


class TestResponsibilities:
    def test_sum_to_one_and_proportionality(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_measure(rng, k=4, dim=1, scale=1.0)
            x = rng.normal(size=1)
            y = float(rng.normal())
            r = responsibilities(g, x, y)
            assert r.shape == (4,)
            assert abs(float(np.sum(r)) - 1.0) < 1e-12
            gates = naive_gates(g, x)
            joint = [gates[k] * naive_density(
                make_measure([(0.0, g.atoms[k].omega1, g.atoms[k].a,
                               g.atoms[k].b, g.atoms[k].sigma)]), x, y)
                for k in range(4)]
            np.testing.assert_allclose(r, np.array(joint) / sum(joint),
                                       rtol=1e-9)

    def test_matrix_agrees_with_pointwise(self):
        rng = np.random.default_rng(17)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        data = random_dataset(rng, n=25, dim=2)
        mat = responsibility_matrix(g, data)
        for i in range(data.n):
            np.testing.assert_allclose(
                mat[i], responsibilities(g, data.xs[i], float(data.ys[i])),
                rtol=1e-12)


    def test_underflowed_row_is_uniform(self):
        # (y - mean)^2 overflows, so the row's log-joint is -inf throughout
        g = random_measure(np.random.default_rng(19), k=3, dim=1)
        data = Dataset(xs=np.zeros((2, 1)), ys=np.array([0.0, 1e200]))
        mat = responsibility_matrix(g, data)
        assert np.all(mat[1] == 1.0 / 3.0)
        assert abs(float(np.sum(mat[0])) - 1.0) < 1e-12


class TestRowKernels:
    """Per-observation rows of an (n, K) array, reduced by the column
    kernels on its (K, n) transpose."""

    @settings(max_examples=200, deadline=None)
    @given(a=arrays(np.float64,
                    st.tuples(st.integers(1, 6), st.integers(1, 5)),
                    elements=st.one_of(st.floats(-1e3, 1e3),
                                       st.just(-np.inf))))
    def test_logsumexp_matches_scipy(self, a):
        np.testing.assert_allclose(logsumexp_cols(a.T), logsumexp(a, axis=1),
                                   rtol=1e-13, atol=1e-12)

    def test_logsumexp_edge_rows(self):
        inf = np.inf
        a = np.array([[-inf, -inf, -inf],
                      [-inf, 1e3, -inf],
                      [1e3, 1e3 - 1.0, -1e3],
                      [-1e3, -1e3, -inf],
                      [inf, 0.0, -inf],
                      [np.nan, 0.0, 1.0]])
        got = logsumexp_cols(a.T)
        np.testing.assert_array_equal(got[[0, 1, 4, 5]],
                                      [-inf, 1e3, inf, np.nan])
        np.testing.assert_allclose(got[2:4], logsumexp(a[2:4], axis=1),
                                   rtol=1e-15)

    def test_softmax_dead_rows_uniform(self):
        a = np.array([[-np.inf, -np.inf], [np.inf, 0.0], [np.nan, 1.0],
                      [-1e3, -1e3 - 2.0]])
        p, lse = softmax_cols(a.T)
        np.testing.assert_array_equal(p[:, :3], 0.5)
        want = np.array([1.0, math.exp(-2.0)]) / (1.0 + math.exp(-2.0))
        np.testing.assert_allclose(p[:, 3], want, rtol=1e-14)
        np.testing.assert_array_equal(lse, logsumexp_cols(a.T))


class TestGauge:
    def test_translate_scales_weights(self):
        g = g0_two_expert()
        t = translate(g, 0.7, np.array([1.5]))
        np.testing.assert_allclose(t.weights(), g.weights() * math.exp(0.7),
                                   rtol=1e-14)
        np.testing.assert_allclose(t.gates()[:, :-1],
                                   g.gates()[:, :-1] + 1.5)
        np.testing.assert_allclose(t.betas(), g.betas())

    def test_normalize_baseline_pins_last_atom(self):
        rng = np.random.default_rng(23)
        g = random_measure(rng, k=4, dim=3, scale=2.0)
        ng = normalize_baseline(g)
        assert ng.atoms[-1].omega0 == 0.0
        np.testing.assert_array_equal(ng.atoms[-1].omega1, np.zeros(3))
        # idempotent
        ng2 = normalize_baseline(ng)
        assert ng2.to_dict() == ng.to_dict()

    def test_normalize_preserves_density(self):
        rng = np.random.default_rng(29)
        g = random_measure(rng, k=3, dim=1, scale=1.0)
        ng = normalize_baseline(g)
        for _ in range(10):
            x = rng.normal(size=1)
            y = float(rng.normal())
            assert conditional_density(ng, x, y) == pytest.approx(
                conditional_density(g, x, y), rel=1e-12)


class TestDictRoundTrip:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(31)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        d = g.to_dict()
        g2 = MixingMeasure.from_dict(d)
        assert g2.to_dict() == d
        for a, b in zip(g.atoms, g2.atoms):
            assert a.omega0 == b.omega0 and a.b == b.b and a.sigma == b.sigma
            np.testing.assert_array_equal(a.omega1, b.omega1)
            np.testing.assert_array_equal(a.a, b.a)

    def test_missing_field_rejected(self):
        d = g0_two_expert().to_dict()
        del d["atoms"][0]["sigma"]
        with pytest.raises(InputError):
            MixingMeasure.from_dict(d)


class TestVectorFields:
    @pytest.mark.parametrize("value", ["abc", {"a": 1}, [[1.0], [2.0, 3.0]],
                                       ["x"], object()])
    def test_non_numeric_vector_is_an_input_error(self, value):
        with pytest.raises(InputError, match="omega1 must be a real vector"):
            ExpertAtom(omega0=0.0, omega1=value, a=(0.0,), b=0.0, sigma=1.0)
        with pytest.raises(InputError, match="a must be a real vector"):
            ExpertAtom(omega0=0.0, omega1=(0.0,), a=value, b=0.0, sigma=1.0)

    @pytest.mark.parametrize("value", ["abc", {"a": 1}])
    def test_translate_by_non_numeric_slope(self, value):
        with pytest.raises(InputError, match="t1 must be a real vector"):
            translate(g0_two_expert(), 0.0, value)


class TestWeightOverflow:
    def test_weight_inside_double_range(self):
        at = ExpertAtom(omega0=709.0, omega1=(0.0,), a=(0.0,), b=0.0,
                        sigma=1.0)
        assert math.isfinite(at.weight)

    def test_weight_overflow_raises(self):
        from sgmoe.errors import NumericError
        at = ExpertAtom(omega0=710.0, omega1=(0.0,), a=(0.0,), b=0.0,
                        sigma=1.0)
        with pytest.raises(NumericError, match="overflow"):
            at.weight


class TestRowBlocks:
    """Passes over the rows run in blocks of model.ROW_BLOCK rows."""

    def test_log_density_over_blocks_warns_once_with_total(self,
                                                           monkeypatch):
        monkeypatch.setattr(model, "ROW_BLOCK", 16)
        rng = np.random.default_rng(8)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        data = random_dataset(rng, n=53, dim=2)
        ys = data.ys.copy()
        far = [2, 20, 21, 52]   # in the first, second and last block
        ys[far] = 1e4
        with pytest.warns(UnderflowWarning) as record:
            got = log_density_vector(g, data.xs, ys)
        assert len(record) == 1
        assert str(record[0].message).startswith("4 of 53 density values")
        want = logsumexp_cols(log_joint(g.gates(), g.betas(), g.sigmas(),
                                        data.xs, ys))
        assert np.all(got[far] == model.LOG_DENSITY_FLOOR)
        keep = np.setdiff1d(np.arange(53), far)
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-13)

    def test_one_block_is_the_unblocked_pass(self):
        # against the fresh-array reference kernels, which add the bias to
        # the slope product; with K, n >= 2 the design product's sum ends
        # with that same addition at every D
        rng = np.random.default_rng(9)
        for dim in (2, 1, 3):
            g = random_measure(rng, k=4, dim=dim, scale=1.0)
            data = random_dataset(rng, n=500, dim=dim)
            params = g.gates(), g.betas(), g.sigmas()
            lj = ref_log_joint(*params, data.xs, data.ys)
            assert np.array_equal(log_joint(*params, data.xs, data.ys), lj)
            assert np.array_equal(log_density_vector(g, data.xs, data.ys),
                                  ref_logsumexp_cols(lj))
            assert np.array_equal(responsibility_matrix(g, data),
                                  ref_softmax_cols(lj)[0].T)

    def test_one_expert_or_one_row_at_d1_within_one_rounding(self):
        # at D = 1 with one expert or one row, numpy takes the design
        # product through BLAS gemv, which may round w x + w0 once where
        # the references round w x and then the sum; which way it goes is
        # the platform's.  So each logit and mean may move by one rounding,
        # eps (|w x| + |w0|) at most; a log softmax by twice its largest
        # logit's move, a Gaussian log density by |y - mean| / sigma per
        # unit of mean, and every later value by a rounding of its size.
        rng = np.random.default_rng(14)
        eps = np.finfo(float).eps
        for k, n in ((1, 300), (3, 1), (1, 1)):
            g = random_measure(rng, k=k, dim=1, scale=1.0)
            data = random_dataset(rng, n=n, dim=1)
            params = gates, betas, sigmas = g.gates(), g.betas(), g.sigmas()
            xs, ys = data.xs, data.ys

            def moved(rows):
                return eps * (np.abs(rows[:, :1] * xs.T)
                              + np.abs(rows[:, 1:]))

            logits = gates[:, :1] * xs.T + gates[:, 1:]
            lg = ref_log_gates(gates, xs)
            lj = ref_log_joint(*params, xs, ys)
            resid = ys - (betas[:, :1] * xs.T + betas[:, 1:])
            sizes = (np.abs(logits).max(axis=0) + np.abs(lg) + np.abs(lj)
                     + model.LOG_2PI + np.abs(np.log(sigmas))[:, None]
                     + resid ** 2 / sigmas[:, None])
            gate_slack = 2 * moved(gates).max(axis=0) + 8 * eps * sizes
            slack = (gate_slack
                     + np.abs(resid) * moved(betas) / sigmas[:, None])
            assert np.all(np.abs(log_joint(*params, xs, ys) - lj) <= slack)
            lse = ref_logsumexp_cols(lj)
            assert np.all(np.abs(log_density_vector(g, xs, ys) - lse)
                          <= slack.max(axis=0) + 8 * eps * np.abs(lse))
            if n == 1:
                want = np.exp(lg[:, 0])
                assert np.all(np.abs(gating_probs(g, xs[0]) - want)
                              <= want * (gate_slack[:, 0] + 4 * eps))

    def test_workspace_of_another_shape_is_refused(self):
        # a workspace is made for one K and D; a mismatch is a
        # ValueError, not an InputError, and before any arithmetic
        from sgmoe.estimation import gating_newton_step
        rng = np.random.default_rng(13)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        data = random_dataset(rng, n=40, dim=2)
        params = g.gates(), g.betas(), g.sigmas()
        resp = np.full((3, 40), 1.0 / 3.0)
        refused = [
            lambda: log_joint(*params, data.xs, data.ys,
                              model.Workspace(4, 2, 40)),
            lambda: model.log_gates(params[0], data.xs,
                                    model.Workspace(3, 1, 40)),
            lambda: gating_newton_step(params[0], resp, data.xs,
                                       work=model.Workspace(3, 1, 40)),
            lambda: log_joint(*params, data.xs, data.ys,
                              model.Workspace(3, 2, 39)),
        ]
        for call in refused:
            with pytest.raises(ValueError) as info:
                call()
            assert not isinstance(info.value, InputError)
        work = model.Workspace(3, 2, 40)
        assert np.array_equal(log_joint(*params, data.xs, data.ys, work),
                              ref_log_joint(*params, data.xs, data.ys))

    def test_kernels_are_expert_major(self):
        # log_joint is a C-ordered (K, n) array; responsibility_matrix
        # stays a C-ordered (n, K) array, the order ICL sums its entropy in
        rng = np.random.default_rng(12)
        g = random_measure(rng, k=3, dim=2, scale=1.0)
        data = random_dataset(rng, n=40, dim=2)
        lj = log_joint(g.gates(), g.betas(), g.sigmas(), data.xs, data.ys)
        assert lj.shape == (3, 40) and lj.flags.c_contiguous
        resp = responsibility_matrix(g, data)
        assert resp.shape == (40, 3) and resp.flags.c_contiguous

    def test_responsibilities_over_blocks(self, monkeypatch):
        rng = np.random.default_rng(10)
        g = random_measure(rng, k=3, dim=1, scale=1.0)
        data = random_dataset(rng, n=70, dim=1)
        want = responsibility_matrix(g, data)
        monkeypatch.setattr(model, "ROW_BLOCK", 32)
        np.testing.assert_allclose(responsibility_matrix(g, data), want,
                                   rtol=1e-13, atol=1e-300)
