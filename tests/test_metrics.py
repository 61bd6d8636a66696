"""Voronoi partitions, cell exponents, translation infimum, and the losses."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmoe.datagen import builtin_truths
from sgmoe.errors import InputError, NumericError
from sgmoe.metrics import (
    cell_exponent,
    loss_report,
    translation_infimum,
    vde,
    vdfra,
    vdo,
    voronoi_cells,
)
from sgmoe.model import translate

from helpers import (
    g0_three_expert,
    g0_two_expert,
    grid_loss_oracle,
    make_atom,
    make_measure,
    perturbed_copy,
    random_measure,
    separated_fit,
)


class TestVoronoiCells:
    def test_self_partition_is_identity(self):
        g = g0_three_expert()
        part = voronoi_cells(g, g)
        assert part.cells == {0: (0,), 1: (1,), 2: (2,)}
        assert part.tie_breaks == 0

    def test_all_atoms_near_one_truth(self):
        g0 = g0_two_expert()
        near = perturbed_copy(
            make_measure([(0.0, (25.0,), (-20.0,), 15.0, 0.3)]),
            np.random.default_rng(1), scale=0.01, extra=3)
        part = voronoi_cells(near, g0)
        assert part.cells[0] == (0, 1, 2, 3)
        assert part.cells[1] == ()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            fitted = random_measure(rng, k=5, dim=1, scale=2.0)
            ref = random_measure(rng, k=2, dim=1, scale=2.0)
            part = voronoi_cells(fitted, ref)
            for l, at in enumerate(fitted.atoms):
                d = [float(np.sum((at.theta() - r.theta()) ** 2))
                     for r in ref.atoms]
                want = min(range(2), key=lambda k: (d[k], k))
                assert l in part.cells[want]

    def test_tie_counted_and_broken_to_smaller(self):
        # reference atoms differ only in omega0, so distances tie exactly
        ref = make_measure([
            (0.0, (1.0,), (0.0,), 0.0, 1.0),
            (5.0, (1.0,), (0.0,), 0.0, 1.0),
        ])
        fit = make_measure([(0.3, (0.0,), (0.0,), 0.0, 1.0)])
        part = voronoi_cells(fit, ref)
        assert part.cells == {0: (0,), 1: ()}
        assert part.tie_breaks == 1

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            voronoi_cells(g0_two_expert(),
                          random_measure(np.random.default_rng(0), 2, 2))


class TestCellExponent:
    def test_table(self):
        assert cell_exponent(1) == 1
        assert cell_exponent(2) == 4
        assert cell_exponent(3) == 6
        assert cell_exponent(4) == 7
        assert cell_exponent(5) == 7
        assert cell_exponent(100) == 7

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            cell_exponent(0)


class TestTranslationInfimum:
    def test_quadratic_bowl(self):
        v = np.array([0.4, -1.2])
        opt = translation_infimum(
            lambda t0, t1: (t0 - 1.0) ** 2 + float(np.sum((t1 - v) ** 2)),
            dim=2)
        assert opt.t0 == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(opt.t1, v, atol=1e-6)
        assert opt.value == pytest.approx(0.0, abs=1e-10)

    def test_constant_objective(self):
        opt = translation_infimum(lambda t0, t1: 7.5, dim=1)
        assert opt.value == 7.5

    def test_never_worse_than_origin(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            c = rng.normal(size=3)
            opt = translation_infimum(
                lambda t0, t1, c=c: abs(t0 - c[0]) + float(
                    np.sum(np.abs(t1 - c[1:]))) + 0.3,
                dim=2)
            origin = abs(c[0]) + float(np.sum(np.abs(c[1:]))) + 0.3
            assert opt.value <= origin + 1e-9

    def test_budget_exhaustion_carries_best(self):
        with pytest.raises(NumericError) as exc:
            translation_infimum(
                lambda t0, t1: (t0 - 3.0) ** 2 + float(np.sum(t1 ** 2)),
                dim=1, max_evals=5)
        assert exc.value.value is not None
        assert math.isfinite(exc.value.value.value)

    def test_non_finite_origin_rejected(self):
        with pytest.raises(InputError):
            translation_infimum(lambda t0, t1: float("inf"), dim=1)


class TestLossZeros:
    @pytest.mark.parametrize("loss", [vde, vdo, vdfra])
    def test_zero_at_truth(self, loss):
        for g in (g0_two_expert(), g0_three_expert()):
            assert loss(g, g) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("loss", [vde, vdo, vdfra])
    def test_zero_at_translates_of_truth(self, loss):
        rng = np.random.default_rng(109)
        g = g0_two_expert()
        for _ in range(5):
            t = translate(g, float(rng.normal()), rng.normal(size=1))
            assert loss(t, g) == pytest.approx(0.0, abs=1e-8)


class TestGaugeInvariance:
    @pytest.mark.parametrize("loss", [vde, vdo, vdfra])
    def test_translation_of_fitted_side(self, loss):
        rng = np.random.default_rng(113)
        g0 = g0_two_expert()
        g = perturbed_copy(g0, rng, scale=0.2, extra=1)
        base = loss(g, g0)
        for _ in range(10):
            t0 = float(rng.uniform(-2.0, 2.0))
            t1 = rng.uniform(-2.0, 2.0, size=1)
            moved = loss(translate(g, t0, t1), g0)
            assert abs(moved - base) <= 1e-6 * (1.0 + base)

    def test_translation_of_reference_side(self):
        rng = np.random.default_rng(127)
        g0 = g0_three_expert()
        g = perturbed_copy(g0, rng, scale=0.15)
        base = vde(g, g0)
        moved = vde(g, translate(g0, 0.8, np.array([-1.1])))
        assert abs(moved - base) <= 1e-6 * (1.0 + base)


class TestLossStructure:
    def test_vdo_equals_vde_when_all_singletons(self):
        rng = np.random.default_rng(131)
        g0 = g0_two_expert()
        g = perturbed_copy(g0, rng, scale=0.1)   # K = K0, cells stay singleton
        assert vdo(g, g0) == vde(g, g0)
        assert vdfra(g, g0) == vde(g, g0)

    def test_integrand_ordering_at_fixed_translation(self):
        # at any fixed (t0, t1) the added terms are nonnegative
        from sgmoe.metrics import _objective, _prepare
        rng = np.random.default_rng(137)
        g0 = g0_two_expert()
        g = perturbed_copy(g0, rng, scale=0.3, extra=2)
        _, _, _, cells = _prepare(g, g0)
        fs = [_objective(cells, order) for order in (0, 1, 2)]
        for _ in range(50):
            t0 = float(rng.uniform(-2, 2))
            t1 = rng.uniform(-2, 2, size=1)
            v = [f(t0, t1) for f in fs]
            assert v[0] <= v[1] + 1e-12
            assert v[1] <= v[2] + 1e-12

    def test_merged_moment_split_vanishes(self):
        # split one atom into two with no gate-slope spread, symmetric b
        # offsets, and sigma lowered by delta^2: every aggregated block sum
        # cancels, so the fast-rate loss adds nothing over the over-fit loss
        delta = 0.3
        parent = (0.0, (0.0,), (1.5,), 2.0, 0.5)
        g0 = make_measure([parent])
        half = math.log(0.5)
        g = make_measure([
            (half, (0.0,), (1.5,), 2.0 + delta, 0.5 - delta ** 2),
            (half, (0.0,), (1.5,), 2.0 - delta, 0.5 - delta ** 2),
        ])
        vo = vdo(g, g0)
        vf = vdfra(g, g0)
        assert abs(vf - vo) <= 1e-9

    def test_general_conservation_split_vanishes(self):
        # random two-way split consistent with the merge conservation laws
        # (common gate slope; weighted b, a, sigma moments preserved)
        rng = np.random.default_rng(139)
        for _ in range(10):
            w = float(np.exp(rng.normal()))
            b0 = float(rng.normal())
            a0 = float(rng.normal())
            s0 = float(np.exp(rng.normal(0.0, 0.3)))
            lam = float(rng.uniform(0.2, 0.8))
            d1 = float(rng.uniform(0.05, 0.3))
            db1, db2 = d1 * (1 - lam), -d1 * lam       # sum w_l db_l = 0
            ea = float(rng.uniform(-0.2, 0.2))
            da1, da2 = ea * (1 - lam), -ea * lam       # sum w_l da_l = 0
            g0 = make_measure([(math.log(w), (0.0,), (a0,), b0, s0)])
            g = make_measure([
                (math.log(w * lam), (0.0,), (a0 + da1,), b0 + db1, s0 - db1 ** 2),
                (math.log(w * (1 - lam)), (0.0,), (a0 + da2,), b0 + db2,
                 s0 - db2 ** 2),
            ])
            assert abs(vdfra(g, g0) - vdo(g, g0)) <= 1e-9


class TestGridOracle:
    def test_vde_matches_grid(self):
        rng = np.random.default_rng(149)
        for _ in range(3):
            g0 = random_measure(rng, k=2, dim=1, scale=1.0)
            g = perturbed_copy(g0, rng, scale=0.25)
            got = vde(g, g0)
            want = grid_loss_oracle(g, g0, order=0)
            assert got == pytest.approx(want, abs=1e-4, rel=1e-3)

    def test_vdo_matches_grid(self):
        rng = np.random.default_rng(151)
        for _ in range(2):
            g0 = random_measure(rng, k=2, dim=1, scale=1.0)
            g = perturbed_copy(g0, rng, scale=0.2, extra=1)   # K=3 over K0=2
            got = vdo(g, g0)
            want = grid_loss_oracle(g, g0, order=1)
            assert got == pytest.approx(want, abs=1e-4, rel=1e-3)

    def test_vdfra_matches_grid(self):
        rng = np.random.default_rng(157)
        for _ in range(2):
            g0 = random_measure(rng, k=2, dim=1, scale=1.0)
            g = perturbed_copy(g0, rng, scale=0.2, extra=1)
            got = vdfra(g, g0)
            want = grid_loss_oracle(g, g0, order=2)
            assert got == pytest.approx(want, abs=1e-4, rel=1e-3)


class TestLossReport:
    def test_report_consistent_with_losses(self):
        rng = np.random.default_rng(163)
        g0 = g0_two_expert()
        g = perturbed_copy(g0, rng, scale=0.2, extra=1)
        rep = loss_report(g, g0)
        assert rep["vde"] == vde(g, g0)
        assert rep["vdo"] == vdo(g, g0)
        assert rep["vdfra"] == vdfra(g, g0)
        assert set(rep["cells"].keys()) == {"0", "1"}
        assert sorted(l for cell in rep["cells"].values() for l in cell) == [0, 1, 2]
        assert isinstance(rep["t0"], float)
        assert len(rep["t1"]) == 1

    def test_overflowing_fit_is_a_numeric_error(self):
        # the K=4 fit carries an atom of weight 1.5e284: vdo's high-order
        # terms overflow at the origin, which is a failure of the fit
        g0 = builtin_truths()["g0_2"]
        with pytest.raises(NumericError, match="not finite at the origin"):
            loss_report(separated_fit().model, g0)
