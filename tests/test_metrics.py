"""Voronoi partitions, cell exponents, translation infimum, and the losses."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmoe.datagen import builtin_truths
from sgmoe.errors import InputError, NumericError
from sgmoe.metrics import (
    UNATTAINED_T0,
    _ORDER,
    _infimum,
    _prepare,
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
    naive_loss_objective,
    nelder_mead_loss,
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


def weight_term(weights, ref_weights):
    w, r = np.asarray(weights, dtype=float), np.asarray(ref_weights, dtype=float)
    return lambda t0: float(np.sum(np.abs(w - r * np.exp(t0))))


def no_anchors(dim):
    return np.zeros((0, dim)), np.zeros(0), np.zeros(0)


def brute_weight_scale(weights, ref_weights):
    """Smallest positive s minimizing sum_k |W_k - r_k s| over the ratios, in
    exact arithmetic; None when only s -> 0 attains the infimum."""
    ratios = {Fraction(w, r) for w, r in zip(weights, ref_weights)} | {Fraction(0)}

    def cost(s):
        return sum(abs(w - r * s) for w, r in zip(weights, ref_weights))

    best = min(cost(s) for s in ratios)
    positive = [s for s in ratios if s > 0 and cost(s) == best]
    return min(positive) if positive else None


def near_measure(rng, reference, k, scale):
    """k atoms, each a noisy copy of a random reference atom."""
    rows = []
    for _ in range(k):
        at = reference.atoms[rng.integers(reference.n_atoms)]
        rows.append((at.omega0 + float(rng.normal(0.0, 1.0)),
                     at.omega1 + rng.normal(0.0, scale, size=reference.dim),
                     at.a + rng.normal(0.0, scale, size=reference.dim),
                     at.b + float(rng.normal(0.0, scale)),
                     at.sigma * float(np.exp(rng.normal(0.0, scale)))))
    return make_measure(rows, dim=reference.dim)


class TestTranslationInfimum:
    def test_quadratic_bowl(self):
        weights, ref = [3.0, 1.5, 0.2], [1.0, 1.0, 1.0]   # median ratio 1.5
        v = np.array([0.4, -1.2])
        a = weight_term(weights, ref)
        opt = translation_infimum(
            lambda t0, t1: (a(t0) + float(np.sum((t1 - v) ** 2)), 2.0 * (t1 - v)),
            weights, ref, (v[None, :], np.ones(1), np.full(1, 2.0)))
        assert opt.t0 == math.log(1.5)
        np.testing.assert_allclose(opt.t1, v, atol=1e-6)
        assert opt.value == pytest.approx(2.8, abs=1e-12)

    def test_constant_objective(self):
        # no anchor: g does not depend on t1, which stays at the origin
        a = weight_term([1.0], [2.0])
        opt = translation_infimum(lambda t0, t1: (a(t0) + 7.5, np.zeros(1)),
                                  [1.0], [2.0], no_anchors(1))
        assert opt.t0 == math.log(0.5)
        assert opt.t1.tolist() == [0.0]
        assert opt.value == pytest.approx(7.5, abs=1e-15)

    def test_never_worse_than_origin(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            c = rng.normal(size=2)
            weights, ref = rng.exponential(size=3), rng.exponential(size=3)
            a = weight_term(weights, ref)

            def objective(t0, t1, c=c):
                r = float(np.linalg.norm(t1 - c))
                return a(t0) + r + 0.3, (t1 - c) / max(r, 1e-300)

            opt = translation_infimum(objective, weights, ref,
                                      (c[None, :], np.ones(1), np.ones(1)))
            origin = a(0.0) + float(np.linalg.norm(c)) + 0.3
            assert opt.value <= origin + 1e-9
            assert opt.value == pytest.approx(a(opt.t0) + 0.3, abs=1e-12)

    def test_non_finite_origin_rejected(self):
        with pytest.raises(NumericError, match="not finite at the origin"):
            translation_infimum(lambda t0, t1: (float("inf"), np.zeros(1)),
                                [1.0], [1.0], no_anchors(1))

    def test_origin_is_evaluated_first_and_once(self):
        calls = []
        a = weight_term([2.0, 1.0], [1.0, 1.0])

        def objective(t0, t1):
            calls.append((t0, t1.tolist()))
            return a(t0) + float(np.sum((t1 - 0.7) ** 2)), 2.0 * (t1 - 0.7)

        translation_infimum(objective, [2.0, 1.0], [1.0, 1.0],
                            (np.full((1, 1), 0.7), np.ones(1), np.full(1, 2.0)))
        assert calls[0] == (0.0, [0.0])
        assert (0.0, [0.0]) not in calls[1:]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)),
                    min_size=1, max_size=6))
    def test_t0_is_brute_force_weighted_median(self, pairs):
        weights = [float(w) for w, _ in pairs]
        ref = [float(r) for _, r in pairs]
        a = weight_term(weights, ref)
        opt = translation_infimum(
            lambda t0, t1: (a(t0) + float(t1[0] ** 2), 2.0 * t1), weights, ref,
            (np.zeros((1, 1)), np.ones(1), np.full(1, 2.0)))
        want = brute_weight_scale([w for w, _ in pairs], [r for _, r in pairs])
        if want is None:
            assert opt.t0 == UNATTAINED_T0
        else:
            assert opt.t0 == math.log(float(want))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 2), k=st.integers(2, 5), k0=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_never_above_nelder_mead(self, dim, k, k0, seed):
        rng = np.random.default_rng(seed)
        reference = random_measure(rng, k=k0, dim=dim, scale=1.5)
        fitted = near_measure(rng, reference, k, scale=0.3)
        for order, loss in enumerate((vde, vdo, vdfra)):
            v = loss(fitted, reference)
            assert v <= nelder_mead_loss(fitted, reference, order) + 1e-12 * (1.0 + v)


class TestUnattainedInfimum:
    """All fitted atoms near the first of two truth atoms: the empty cell
    carries most reference weight, so the infimum needs e^t0 -> 0."""

    @staticmethod
    def measures():
        near = perturbed_copy(
            make_measure([(0.0, (25.0,), (-20.0,), 15.0, 0.3)]),
            np.random.default_rng(1), scale=0.01, extra=3)
        return near, g0_two_expert()

    @pytest.mark.parametrize("kind", ["vde", "vdo", "vdfra"])
    def test_value_is_the_limit(self, kind):
        near, g0 = self.measures()
        opt = _infimum(_prepare(near, g0)[3], kind)
        naive = naive_loss_objective(near, g0, _ORDER[kind])
        assert opt.t0 == UNATTAINED_T0
        assert opt.value == pytest.approx(float(naive(-math.inf, opt.t1[0])),
                                          rel=1e-12)
        # the objective falls toward the value as e^t0 -> 0, never below it
        along = [float(naive(t0, opt.t1[0])) for t0 in (-5.0, -10.0, -20.0)]
        assert along[0] > along[1] > along[2] >= opt.value
        oracle = nelder_mead_loss(near, g0, _ORDER[kind])
        assert opt.value <= oracle + 1e-12 * (1.0 + opt.value)

    def test_loss_report(self):
        near, g0 = self.measures()
        rep = loss_report(near, g0)
        assert rep["t0"] == UNATTAINED_T0
        assert (rep["vde"], rep["vdo"], rep["vdfra"]) == (
            vde(near, g0), vdo(near, g0), vdfra(near, g0))
        assert rep["cells"] == {"0": [0, 1, 2, 3], "1": []}


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
            v = [f(t0, t1)[0] for f in fs]
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

    def test_vdfra_matches_grid_when_b_deviations_cancel(self):
        # both members of cell 0 keep the reference intercept, so
        # sum w db = 0 and sum w ((u - t1) db + da) does not depend on t1
        g0 = make_measure([(0.0, (0.5,), (1.0,), 2.0, 0.5),
                           (-0.5, (-1.0,), (3.0,), -1.0, 1.0)])
        g = make_measure([(-0.7, (0.7,), (1.2,), 2.0, 0.45),
                          (-0.8, (0.2,), (0.7,), 2.0, 0.6),
                          (-0.4, (-1.1,), (3.1,), -0.9, 1.1)])
        assert voronoi_cells(g, g0).cells == {0: (0, 1), 1: (2,)}
        want = grid_loss_oracle(g, g0, order=2)
        assert vdfra(g, g0) == pytest.approx(want, abs=1e-4, rel=1e-3)


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


RUNTIME_PROBE = """
import sys
import numpy as np
import sgmoe, sgmoe.cli, sgmoe.experiments
from sgmoe.datagen import builtin_truths
from sgmoe.metrics import loss_report
from sgmoe.model import ExpertAtom, MixingMeasure

g0 = builtin_truths()["g0_2"]
loss_report(g0, g0)
atoms = tuple(ExpertAtom(omega0=float(k), omega1=np.array([k, -k], float),
                         a=np.array([1.0, k], float), b=0.5 * k, sigma=1.0 + k)
              for k in range(3))
loss_report(MixingMeasure(atoms=atoms, dim=2),
            MixingMeasure(atoms=atoms[1:], dim=2))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_does_not_import_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in (env.get("PYTHONPATH"),) if p])
    out = subprocess.run([sys.executable, "-c", RUNTIME_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
