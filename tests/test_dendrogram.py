"""Merge operator, dissimilarity, and the aggregation path."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmoe.dendrogram import (
    Dendrogram,
    MergeRecord,
    build_path,
    dissimilarity,
    merge_pair,
    merge_step,
)
from sgmoe.errors import InputError
from sgmoe.model import MixingMeasure

from helpers import g0_three_expert, make_atom, make_measure, random_measure


def naive_dissimilarity(p, q) -> float:
    # plain-formula reference: harmonic weight times (squared fast block +
    # unsquared slow block)
    wi, wj = math.exp(p.omega0), math.exp(q.omega0)
    pref = wi * wj / (wi + wj)
    fast = sum((float(u) - float(v)) ** 2
               for u, v in zip(p.omega1, q.omega1)) + (p.b - q.b) ** 2
    slow = math.sqrt(sum((float(u) - float(v)) ** 2
                         for u, v in zip(p.a, q.a)) + (p.sigma - q.sigma) ** 2)
    return pref * (fast + slow)


def moment_sums(measure: MixingMeasure) -> np.ndarray:
    """Weighted sums conserved by merging, concatenated into one vector."""
    w = measure.weights()
    omega1s, betas = measure.gates()[:, :-1], measure.betas()
    slopes, intercepts = betas[:, :-1], betas[:, -1]
    return np.concatenate([
        [np.sum(w)],
        w @ omega1s,
        [np.sum(w * intercepts)],
        [np.sum(w * (intercepts ** 2 + measure.sigmas()))],
        w @ (omega1s * intercepts[:, None] + slopes),
    ])


class TestDissimilarity:
    def test_identical_atoms_zero(self):
        p = make_atom(omega0=0.3, omega1=(1.0, -2.0), a=(0.5, 0.5), b=1.0,
                      sigma=2.0)
        assert dissimilarity(p, p) == 0.0

    def test_hand_value(self):
        p = make_atom(omega0=0.0, omega1=(1.0,), a=(0.0,), b=0.0, sigma=1.0)
        q = make_atom(omega0=0.0, omega1=(-1.0,), a=(0.0,), b=2.0, sigma=1.0)
        assert dissimilarity(p, q) == pytest.approx(4.0, rel=1e-14)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            g = random_measure(rng, k=2, dim=int(rng.integers(1, 4)), scale=3.0)
            p, q = g.atoms
            assert dissimilarity(p, q) == dissimilarity(q, p)

    def test_matches_naive(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            g = random_measure(rng, k=2, dim=2, scale=2.0)
            p, q = g.atoms
            assert dissimilarity(p, q) == pytest.approx(
                naive_dissimilarity(p, q), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(InputError):
            dissimilarity(make_atom(omega1=(0.0,), a=(0.0,)),
                          make_atom(omega1=(0.0, 0.0), a=(0.0, 0.0)))


class TestMergePair:
    def test_identical_atoms(self):
        p = make_atom(omega0=0.0, omega1=(1.0,), a=(2.0,), b=3.0, sigma=0.5)
        m = merge_pair(p, p)
        assert m.omega0 == pytest.approx(math.log(2.0), rel=1e-15)
        np.testing.assert_allclose(m.omega1, p.omega1)
        np.testing.assert_allclose(m.a, p.a)
        assert m.b == pytest.approx(p.b)
        assert m.sigma == pytest.approx(p.sigma)

    def test_hand_value(self):
        p = make_atom(omega0=0.0, omega1=(1.0,), a=(0.0,), b=0.0, sigma=1.0)
        q = make_atom(omega0=0.0, omega1=(-1.0,), a=(0.0,), b=2.0, sigma=1.0)
        m = merge_pair(p, q)
        assert m.omega1[0] == pytest.approx(0.0, abs=1e-15)
        assert m.b == pytest.approx(1.0, rel=1e-15)
        assert m.a[0] == pytest.approx(-1.0, rel=1e-14)
        assert m.sigma == pytest.approx(2.0, rel=1e-14)

    def test_conservation_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            g = random_measure(rng, k=2, dim=int(rng.integers(1, 4)), scale=2.0)
            merged = MixingMeasure.from_atoms([merge_pair(*g.atoms)])
            before = moment_sums(g)
            after = moment_sums(merged)
            np.testing.assert_allclose(after, before, rtol=1e-10, atol=1e-12)

    def test_sigma_at_least_weighted_mean(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            g = random_measure(rng, k=2, dim=1, scale=2.0)
            p, q = g.atoms
            m = merge_pair(p, q)
            wi = math.exp(p.omega0 - m.omega0)
            wj = math.exp(q.omega0 - m.omega0)
            assert m.sigma >= wi * p.sigma + wj * q.sigma - 1e-12


class TestMergeStep:
    def test_identical_pair_merged_first(self):
        g = make_measure([
            (0.0, (5.0,), (1.0,), 2.0, 1.0),
            (0.1, (0.0,), (0.0,), 0.0, 1.0),
            (0.2, (0.0,), (0.0,), 0.0, 1.0),
        ])
        out, rec = merge_step(g)
        assert rec.pair == (1, 2)
        assert rec.height == 0.0
        assert out.n_atoms == 2
        # merged atom sits at index 1, untouched atom stays at 0
        assert out.atoms[0].omega1[0] == 5.0

    def test_single_atom_rejected(self):
        g = make_measure([(0.0, (0.0,), (0.0,), 0.0, 1.0)])
        with pytest.raises(InputError):
            merge_step(g)

    def test_weight_conserved(self):
        rng = np.random.default_rng(59)
        g = random_measure(rng, k=5, dim=2, scale=1.5)
        out, _ = merge_step(g)
        assert float(np.sum(out.weights())) == pytest.approx(
            float(np.sum(g.weights())), rel=1e-12)

    def test_three_expert_truth_first_merge_matches_brute_force(self):
        g = g0_three_expert()
        pairs = {(i, j): naive_dissimilarity(g.atoms[i], g.atoms[j])
                 for i in range(3) for j in range(i + 1, 3)}
        expected = min(pairs, key=lambda p: (pairs[p], p))
        _, rec = merge_step(g)
        assert rec.pair == expected
        assert rec.height == pytest.approx(pairs[expected], rel=1e-12)

    def test_tie_breaks_lexicographic(self):
        # four identical atoms: every pair has distance 0; (0,1) must win
        g = make_measure([(0.0, (0.0,), (0.0,), 0.0, 1.0)] * 4)
        _, rec = merge_step(g)
        assert rec.pair == (0, 1)


class TestBuildPath:
    def test_single_atom_path(self):
        g = make_measure([(0.0, (0.0,), (0.0,), 0.0, 1.0)])
        dg = build_path(g)
        assert dg.n_levels == 1
        assert dg.merges == ()
        assert dg.heights == ()

    def test_two_atom_path(self):
        rng = np.random.default_rng(61)
        g = random_measure(rng, k=2, dim=1)
        dg = build_path(g)
        assert dg.n_levels == 2
        assert dg.heights[0] == pytest.approx(
            dissimilarity(g.atoms[0], g.atoms[1]), rel=1e-14)

    def test_level_sizes_decrease_by_one(self):
        rng = np.random.default_rng(67)
        dg = build_path(random_measure(rng, k=6, dim=2))
        sizes = [lvl.n_atoms for lvl in dg.levels]
        assert sizes == [6, 5, 4, 3, 2, 1]

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moments_conserved_along_path(self, seed):
        rng = np.random.default_rng(seed)
        g = random_measure(rng, k=int(rng.integers(2, 7)),
                           dim=int(rng.integers(1, 4)), scale=2.0)
        dg = build_path(g)
        base = moment_sums(dg.levels[0])
        for lvl in dg.levels[1:]:
            np.testing.assert_allclose(moment_sums(lvl), base,
                                       rtol=1e-9, atol=1e-11)

    def test_heights_recheckable_exactly(self):
        rng = np.random.default_rng(71)
        g = random_measure(rng, k=5, dim=2, scale=1.0)
        dg = build_path(g)
        for lvl, h in zip(dg.levels[:-1], dg.heights):
            k = lvl.n_atoms
            rechecked = min(dissimilarity(lvl.atoms[i], lvl.atoms[j])
                            for i in range(k) for j in range(i + 1, k))
            assert h == rechecked

    def test_deterministic(self):
        rng = np.random.default_rng(73)
        g = random_measure(rng, k=5, dim=1)
        assert build_path(g).to_dict() == build_path(g).to_dict()

    def test_accessors(self):
        rng = np.random.default_rng(79)
        dg = build_path(random_measure(rng, k=4, dim=1))
        assert dg.level(4).n_atoms == 4
        assert dg.level(1).n_atoms == 1
        assert dg.height_at(4) == dg.heights[0]
        assert dg.height_at(2) == dg.heights[2]
        with pytest.raises(InputError):
            dg.level(5)
        with pytest.raises(InputError):
            dg.height_at(1)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(83)
        dg = build_path(random_measure(rng, k=4, dim=2))
        d = dg.to_dict()
        dg2 = Dendrogram.from_dict(d)
        assert dg2.to_dict() == d

    @pytest.mark.parametrize("merge, field, value, match", [
        (0, "level", 99, "merge 0 is at level 4, its record says 99"),
        (2, "level", 3, "merge 2 is at level 2"),
        (1, "pair", [5, 7], r"merge 1 pair \[5, 7\] is not two"),
        (1, "pair", [-1, 1], "is not two of its level's 3 atoms"),
        (0, "pair", [1, 1], r"pair \[1, 1\]"),
        (0, "pair", [2, 0], r"pair \[2, 0\]"),
        (0, "pair", [1], "malformed"),
        (0, "pair", ["a", 1], "malformed"),
    ])
    def test_merge_record_must_fit_its_position(self, merge, field, value,
                                                match):
        rng = np.random.default_rng(83)
        d = build_path(random_measure(rng, k=4, dim=2)).to_dict()
        d["merges"][merge][field] = value
        with pytest.raises(InputError, match=match):
            Dendrogram.from_dict(d)

    def test_merge_count_must_match_levels(self):
        rng = np.random.default_rng(83)
        d = build_path(random_measure(rng, k=4, dim=2)).to_dict()
        d["merges"].append(dict(d["merges"][-1]))
        with pytest.raises(InputError, match="4 levels need 3 merges, got 4"):
            Dendrogram.from_dict(d)

    @pytest.mark.parametrize("pair, match", [
        ((0, 4), r"merge 0 pair \[0, 4\] is not two of its level's 4"),
        ((1, 0), r"merge 0 pair \[1, 0\]"),
        ((2, 2), r"merge 0 pair \[2, 2\]"),
        ((-1, 2), r"merge 0 pair \[-1, 2\]"),
    ])
    def test_built_merge_pair_is_checked(self, pair, match):
        # the dendrogram checks the merges it is built from, not only
        # the ones it loads
        rng = np.random.default_rng(83)
        dg = build_path(random_measure(rng, k=4, dim=2))
        merges = (MergeRecord(pair=pair, height=dg.merges[0].height),
                  *dg.merges[1:])
        with pytest.raises(InputError, match=match):
            Dendrogram(levels=dg.levels, merges=merges)

    @pytest.mark.parametrize("height", [-1e-12, math.nan])
    def test_built_merge_height_is_checked(self, height):
        rng = np.random.default_rng(83)
        dg = build_path(random_measure(rng, k=3, dim=1))
        merges = (dg.merges[0], MergeRecord(pair=(0, 1), height=height))
        with pytest.raises(InputError, match="merge 1 height"):
            Dendrogram(levels=dg.levels, merges=merges)


class TestDissimilarityOverflow:
    def test_one_huge_gate_is_fine(self):
        # harmonic weight is bounded by the smaller atom's weight
        a = make_atom(omega0=5000.0, b=1.0)
        b = make_atom(omega0=0.0, b=2.0)
        assert math.isfinite(dissimilarity(a, b))

    def test_two_huge_gates_raise(self):
        from sgmoe.errors import NumericError
        a = make_atom(omega0=800.0, b=1.0)
        b = make_atom(omega0=800.0, b=2.0)
        with pytest.raises(NumericError, match="overflow"):
            dissimilarity(a, b)
