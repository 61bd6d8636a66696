"""Hierarchical aggregation of expert atoms.

Starting from a fitted model with K atoms, repeatedly merge the pair with
the smallest rate-weighted dissimilarity until one atom remains.  The merge
is closed-form and conserves the weighted moment sums

    sum exp(omega0) * {1, omega1, b, b^2 + sigma, omega1*b + a}

exactly, so every level of the path represents the same aggregate mixture
statistics.  The recorded heights (minimal dissimilarity per level) drive
sweep-free model-order selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, decodes, number, numbers, typed
from .model import ExpertAtom, MixingMeasure

__all__ = [
    "MergeRecord",
    "Dendrogram",
    "dissimilarity",
    "merge_pair",
    "merge_step",
    "build_path",
]


@dataclass(frozen=True, slots=True)
class MergeRecord:
    """One merge: the pair ``pair`` of its level's atoms was replaced at
    height ``height``; the merge's position in the path gives its level."""

    pair: tuple[int, int]      # indices merged, i < j
    height: float              # minimal pairwise dissimilarity at this level


@dataclass(frozen=True, slots=True)
class Dendrogram:
    """Aggregation path: models at every level K, K-1, ..., 1 plus merge records.

    The m-th merge reduces levels[m] to levels[m + 1]: it joins two of
    levels[m]'s atoms, i < j, at a nonnegative height.
    """

    levels: tuple[MixingMeasure, ...]   # levels[0] has K atoms, levels[-1] has 1
    merges: tuple[MergeRecord, ...]     # length K-1

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "merges", tuple(self.merges))
        if len(self.merges) != len(self.levels) - 1:
            raise InputError(f"{len(self.levels)} levels need "
                             f"{len(self.levels) - 1} merges, got "
                             f"{len(self.merges)}")
        top = self.levels[0].n_atoms
        for i, lvl in enumerate(self.levels):
            if lvl.n_atoms != top - i:
                raise InputError(
                    f"level {i} has {lvl.n_atoms} atoms, expected {top - i}")
        for m, merge in enumerate(self.merges):
            i, j = merge.pair
            k = top - m
            if not 0 <= i < j < k:
                raise InputError(f"merge {m} pair {[i, j]} is not two "
                                 f"of its level's {k} atoms, i < j")
            # NaN fails every comparison, so the bound is stated as a pass
            if not merge.height >= 0:
                raise InputError(f"merge {m} height {merge.height} is "
                                 "not >= 0")

    @property
    def heights(self) -> tuple[float, ...]:
        """The merges' heights, in merge order."""
        return tuple(m.height for m in self.merges)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level(self, kappa: int) -> MixingMeasure:
        """Model with exactly ``kappa`` atoms."""
        k_top = self.levels[0].n_atoms
        if not 1 <= kappa <= k_top:
            raise InputError(f"level {kappa} outside [1, {k_top}]")
        return self.levels[k_top - kappa]

    def height_at(self, kappa: int) -> float:
        """Merge height recorded while reducing from ``kappa`` to ``kappa - 1`` atoms."""
        k_top = self.levels[0].n_atoms
        if not 2 <= kappa <= k_top:
            raise InputError(f"no merge height at level {kappa}")
        return self.merges[k_top - kappa].height

    def to_dict(self) -> dict:
        top = self.levels[0].n_atoms
        return {
            "levels": [g.to_dict() for g in self.levels],
            "merges": [{"level": top - m, "pair": list(merge.pair),
                        "height": merge.height}
                       for m, merge in enumerate(self.merges)],
            "heights": list(self.heights),
        }

    @classmethod
    @decodes("dendrogram")
    def from_dict(cls, d: dict) -> "Dendrogram":
        """The dendrogram of a `to_dict` record; an InputError also when a
        merge's level or the top-level heights are not the ones its
        levels and merges give."""
        def merge(rec):
            pair = typed(rec["pair"], list, "pair")
            return MergeRecord(pair=tuple(typed(v, int, "pair") for v in pair),
                               height=number(rec["height"], "height"))

        dg = cls(levels=[MixingMeasure.from_dict(g) for g in d["levels"]],
                 merges=[merge(rec) for rec in d["merges"]])
        for m, rec in enumerate(d["merges"]):
            k = dg.levels[m].n_atoms
            if typed(rec["level"], int, "level") != k:
                raise InputError(f"merge {m} is at level {k}, "
                                 f"its record says {rec['level']}")
        heights = tuple(numbers(d["heights"], "heights"))
        if heights != dg.heights:
            raise InputError(f"dendrogram heights {list(heights)} are not "
                             f"its merge heights {list(dg.heights)}")
        return dg


def dissimilarity(atom_i: ExpertAtom, atom_j: ExpertAtom) -> float:
    """Rate-weighted dissimilarity between two atoms.

    The harmonic weight w_i*w_j/(w_i+w_j) multiplies a squared distance on
    the fast-rate block (omega1, b) plus an unsquared distance on the
    slow-rate block (a, sigma).  Zero iff (omega1, a, b, sigma) coincide.
    """
    if atom_i.dim != atom_j.dim:
        raise InputError("atoms must share the covariate dimension")
    # harmonic mean of the weights computed in log space
    log_pref = atom_i.omega0 + atom_j.omega0 - np.logaddexp(
        atom_i.omega0, atom_j.omega0)
    fast = float(np.sum((atom_i.omega1 - atom_j.omega1) ** 2)
                 + (atom_i.b - atom_j.b) ** 2)
    slow = float(np.sqrt(np.sum((atom_i.a - atom_j.a) ** 2)
                         + (atom_i.sigma - atom_j.sigma) ** 2))
    try:
        pref = math.exp(float(log_pref))
    except OverflowError as exc:
        raise NumericError(
            "dissimilarity overflows: both gating biases too large") from exc
    value = pref * (fast + slow)
    if not math.isfinite(value):
        raise NumericError(
            "dissimilarity overflows: both gating biases too large")
    return value


def merge_pair(atom_i: ExpertAtom, atom_j: ExpertAtom) -> ExpertAtom:
    """Merge two atoms into one, conserving the weighted moment sums.

    The merged omega0 is the log-sum of weights; (omega1, b) are
    weight-averaged; a picks up the cross-moment correction
    (omega1 - omega1*)(b - b*) and sigma the spread (b - b*)^2, which is
    what makes sum w*(b^2 + sigma) and sum w*(omega1*b + a) exact invariants.
    """
    if atom_i.dim != atom_j.dim:
        raise InputError("atoms must share the covariate dimension")
    omega0 = float(np.logaddexp(atom_i.omega0, atom_j.omega0))
    wi = float(np.exp(atom_i.omega0 - omega0))
    wj = float(np.exp(atom_j.omega0 - omega0))
    omega1 = wi * atom_i.omega1 + wj * atom_j.omega1
    b = wi * atom_i.b + wj * atom_j.b
    a = (wi * ((atom_i.omega1 - omega1) * (atom_i.b - b) + atom_i.a)
         + wj * ((atom_j.omega1 - omega1) * (atom_j.b - b) + atom_j.a))
    sigma = (wi * ((atom_i.b - b) ** 2 + atom_i.sigma)
             + wj * ((atom_j.b - b) ** 2 + atom_j.sigma))
    return ExpertAtom(omega0=omega0, omega1=omega1, a=a, b=b, sigma=sigma)


def _argmin_pair(measure: MixingMeasure) -> tuple[int, int, float]:
    # strict < keeps the lexicographically smallest pair on ties
    best = None
    k = measure.n_atoms
    for i in range(k):
        for j in range(i + 1, k):
            d = dissimilarity(measure.atoms[i], measure.atoms[j])
            if best is None or d < best[2]:
                best = (i, j, d)
    return best


def merge_step(measure: MixingMeasure) -> tuple[MixingMeasure, MergeRecord]:
    """Merge the closest pair; the merged atom takes the smaller index's slot."""
    k = measure.n_atoms
    if k < 2:
        raise InputError("merge_step needs at least two atoms")
    i, j, height = _argmin_pair(measure)
    merged = merge_pair(measure.atoms[i], measure.atoms[j])
    atoms = list(measure.atoms)
    atoms[i] = merged
    del atoms[j]
    return (MixingMeasure(atoms=tuple(atoms), dim=measure.dim),
            MergeRecord(pair=(i, j), height=height))


def build_path(measure: MixingMeasure) -> Dendrogram:
    """Full aggregation path from K atoms down to a single atom."""
    levels = [measure]
    merges: list[MergeRecord] = []
    current = measure
    while current.n_atoms > 1:
        current, record = merge_step(current)
        levels.append(current)
        merges.append(record)
    return Dendrogram(levels=tuple(levels), merges=tuple(merges))
