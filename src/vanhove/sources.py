r"""Source profiles and their infrared classification.

The model is driven by a radial source J(r), from the one family

    J_gamma(r) = r^{-gamma} e^{-r^2},

optionally with a sharp infrared cutoff J_n = J * 1_{r >= 1/n}.  What the
model does at low momentum is governed entirely by which weighted spaces J
belongs to; for the power family in d dimensions (massless dispersion) the
exact thresholds are

    regular      gamma < (d-2)/2   (J/omega is square-integrable),
    type I       (d-2)/2 <= gamma < (d-1)/2   (J/omega fails, J/omega^{1/2}... ),
    type II      (d-1)/2 <= gamma < d/2,
    out of scope gamma >= d/2      (J itself not square-integrable).

Equivalently: regular means ||J||_{-2} < oo, type I means ||J||_{-1} < oo
but ||J||_{-2} = oo, type II means ||J||_{-1} = oo but ||J||_0 < oo.

``numeric_classification`` estimates the same trichotomy from grid data
alone by fitting log-log slopes of per-panel infrared shell masses; on
geometric panels Gauss-Legendre integrates the power family essentially
exactly, so the fitted slope of the shell mass against the shell position is
d - alpha - 2 gamma, and the mass diverges iff that slope is <= 0.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import MomentumGrid, RadialFunction, from_values

__all__ = [
    "InfraredClass",
    "SourceSpec",
    "NumericClassification",
    "power_law_gaussian",
    "realize",
    "classify_analytic",
    "numeric_classification",
]

#: A fitted shell slope above this margin counts as convergent; at the exact
#: threshold the shell mass is flat (slope 0, logarithmic divergence), which
#: must classify as divergent, hence the strictly positive margin.
_DIVERGENCE_MARGIN = 1e-2

#: Coarse reporting threshold: a divergence slope at or above this is quoted
#: as "clearly divergent" in reports.
SLOPE_TOL = 0.1

#: Shells used for the infrared fit are the grid panels contained in
#: [10 * r_min, _SHELL_CEILING]; the ceiling keeps the smooth ultraviolet
#: envelope (e^{-r^2} and friends) from biasing the fitted power.
_SHELL_CEILING = 5e-2
_MIN_SHELLS = 4


class InfraredClass(enum.Enum):
    REGULAR = "regular"
    TYPE_I = "type_i"
    TYPE_II = "type_ii"
    OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """The power-family source r^{-gamma} e^{-r^2} on a grid; realize() turns
    it into samples, which must be finite (r^{-gamma} must not overflow).

    ``ir_cutoff`` n (if set) zeroes the profile below r = 1/n.
    """

    grid: MomentumGrid
    gamma: float = 0.0
    ir_cutoff: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.ir_cutoff is not None:
            if not isinstance(self.ir_cutoff, int) or self.ir_cutoff < 1:
                raise ValueError(f"ir_cutoff must be a positive integer, got {self.ir_cutoff!r}")
        r = self.grid.nodes
        if self.ir_cutoff is not None:
            r = r[r >= 1.0 / self.ir_cutoff]
        elif self.gamma >= self.grid.dim / 2.0:
            return  # out of scope: realize refuses it before any sample
        with np.errstate(over="ignore"):
            if not np.isfinite(r ** (-self.gamma)).all():
                raise ValueError(f"r^-gamma overflows on the grid nodes at gamma = {self.gamma}")


def power_law_gaussian(grid: MomentumGrid, gamma: float, ir_cutoff: int | None = None) -> SourceSpec:
    """r^{-gamma} e^{-r^2}, the workhorse family of the trichotomy."""
    return SourceSpec(grid=grid, gamma=float(gamma), ir_cutoff=ir_cutoff)


def realize(spec: SourceSpec) -> RadialFunction:
    """Evaluate the source on its grid (cutoff applied as a sharp mask)."""
    r = spec.grid.nodes
    if spec.gamma >= spec.grid.dim / 2.0 and spec.ir_cutoff is None:
        raise ValueError(
            f"gamma = {spec.gamma} >= d/2 = {spec.grid.dim / 2.0} is not "
            "square-integrable without an infrared cutoff"
        )
    vals = r ** (-spec.gamma) * np.exp(-(r**2)) + 0j
    if spec.ir_cutoff is not None:
        vals = np.where(r < 1.0 / spec.ir_cutoff, 0.0, vals)
    return from_values(spec.grid, vals)


def classify_analytic(spec: SourceSpec) -> InfraredClass:
    """Exact trichotomy for the power family from the known thresholds.

    A positive dispersion mass makes every infrared weight bounded, so any
    square-integrable member is regular (a warning notes the collapse).  An
    active cutoff likewise puts the realized source in every weighted space.
    """
    d = spec.grid.dim
    gamma = spec.gamma
    if gamma >= d / 2.0 and spec.ir_cutoff is None:
        return InfraredClass.OUT_OF_SCOPE
    if spec.grid.mass > 0.0:
        warnings.warn(
            "massive dispersion: all infrared weights are equivalent, "
            "classifying as regular",
            stacklevel=2,
        )
        return InfraredClass.REGULAR
    if spec.ir_cutoff is not None:
        return InfraredClass.REGULAR
    if gamma >= (d - 1) / 2.0:
        return InfraredClass.TYPE_II
    if gamma >= (d - 2) / 2.0:
        return InfraredClass.TYPE_I
    return InfraredClass.REGULAR


@dataclass(frozen=True)
class NumericClassification:
    """Shell-mass slope evidence behind a numeric classification.

    ``divergence_slopes`` maps the weight exponent alpha in {0, 1, 2} (the
    weight is omega^{-alpha}) to the fitted growth exponent of the infrared
    mass m(eps) = ||1_{r >= eps} J||^2_{omega^{-alpha}} against 1/eps; the
    mass diverges iff the slope exceeds -_DIVERGENCE_MARGIN.  Slopes are
    None when the source vanishes on the fit shells (cutoff active), in
    which case every mass is trivially finite.
    """

    infrared_class: InfraredClass
    divergence_slopes: dict[int, float | None]
    clearly_divergent: dict[int, bool]


def numeric_classification(spec: SourceSpec) -> NumericClassification:
    """Estimate the trichotomy from shell masses on the grid itself: per-panel
    masses of |J|^2 with weight omega^{-alpha} on the infrared fit shells."""
    grid = spec.grid
    lo, hi = grid.panel_edges[:-1], grid.panel_edges[1:]
    keep = (lo >= 10.0 * grid.r_min) & (hi <= _SHELL_CEILING)
    if np.count_nonzero(keep) < _MIN_SHELLS:
        raise ValueError(
            "grid resolves too few infrared shells for a slope fit; "
            "use a grid with more (or deeper) panels"
        )
    mids = np.sqrt(lo[keep] * hi[keep])
    j = realize(spec).values
    j_sq = j.real**2 + j.imag**2
    slopes: dict[int, float | None] = {}
    divergent: dict[int, bool] = {}
    for alpha in (0, 1, 2):
        per_panel = (grid.measure(-alpha) * j_sq).reshape(-1, grid.points_per_panel).sum(axis=1)
        masses = per_panel[keep]
        if np.any(masses <= 0.0):
            # The source vanishes somewhere below the fit ceiling (an active
            # cutoff): every infrared mass is finite.
            slopes[alpha] = None
            divergent[alpha] = False
            continue
        shell_slope = float(np.polyfit(np.log(mids), np.log(masses), 1)[0])
        slopes[alpha] = -shell_slope  # growth of m(eps) against 1/eps
        divergent[alpha] = shell_slope <= _DIVERGENCE_MARGIN
    if divergent[0]:
        cls = InfraredClass.OUT_OF_SCOPE
    elif divergent[1]:
        cls = InfraredClass.TYPE_II
    elif divergent[2]:
        cls = InfraredClass.TYPE_I
    else:
        cls = InfraredClass.REGULAR
    clearly = {a: (slopes[a] is not None and slopes[a] >= SLOPE_TOL) for a in slopes}
    return NumericClassification(
        infrared_class=cls,
        divergence_slopes=slopes,
        clearly_divergent=clearly,
    )
