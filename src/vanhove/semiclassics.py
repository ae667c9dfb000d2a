r"""Semiclassical sweeps: hbar -> 0 along a ladder, with fitted rates.

Two families of checks, both phrased as sup-deviations of characteristic
values over a fixed panel of test functions:

* Egorov: ``flow_gap`` sees the flow: on the point mass, Heisenberg route and
  flow agree to round-off.
* equilibrium: the quantum Gibbs state at inverse temperature beta_hbar
  converges, depending on how beta_hbar scales against hbar, to the dressed
  point mass (beta_hbar/hbar -> oo: ground-state and sub-linear regimes; the
  ground state's deviation is exactly |e^{-(pi^2 hbar/2)||f||^2} - 1|, rate 1), to
  the classical Gibbs state at beta (beta_hbar = beta hbar, rate 2), or to
  nothing (super-linear: characteristic values vanish, no state survives).
  A regime is one record: beta_hbar = coefficient * hbar^power and the limit
  it tends to; ``GroundState``, ``Linear``, ``SubLinear`` and ``SuperLinear``
  build it and refuse their parameters.

Rates are least-squares slopes of log(deviation) against log(hbar), using
only deviations inside [1e-12, 0.1] (below is arithmetic noise, above is
outside the asymptotic regime) and only when at least 4 ladder points
qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import VanHoveSystem, evolve_state, evolve_weyl
from .grid import MomentumGrid, RadialFunction, sample
from .states import CharState, dirac, evaluate, gibbs_classical, gibbs_quantum
from .weyl import weyl

__all__ = [
    "DEFAULT_HBAR_LADDER",
    "GroundState",
    "Linear",
    "Regime",
    "SubLinear",
    "SuperLinear",
    "SweepReport",
    "default_panel",
    "fit_rate",
    "flow_gap",
    "equilibrium_sweep",
]

#: hbar = 2^{-3} .. 2^{-14}, decreasing.
DEFAULT_HBAR_LADDER = tuple(2.0**-k for k in range(3, 15))

_FIT_LO = 1e-12
_FIT_HI = 1e-1
_MIN_FIT_POINTS = 4

#: Deviations whose maximum stays below this count as converged outright.
_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class Regime:
    """beta_hbar = coefficient * hbar^power, whose Gibbs states tend to
    ``limit``: "point" (the dressed point mass), "classical" (the classical
    Gibbs state at beta = coefficient) or "none" (no state).  The limit is
    named, not read off the power: 1 +- epsilon rounds to 1 for epsilon below
    the float spacing."""

    coefficient: float
    power: float
    limit: str

    def __post_init__(self) -> None:
        if self.limit not in ("point", "classical", "none"):
            raise ValueError(f"a regime's limit is point, classical or none, got {self.limit!r}")

    def beta_hbar(self, hbar: float) -> float:
        """beta_hbar at ``hbar``, refused where it is not > 0 (it underflows)."""
        beta_h = self.coefficient * hbar**self.power
        if not beta_h > 0.0:
            raise ValueError(
                f"beta_hbar = {self.coefficient!r} * hbar^{self.power!r} must be > 0, "
                f"got {beta_h!r} at hbar = {hbar!r}"
            )
        return beta_h


def GroundState() -> Regime:
    """beta_hbar = oo: the dressed ground state at each hbar."""
    return Regime(math.inf, 0.0, "point")


def Linear(beta: float) -> Regime:
    """beta_hbar = beta * hbar: classical Gibbs limit at beta."""
    if not 0.0 < beta < math.inf:
        raise ValueError(f"linear regime needs 0 < beta < inf, got {beta}")
    return Regime(beta, 1.0, "classical")


def SubLinear(coefficient: float = 1.0, epsilon: float = 0.5) -> Regime:
    """beta_hbar = c * hbar^{1-epsilon}, 0 < epsilon <= 1: dressed point mass."""
    if not 0.0 < coefficient < math.inf:
        raise ValueError(f"sub-linear regime needs 0 < coefficient < inf, got {coefficient}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"sub-linear regime needs 0 < epsilon <= 1, got {epsilon}")
    return Regime(coefficient, 1.0 - epsilon, "point")


def SuperLinear(coefficient: float = 1.0, epsilon: float = 0.5) -> Regime:
    """beta_hbar = c * hbar^{1+epsilon}: no limiting state (chars vanish)."""
    if not 0.0 < coefficient < math.inf:
        raise ValueError(f"super-linear regime needs 0 < coefficient < inf, got {coefficient}")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"super-linear regime needs 0 < epsilon < inf, got {epsilon}")
    return Regime(coefficient, 1.0 + epsilon, "none")


@dataclass(frozen=True)
class SweepReport:
    hbar_values: tuple[float, ...]
    deviations: tuple[float, ...]
    fitted_order: float | None
    verdict: str

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def default_panel(grid: MomentumGrid) -> list[RadialFunction]:
    """Eight Gaussians e^{-sigma r^2}, sigma in {1/2, 1, 2, 4}, real and
    imaginary copies; a small frame of infrared-regular test functions."""
    panel: list[RadialFunction] = []
    for sigma in (0.5, 1.0, 2.0, 4.0):
        f = sample(grid, lambda r, s=sigma: np.exp(-s * r**2))
        panel.append(f)
        panel.append(1j * f)
    return panel


def fit_rate(hbars: Sequence[float], deviations: Sequence[float]) -> float:
    """Log-log slope of deviation against hbar on the trusted window."""
    h = np.asarray(hbars, dtype=np.float64)
    d = np.asarray(deviations, dtype=np.float64)
    keep = (d >= _FIT_LO) & (d <= _FIT_HI)
    if keep.sum() < _MIN_FIT_POINTS:
        raise ValueError(
            f"only {int(keep.sum())} deviations inside [{_FIT_LO:g}, {_FIT_HI:g}]; "
            f"need {_MIN_FIT_POINTS} for a rate fit"
        )
    return float(np.polyfit(np.log(h[keep]), np.log(d[keep]), 1)[0])


def _check_ladder(hbars: Sequence[float]) -> tuple[float, ...]:
    hs = tuple(float(h) for h in hbars)
    if len(hs) < 2 or not all(0.0 < b < a < math.inf for a, b in zip(hs, hs[1:])):
        raise ValueError("hbar ladder must be strictly decreasing, finite and positive")
    return hs


def _sup_deviation(
    state: CharState, limit: np.ndarray | float, panel: Sequence[RadialFunction]
) -> float:
    """sup over the panel of |state.char - limit|, the limit's values given."""
    return float(np.max(np.abs(state.chars(panel) - limit)))


def _report(hbars: tuple[float, ...], devs: list[float]) -> SweepReport:
    try:
        order = fit_rate(hbars, devs)
    except ValueError:
        order = None
    top = max(devs)
    converged = top <= _NOISE_FLOOR or devs[-1] <= 1e-2 * top
    return SweepReport(
        hbar_values=hbars,
        deviations=tuple(devs),
        fitted_order=order,
        verdict="converged" if converged else "diverged",
    )


def flow_gap(
    sys: VanHoveSystem, center: RadialFunction, panel: Sequence[RadialFunction], t: float
) -> float:
    """max over the panel of |evaluate(dirac(c), evolve_weyl(sys, weyl(f, 0), t))
    - evolve_state(sys, dirac(c), t).char(f)|: the Heisenberg route against the
    flow, which share only the phase e^{i t omega}, for c = ``center``."""
    point = dirac(center)
    heisenberg = np.array([evaluate(point, evolve_weyl(sys, weyl(f, 0.0), t)) for f in panel])
    return _sup_deviation(evolve_state(sys, point, t), heisenberg, panel)


def equilibrium_sweep(
    sys: VanHoveSystem,
    regime: Regime,
    panel: Sequence[RadialFunction],
    hbars: Sequence[float] = DEFAULT_HBAR_LADDER,
) -> SweepReport:
    """Quantum Gibbs states along regime.beta_hbar against their limit."""
    hs = _check_ladder(hbars)
    if regime.limit == "classical":
        limit = gibbs_classical(sys.source, regime.coefficient).chars(panel)
    elif regime.limit == "point":
        limit = dirac(-sys.j_over_omega).chars(panel)
    else:
        limit = 0.0  # no limit state: the values themselves must vanish
    states = (gibbs_quantum(sys.source, regime.beta_hbar(h), h) for h in hs)
    return _report(hs, [_sup_deviation(state, limit, panel) for state in states])
