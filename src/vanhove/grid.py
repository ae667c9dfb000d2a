r"""Radial momentum grids and weighted inner products.

Everything downstream works with rotation-invariant functions on R^d reduced
to their radial profile f(|k|).  Pairings carry one of four infrared weights,

    <f, g>_alpha = sigma_{d-1} * int_0^oo r^{d-1} omega(r)^alpha conj(f(r)) g(r) dr,

where omega(r) = sqrt(r^2 + mu^2) is the dispersion relation (mass mu >= 0)
and sigma_{d-1} = 2 pi^{d/2} / Gamma(d/2) is the area of the unit sphere.
alpha = 0 is the plain L^2 pairing; alpha = -1, -2 weight the infrared and
alpha = +1 is the quadratic-energy weight.

Quadrature is composite Gauss-Legendre on geometrically spaced panels of
[r_min, r_max], dense near r = 0 so that the singular weights omega^{-1},
omega^{-2} and mildly singular profiles r^{-gamma} are resolved.  Functions
are immutable arrays of complex samples bound to one grid instance; mixing
grids is always an error, never a silent resample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WEIGHT_EXPONENTS",
    "DIM_MAX",
    "MomentumGrid",
    "RadialFunction",
    "make_grid",
    "sample",
    "from_values",
    "zero_function",
    "inner_product",
    "weighted_norm_sq",
    "apply_free_phase",
]

#: Admissible weight exponents alpha in <.,.>_alpha.
WEIGHT_EXPONENTS = (-2, -1, 0, 1)

#: Relative tolerance of the construction-time quadrature self-test.
_CALIBRATION_RTOL = 1e-12


#: Gamma(d/2) for d = 1..16, the floats scipy.special.gamma returns.  A table
#: keeps scipy off the import path; math.gamma and the Gamma(x+1) = x Gamma(x)
#: recurrence each miss some entry (d = 3 among them) by one ulp.
_HALF_GAMMA = (
    1.7724538509055159,
    1.0,
    0.8862269254527579,
    1.0,
    1.329340388179137,
    2.0,
    3.323350970447843,
    6.0,
    11.63172839656745,
    24.0,
    52.34277778455352,
    120.0,
    287.88527781504433,
    720.0,
    1871.2543057977884,
    5040.0,
)

#: Largest dimension make_grid accepts: the last entry of _HALF_GAMMA.
DIM_MAX = len(_HALF_GAMMA)


def sphere_area(dim: int) -> float:
    """Area of the unit sphere S^{d-1} in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    if not 1 <= dim <= DIM_MAX:
        raise ValueError(f"dim must be in 1..{DIM_MAX}, got {dim!r}")
    return 2.0 * math.pi ** (dim / 2.0) / _HALF_GAMMA[dim - 1]


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """Fixed radial quadrature rule; identity (`is`) equality.

    ``nodes``/``weights`` are the flattened composite Gauss-Legendre rule;
    ``panel_edges`` keeps the panel structure (needed by oscillatory
    quadrature downstream).  ``omega`` caches the dispersion on the nodes and
    ``measures`` caches the four weighted measures
    sigma_{d-1} w_i r_i^{d-1} omega_i^alpha indexed by alpha + 2.
    """

    dim: int
    mass: float
    nodes: np.ndarray
    weights: np.ndarray
    angular_factor: float
    panel_edges: np.ndarray
    points_per_panel: int
    omega: np.ndarray
    measures: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def r_min(self) -> float:
        return float(self.panel_edges[0])

    @property
    def r_max(self) -> float:
        return float(self.panel_edges[-1])

    @property
    def size(self) -> int:
        return self.nodes.size

    def measure(self, alpha: int = 0) -> np.ndarray:
        """Quadrature measure sigma w r^{d-1} omega^alpha for one exponent."""
        _check_alpha(alpha)
        return self.measures[alpha + 2]


def make_grid(
    dim: int = 3,
    mass: float = 0.0,
    r_min: float = 1e-6,
    r_max: float = 12.0,
    panels: int = 16,
    points: int = 32,
) -> MomentumGrid:
    """Build a geometric composite Gauss-Legendre grid on [r_min, r_max].

    Panels are geometrically spaced (equal ratios), each carrying a
    ``points``-point Gauss-Legendre rule.  Construction self-tests the rule
    by integrating the constant 1, which must reproduce r_max - r_min to
    relative 1e-12.  ``dim`` runs over 1..DIM_MAX.  A range whose panel edges
    or nodes overflow (r_max/r_min, or two edges' sum, past 1e308) is refused,
    and so is one whose measures sigma w r^(d-1) omega^a (a = -2..1) overflow,
    each by a ValueError and without a numpy warning; the CLI checks its
    grid keys by building the grid.
    """
    if not isinstance(dim, int) or not 1 <= dim <= DIM_MAX:
        raise ValueError(f"dim must be an integer in 1..{DIM_MAX}, got {dim!r}")
    if not 0.0 <= mass < math.inf:
        raise ValueError(f"mass must be finite and >= 0, got {mass}")
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    if panels < 1 or points < 1:
        raise ValueError("panels and points must be >= 1")

    x, w = np.polynomial.legendre.leggauss(points)
    with np.errstate(all="ignore"):  # an overflow is refused by name just below
        edges = r_min * (r_max / r_min) ** (np.arange(panels + 1) / panels)
        edges[0], edges[-1] = r_min, r_max  # kill endpoint roundoff
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    if not np.all(np.isfinite(nodes)):
        raise ValueError(f"the panel edges or nodes of [{r_min}, {r_max}] overflow")
    weights = (half[:, None] * w[None, :]).ravel()

    total = float(weights.sum())
    if abs(total - (r_max - r_min)) > _CALIBRATION_RTOL * (r_max - r_min):
        raise RuntimeError(
            f"quadrature self-calibration failed: sum of weights {total!r} "
            f"vs interval length {r_max - r_min!r}"
        )

    angular = sphere_area(dim)
    with np.errstate(all="ignore"):  # refused by name just below
        omega = np.hypot(nodes, mass)
        base = angular * weights * nodes ** (dim - 1)
        measures = tuple(base * omega ** a for a in WEIGHT_EXPONENTS)
    if not all(np.all(np.isfinite(m)) for m in measures):
        raise ValueError(
            f"the measures sigma w r^(d-1) omega^a of dim={dim}, mass={mass} on "
            f"[{r_min}, {r_max}] overflow"
        )
    for arr in (nodes, weights, edges, omega, *measures):
        arr.setflags(write=False)
    return MomentumGrid(
        dim=dim,
        mass=float(mass),
        nodes=nodes,
        weights=weights,
        angular_factor=angular,
        panel_edges=edges,
        points_per_panel=points,
        omega=omega,
        measures=measures,  # type: ignore[arg-type]
    )


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Immutable complex samples of a radial profile on one grid."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.nodes.shape:
            raise ValueError(
                f"sample count {vals.shape} does not match grid size "
                f"{self.grid.nodes.shape}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("samples must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # Small vector-space surface; everything else goes through module
    # functions so the weighted pairings stay explicit.
    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "RadialFunction") -> "RadialFunction":
        _check_same_grid(self, other)
        return RadialFunction(self.grid, self.values - other.values)

    def __neg__(self) -> "RadialFunction":
        return RadialFunction(self.grid, -self.values)

    def __mul__(self, scalar: complex) -> "RadialFunction":
        return RadialFunction(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__


def sample(grid: MomentumGrid, fn) -> RadialFunction:
    """Sample a callable r -> complex on the grid nodes."""
    return RadialFunction(grid, np.asarray(fn(grid.nodes), dtype=np.complex128))


def from_values(grid: MomentumGrid, values) -> RadialFunction:
    """Wrap an explicit sample array (copied, validated)."""
    return RadialFunction(grid, values)


def zero_function(grid: MomentumGrid) -> RadialFunction:
    return RadialFunction(grid, np.zeros(grid.size, dtype=np.complex128))


def _check_alpha(alpha: int) -> None:
    if alpha not in WEIGHT_EXPONENTS:
        raise ValueError(
            f"weight exponent must be one of {WEIGHT_EXPONENTS}, got {alpha!r}"
        )


def _check_same_grid(f: RadialFunction, g: RadialFunction) -> None:
    if f.grid is not g.grid:
        raise ValueError(
            "functions live on different grids; rebuild them on a shared grid"
        )


def inner_product(f: RadialFunction, g: RadialFunction, alpha: int = 0) -> complex:
    """Weighted pairing <f, g>_alpha (antilinear in f, linear in g)."""
    _check_same_grid(f, g)
    m = f.grid.measure(alpha)
    return complex(np.sum(m * np.conj(f.values) * g.values))


def weighted_norm_sq(f: RadialFunction, alpha: int = 0) -> float:
    """<f, f>_alpha, returned as a real number."""
    m = f.grid.measure(alpha)
    return float(np.sum(m * (f.values.real**2 + f.values.imag**2)))


def apply_free_phase(f: RadialFunction, t: float) -> RadialFunction:
    """Multiply by the free one-particle phase e^{i t omega(r)}."""
    return RadialFunction(f.grid, f.values * np.exp(1j * t * f.grid.omega))
