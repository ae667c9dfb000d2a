r"""Wave operators, dressing transport, and the long-time dressing probe.

For regular and type I sources the interacting dynamics converges to the
free one after dressing: the Moller maps exist, coincide for t -> +-oo, and
the scattering operator is the identity.  On exponential elements the
asymptotic (dressed) element is

    W^as_h(f) = W_h(f) exp(2 pi i Re <f, J/omega>_0),

and on states the transport is the phase-space shift by J/omega.  The rate
of convergence is controlled by the free-evolution overlap

    ov(t) = <f, e^{i t omega} J/omega>_0,

which decays as t -> oo by stationary phase; the deviation of the evolved
element from its asymptote is |e^{-2 pi i Re ov(t)} - 1| <= 2 pi |ov(t)|.

Plain node sums alias once t exceeds the panel resolution, so for |t| above
a small threshold the overlap integral is evaluated by a Filon-type rule:
per quadrature panel the non-oscillatory amplitude is fitted in the
dispersion variable u = omega(r) by a Legendre series (least squares on the
panel samples), and int P_k(x) e^{i theta x} dx = 2 i^k j_k(theta) supplies
the oscillatory moments exactly (spherical Bessel j_k); see Iserles and
Norsett, Proc. R. Soc. A 461 (2005).  The fit is t-free, so a whole ladder of
times costs one fit plus trivial per-t sums: ``convergence_probe`` takes the
ladder and makes one ``free_overlap`` call; |ov(t)| on it is the decay curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import spherical_jn

from .grid import MomentumGrid, RadialFunction, inner_product
from .states import CharState, dirac
from .weyl import TrigPolynomial, weyl

__all__ = [
    "FILON_THRESHOLD",
    "FILON_DEGREE",
    "asymptotic_character",
    "dressing_coefficient",
    "flat_panels",
    "free_overlap",
    "ConvergenceReport",
    "convergence_probe",
    "transport_state",
    "round_trip_tolerance",
]

#: Above this |t| the overlap switches from the plain node sum to Filon.
FILON_THRESHOLD = 32.0

#: Degree of the per-panel Legendre fit; Filon needs more points per panel.
FILON_DEGREE = 16

#: Unit round-off of float64.
_UNIT_ROUNDOFF = 2.0**-53


def dressing_coefficient(sys, f: RadialFunction) -> complex:
    """exp(2 pi i Re <f, J/omega>_0), the asymptotic dressing phase: the
    characteristic value of the point mass at J/omega."""
    return dirac(sys.j_over_omega).char(f)


def asymptotic_character(sys, f: RadialFunction, hbar: float) -> TrigPolynomial:
    """The dressed element W_h(f) e^{2 pi i Re <f, J/omega>} (same for +-oo)."""
    return weyl(f, hbar, dressing_coefficient(sys, f))


# --------------------------------------------------------------------------
# resolved overlap <f, e^{i t omega} J/omega>


def flat_panels(edges: np.ndarray, mass: float) -> np.ndarray:
    """Indices of the panels on which u = hypot(r, mass) does not grow from the
    lower to the upper edge in floating point (r far below the mass), so the
    Filon fit cannot map the panel onto u."""
    u_edges = np.hypot(edges, mass)
    return np.flatnonzero(u_edges[1:] <= u_edges[:-1])


def _filon_fit(grid: MomentumGrid, amplitude: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Fit sigma r^{d-1} amp(r) dr = A(u) du per panel, A in Legendre form
    (t-free), then sum the fit's exact oscillatory moments at every t."""
    n_panels = grid.panel_edges.size - 1
    pts = grid.points_per_panel
    if pts <= FILON_DEGREE:
        raise ValueError(
            f"oscillatory quadrature needs more than {FILON_DEGREE} points "
            f"per panel, grid has {pts}"
        )
    flat = flat_panels(grid.panel_edges, grid.mass)
    if flat.size:
        lo, hi = grid.panel_edges[flat[0]], grid.panel_edges[flat[0] + 1]
        raise ValueError(
            f"oscillatory quadrature needs omega = hypot(r, mass) to grow across "
            f"every panel, but it is flat on panel {flat[0]} (r in [{lo:g}, {hi:g}], "
            f"mass {grid.mass:g})"
        )
    r = grid.nodes.reshape(n_panels, pts)
    u = grid.omega.reshape(n_panels, pts)
    u_edges = np.hypot(grid.panel_edges, grid.mass)
    u_lo, u_hi = u_edges[:-1], u_edges[1:]
    u_mid = 0.5 * (u_hi + u_lo)
    u_half = 0.5 * (u_hi - u_lo)
    # du = (r/u) dr, so the u-space amplitude is amp * u / r.
    amp_u = amplitude.reshape(n_panels, pts) * (u / r)
    coeffs = np.empty((n_panels, FILON_DEGREE + 1), dtype=np.complex128)
    for p in range(n_panels):
        x = (u[p] - u_mid[p]) / u_half[p]
        design = np.polynomial.legendre.legvander(x, FILON_DEGREE)
        coeffs[p], *_ = np.linalg.lstsq(design, amp_u[p], rcond=None)
    theta = np.multiply.outer(t, u_half)  # (T, panels)
    acc = np.zeros_like(theta, dtype=np.complex128)
    for k in range(FILON_DEGREE + 1):
        acc += (2.0 * 1j**k) * spherical_jn(k, theta) * coeffs[None, :, k]
    return np.sum(acc * np.exp(1j * np.multiply.outer(t, u_mid)) * u_half[None, :], axis=1)


def free_overlap(sys, f: RadialFunction, t) -> np.ndarray | complex:
    """<f, e^{i t omega} J/omega>_0, resolved at any t.

    Plain quadrature below FILON_THRESHOLD, Filon beyond; at the crossover
    both evaluate the same panel integrals to high accuracy.
    """
    if f.grid is not sys.grid:
        raise ValueError("argument lives on a different grid than the system")
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty(tt.shape, dtype=np.complex128)
    grid = sys.grid
    small = np.abs(tt) <= FILON_THRESHOLD
    if small.any():
        v = grid.measure(0) * np.conj(f.values) * sys.j_over_omega.values
        out[small] = np.exp(1j * np.multiply.outer(tt[small], grid.omega)) @ v
    if (~small).any():
        amplitude = grid.angular_factor * grid.nodes ** (grid.dim - 1) * np.conj(f.values)
        out[~small] = _filon_fit(grid, amplitude * sys.j_over_omega.values, tt[~small])
    return complex(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per time t of the ladder: the overlap ov(t), the coefficient, its distance
    from the dressing coefficient ``target`` and the bound 2 pi |ov(t)|."""

    t: np.ndarray
    overlap: np.ndarray
    coefficient: np.ndarray
    target: complex
    deviation: np.ndarray
    bound: np.ndarray


def convergence_probe(sys, f: RadialFunction, ts) -> ConvergenceReport:
    """Coefficient of tau_t[W_h(e^{-i t omega} f)] against its asymptote on a
    ladder of times, from one ``free_overlap`` call (one Filon fit).

    The exact coefficient is exp(2 pi i (Re <f, J/omega> - Re ov(t))), at
    every hbar; its distance from the dressing coefficient is <= 2 pi |ov(t)|.
    """
    t = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    target = dressing_coefficient(sys, f)
    ov = free_overlap(sys, f, t)
    base_angle = 2.0 * math.pi * inner_product(f, sys.j_over_omega, 0).real
    coeff = np.exp(1j * (base_angle - 2.0 * math.pi * ov.real))
    return ConvergenceReport(
        t=t,
        overlap=ov,
        coefficient=coeff,
        target=target,
        deviation=np.abs(coeff - target),
        bound=2.0 * math.pi * np.abs(ov),
    )


def transport_state(sys, state: CharState, inverse: bool = False) -> CharState:
    """Shift a state by the dressing profile: centre -> centre +- J/omega, so
    char -> char * e^{+-2 pi i Re <f, J/omega>}.

    The forward map is the common value of both Moller transports (they
    coincide), so transport followed by inverse transport is the identity
    and the scattering map on states is trivial.  The Gaussian is untouched.
    """
    if state.grid is not sys.grid:
        raise ValueError("state lives on a different grid than the system")
    jw = sys.j_over_omega
    center = state.center - jw if inverse else state.center + jw
    return replace(state, center=center)


def round_trip_tolerance(sys, state: CharState, panel: Sequence[RadialFunction]) -> float:
    """Round-off bound on |char(p) after transport and back - char(p)|, the
    smallest over ``panel``; first order in the unit round-off u.

    Every state here has scale <= 0 and weight >= 0, so both values are a
    common Gaussian factor in (0, 1] times cis(A) with A = 2 pi Re <p, c>_0,
    and the gap is at most |A - A'| plus 4u for cos, sin and the factor.
    With d = J/omega, c' = fl(fl(c + d) - d) misses c by at most
    u (|c + d|_1 + |c|_1) per node (|z|_1 = |Re z| + |Im z|), which moves A
    by at most 2 pi sum_i m_i |p_i|_1 that much.  Each A is 2 pi times the
    real part of numpy's pairwise sum of the products m conj(p) c: a product
    carries at most 4u m |p|_1 |c|_1 per component, each term meets fewer
    than L = ceil(log2 N) + 12 additions (at most 16 terms per accumulator in
    a block, blocks halved pairwise), and the product with 2 pi adds u |A|,
    so each A is off by at most 2 pi (L + 5) u sum_i m_i |p_i|_1 |c_i|_1.
    """
    c = state.center.values
    moved = c + sys.j_over_omega.values
    depth = math.ceil(math.log2(c.size)) + 12
    per_node = np.abs(moved.real) + np.abs(moved.imag)
    per_node += (2 * depth + 11) * (np.abs(c.real) + np.abs(c.imag))
    p = np.array([f.values for f in panel])
    sums = np.sum(state.grid.measure(0) * (np.abs(p.real) + np.abs(p.imag)) * per_node, axis=1)
    return float(2.0 * math.pi * _UNIT_ROUNDOFF * np.min(sums) + 4.0 * _UNIT_ROUNDOFF)
