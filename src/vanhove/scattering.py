r"""Wave operators, dressing transport, and the long-time dressing probe.

For regular and type I sources the interacting dynamics converges to the
free one after dressing: the Moller maps exist, coincide for t -> +-oo, and
the scattering operator is the identity.  On exponential elements the
asymptotic (dressed) element is

    W^as_h(f) = W_h(f) exp(2 pi i Re <f, J/omega>_0),

and on states the transport is the phase-space shift by J/omega.  The rate
of convergence is controlled by the free-evolution overlap

    ov(t) = <f, e^{i t omega} J/omega>_0,

which decays as t -> oo by stationary phase: tau_t[W_h(e^{-i t omega} f)]
is the asymptotic element times e^{-2 pi i Re ov(t)}, at every hbar, so its
distance from the asymptote is 2 |sin(pi Re ov(t))| <= 2 pi |ov(t)|.

``transport_gap`` holds the transport against the dynamics: tau_t turns
e^{-i t omega} f back into f with the angle 2 pi Re (<f, J/omega>_0 - ov(t)),
so a point mass on tau_t[W_0(e^{-i t omega} f)] (Heisenberg route,
``dynamics.evolve_weyl``) equals the transported point mass on W_0(f) times
e^{-2 pi i Re ov(t)} (transport route) at every t.

Plain node sums alias once t exceeds the panel resolution, so for |t| above
a small threshold the overlap integral is evaluated by a Filon-type rule:
per quadrature panel the non-oscillatory amplitude is fitted in the
dispersion variable u = omega(r) by a Legendre series (least squares on the
panel samples), and int P_k(x) e^{i theta x} dx = 2 i^k j_k(theta) supplies
the oscillatory moments exactly (spherical Bessel j_k); see Iserles and
Norsett, Proc. R. Soc. A 461 (2005).  The fit is t-free, so a whole ladder of
times costs one fit plus trivial per-t sums in one ``free_overlap`` call;
|ov(t)| on it is the decay curve.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import evolve_weyl
from .grid import MomentumGrid, RadialFunction, apply_free_phase
from .states import CharState, dirac, evaluate
from .weyl import weyl

__all__ = [
    "FILON_THRESHOLD",
    "FILON_DEGREE",
    "check_filon_grid",
    "flat_panels",
    "free_overlap",
    "transport_state",
    "transport_gap",
]

#: Above this |t| the overlap switches from the plain node sum to Filon.
FILON_THRESHOLD = 32.0

#: Degree of the per-panel Legendre fit; Filon needs more points per panel.
FILON_DEGREE = 16


# --------------------------------------------------------------------------
# resolved overlap <f, e^{i t omega} J/omega>


def flat_panels(edges: np.ndarray, mass: float) -> np.ndarray:
    """Indices of the panels on which u = hypot(r, mass) does not grow from the
    lower to the upper edge in floating point (r far below the mass), so the
    Filon fit cannot map the panel onto u."""
    u_edges = np.hypot(edges, mass)
    return np.flatnonzero(u_edges[1:] <= u_edges[:-1])


def check_filon_grid(grid: MomentumGrid) -> None:
    """Refuse, by a ValueError, a grid the Filon rule cannot fit: at most
    FILON_DEGREE points per panel, or a panel on which omega is flat."""
    if grid.points_per_panel <= FILON_DEGREE:
        raise ValueError(
            f"oscillatory quadrature needs more than {FILON_DEGREE} points "
            f"per panel, grid has {grid.points_per_panel}"
        )
    flat = flat_panels(grid.panel_edges, grid.mass)
    if flat.size:
        lo, hi = grid.panel_edges[flat[0]], grid.panel_edges[flat[0] + 1]
        raise ValueError(
            f"oscillatory quadrature needs omega = hypot(r, mass) to grow across "
            f"every panel, but it is flat on panel {flat[0]} (r in [{lo:g}, {hi:g}], "
            f"mass {grid.mass:g})"
        )


def _filon_fit(grid: MomentumGrid, amplitude: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Fit sigma r^{d-1} amp(r) dr = A(u) du per panel, A in Legendre form
    (t-free), then sum the fit's exact oscillatory moments at every t."""
    check_filon_grid(grid)
    n_panels = grid.panel_edges.size - 1
    pts = grid.points_per_panel
    # imported on first use, as fock does with scipy.linalg: every other
    # command then starts without loading scipy
    from scipy.special import spherical_jn

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


def transport_state(sys, state: CharState) -> CharState:
    """Shift a state by the dressing profile: centre -> centre + J/omega, so
    char -> char * e^{2 pi i Re <f, J/omega>}.

    This is the common value of both Moller transports (they coincide), so
    the scattering map on states is trivial.  The Gaussian is untouched.
    """
    if state.grid is not sys.grid:
        raise ValueError("state lives on a different grid than the system")
    return replace(state, center=state.center + sys.j_over_omega)


def transport_gap(sys, center: RadialFunction, f: RadialFunction, ts) -> float:
    """max over ts of |Heisenberg - transport| for the point mass at ``center``
    (module docstring): round-off for |t| <= FILON_THRESHOLD, where
    ``free_overlap`` takes the node sums ``evolve_weyl`` does; beyond, the
    Filon value differs from them by the aliasing error."""
    point, t = dirac(center), np.atleast_1d(np.asarray(ts, dtype=np.float64))
    ov = free_overlap(sys, f, t)
    moved = transport_state(sys, point).char(f) * np.exp(-2j * math.pi * ov.real)
    incoming = (weyl(apply_free_phase(f, -s), 0.0) for s in t)
    heisenberg = [evaluate(point, evolve_weyl(sys, w, s)) for w, s in zip(incoming, t)]
    return float(np.max(np.abs(np.subtract(heisenberg, moved))))
