r"""Dressed dynamics: classical flow, Heisenberg evolution, KMS and spectral checks.

With dispersion omega and source J, the classical field equation is affine;
its flow and energy are

    Phi_t(alpha) = e^{-i t omega} (alpha + J/omega) - J/omega,
    E(alpha)     = ||alpha||_{+1}^2 + 2 Re <alpha, J>_0
                 = ||alpha + J/omega||_{+1}^2 - ||J||_{-1}^2,

so alpha* = -J/omega is the stationary minimizer with E(alpha*) =
-||J||_{-1}^2, which is also the bottom of the quantum spectrum at every
hbar.  The Heisenberg dynamics acts on exponential elements by

    tau_t[W_h(f)] = W_h(e^{i t omega} f) exp(2 pi i Re <f, (e^{-i t omega} - 1) J/omega>_0),

one phase for all hbar >= 0 (at hbar = 0 this is the flow transposed).

On a uniform time axis linspace(start, stop, count) ``evolve_rows`` gives
E(Phi_t alpha) and omega(tau_t[W_h(f)]) in one loop over chunks of at most
2^13 (time x node) entries (16 rows at N = 512).  A chunk's e^{i t omega}
table is the carrier at its centre time times a comb shared by every full
chunk: O((count / rows + rows) N) exponentials, not count N, each entry within
6 eps (1 + max|t| omega) of np.exp at the linspace time.  The flow takes the
table's conjugate and the Heisenberg route the table itself; they share no
formula, and the Heisenberg one never moves the state.  The scalar compositions
(``classical_energy`` of ``classical_flow``, ``evaluate`` of ``evolve_weyl``)
stay as the reference API.

Two spectral diagnostics close the module.  ``kms_check`` verifies the
thermal boundary condition at a given beta_h: the analytic continuation
t -> t + i beta_h of omega(W(f) tau_t[W(g)]) must equal omega(tau_t[W(g)] W(f)).
Per node, with x = beta_h omega / 2, the right side weighs e^{+-i t omega} by
the state's own covariance, weight -+ m_0 (m_0 (coth(x) -+ 1) for a Gibbs
state), and the left side by the continued Gibbs factors
m_0 (coth(x) + 1) e^{-2x} = 2 m_0/(e^{2x}-1) and m_0 (coth(x) - 1) e^{+2x} =
2 m_0/(1-e^{-2x}), taken through expm1 so nothing cancels at large x.  The sides
share their Gaussian diagonal and centre phase, so only the cross terms
differ, and the condition reads as the defect
max_t |cross_lhs - cross_rhs| / max_t |cross_rhs|: relative, free of hbar, and
so unmoved when the values themselves underflow.  A batch of (f, g) pairs
shares the phase matrix and the per-node factors, and is taken in blocks of
``kms_block`` pairs: each block stacks its four weighted products per pair into
one (4B, N) matrix, and one matmul against the phase matrix forms every cross
term of the block.

``ground_state_check`` probes the spectral measure of the dressed ground
state omega^oo (the coherent state at -J/omega): the correlation
t -> omega^oo(W(f) tau_t[W(g)]) contains only nonnegative frequencies, so
smearing with a window F(t) = int Fhat(sigma) e^{-i sigma t} d sigma whose
profile is supported in sigma < 0 must annihilate it, while windows over
positive frequencies inside the dispersion range see the one-excitation
mass.  Windows use the standard smooth bump exp(-1/(1-u^2)) scaled to
half-width h, so |F(t)| / F(0) = |B(h t)| / B(0) with B the transform of the
unit bump, and the t-range is that law's closed form t_max = 596 / h + 25: B
stays below 1e-12 of B(0) from 596 on (on the rungs 0, 2, 4, ...; between
them from ~597.7).

Every phase in these sums is e^{-i sigma t} with both axes on uniform panels:
a frequency node is sigma = S_q + d_k (panel mid plus a shared offset), and a
time node is t = A_a + c_b + o_j (an anchor, a comb step of the uniform mid
ladder, and a shared Gauss-Legendre offset).  So every phase table is a
product of small carrier and comb tables, and the sum over frequencies is one
matmul of carriers e^{-i S_q (A_a + c_b)} against the comb-weighted weights
w_qk e^{-i (S_q + d_k) o_j}, closed by the carriers e^{-i d_k (A_a + c_b)}
(``_phase_grid``).  The window transform and the correlation's frequency sum
<f, e^{i t omega} g>_0 both go through it, at O((A + B)(Q + K)) exponentials
instead of one per (time, frequency) pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .grid import (
    MomentumGrid,
    RadialFunction,
    apply_free_phase,
    inner_product,
    weighted_norm_sq,
)
from .sources import SourceSpec
from .states import CharState, _dressed
from .weyl import TrigPolynomial, trig_polynomial, weyl

__all__ = [
    "VanHoveSystem",
    "make_system",
    "classical_flow",
    "classical_energy",
    "ground_energy",
    "evolve_weyl",
    "evolve_state",
    "evolve_rows",
    "KmsWindow",
    "kms_window",
    "window_transform",
    "kms_check",
    "kms_block",
    "GroundStateReport",
    "ground_state_check",
    "WINDOW_TOL",
]

_PI2 = math.pi**2

#: A negative-support window applied to the ground-state correlation must
#: come out below this.
WINDOW_TOL = 1e-6

#: The window transform must drop below this fraction of its peak past t_max.
_WINDOW_DROP = 1e-12


def _cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


@dataclass(frozen=True, eq=False)
class VanHoveSystem:
    """A grid, a realized source, and the cached dressing profile J/omega."""

    grid: MomentumGrid
    source: SourceSpec
    j: RadialFunction
    j_over_omega: RadialFunction


def make_system(source: SourceSpec) -> VanHoveSystem:
    """Build the dressed system: J and the dressed centre -J/omega come from
    one realize in ``states``, and J/omega is the centre's negation.  A
    source that is not regular or type I is refused there (otherwise
    -J/omega leaves the one-particle space and there is no dressing)."""
    j, center = _dressed(source)
    return VanHoveSystem(grid=source.grid, source=source, j=j, j_over_omega=-center)


# --------------------------------------------------------------------------
# classical layer


def classical_flow(sys: VanHoveSystem, alpha: RadialFunction, t: float) -> RadialFunction:
    jw = sys.j_over_omega
    return apply_free_phase(alpha + jw, -t) - jw


def classical_energy(sys: VanHoveSystem, alpha: RadialFunction) -> float:
    return weighted_norm_sq(alpha, 1) + 2.0 * inner_product(alpha, sys.j, 0).real


def ground_energy(sys: VanHoveSystem) -> float:
    """min E = E(-J/omega) = -||J||_{-1}^2; also inf spec of every H_hbar."""
    return -weighted_norm_sq(sys.j, -1)


#: Entries of one (time, node) phase table in ``evolve_rows`` (128 KB of
#: complex128, 16 rows at N = 512): larger chunks run no faster and only raise
#: the peak memory.
_ROW_CHUNK = 1 << 13


# --------------------------------------------------------------------------
# Heisenberg / Schroedinger evolution


def evolve_weyl(sys: VanHoveSystem, a: TrigPolynomial, t: float) -> TrigPolynomial:
    """Heisenberg evolution of every row at once (exact closed form): the
    coefficient of W(f) picks up the dressing angle
    2 pi Re <f, (e^{-i t omega} - 1) J/omega>_0 and f turns to e^{i t omega} f."""
    if a.grid is not sys.grid:
        raise ValueError("polynomial lives on a different grid than the system")
    grid = sys.grid
    shifted = (np.exp(-1j * t * grid.omega) - 1.0) * sys.j_over_omega.values
    dots = np.sum(grid.measure(0) * np.conj(a.gens) * shifted, axis=1).real
    phases = np.exp(1j * (2.0 * math.pi * dots))
    return trig_polynomial(grid, a.hbar, a.coeffs * phases, a.gens * np.exp(1j * t * grid.omega))


def evolve_state(sys: VanHoveSystem, state: CharState, t: float) -> CharState:
    """Schroedinger picture, the transpose of evolve_weyl: the centre follows
    the classical flow and the Gaussian stays (|e^{i t omega} f| = |f|)."""
    if state.grid is not sys.grid:
        raise ValueError("state lives on a different grid than the system")
    return replace(state, center=classical_flow(sys, state.center, t))


def _phase_rows(start: float, stop: float, count: int, omega: np.ndarray):
    """(slice, e^{i t omega} rows) per chunk of t = linspace(start, stop, count):
    the carrier e^{i a omega} at the chunk's centre time a times the comb
    e^{i c omega}, c = step (b - mid), built once (and for a short last chunk)."""
    rows = max(1, _ROW_CHUNK // omega.size)
    step = (stop - start) / max(count - 1, 1)
    for first in range(0, count, rows):
        n = min(rows, count - first)
        mid = 0.5 * (n - 1)
        if first == 0 or n < rows:
            comb = np.exp(1j * np.multiply.outer(step * (np.arange(n) - mid), omega))
        yield slice(first, first + n), np.exp(1j * ((start + step * (first + mid)) * omega)) * comb


def evolve_rows(
    sys: VanHoveSystem, alpha: RadialFunction, state: CharState, f: RadialFunction,
    start: float, stop: float, count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """E(Phi_t alpha) and state(tau_t[W_h(f)]), h = state.hbar, at every t of
    linspace(start, stop, count): classical_energy(sys, classical_flow(sys,
    alpha, t)) and evaluate(state, evolve_weyl(sys, weyl(f, h), t)), their
    phases e^{i t omega} taken from ``_phase_rows`` within 6 eps (1 + T omega),
    T = max(|start|, |stop|).  The state is never moved: this is the
    Heisenberg side of the invariance of a Gibbs state."""
    if state.grid is not sys.grid or f.grid is not sys.grid:
        raise ValueError("state or probe lives on a different grid than the system")
    grid = sys.grid
    jw = sys.j_over_omega.values
    shifted = (alpha + sys.j_over_omega).values
    m0, m1 = grid.measure(0), grid.measure(1)
    probe = weyl(f, state.hbar)
    paired = m0 * np.conj(probe.gens[0])
    energies = np.empty(count)
    chars = np.empty(count, dtype=np.complex128)
    for part, phase in _phase_rows(start, stop, count, grid.omega):
        back = np.conj(phase)
        flowed = shifted * back - jw
        if not np.isfinite(flowed.view(np.float64)).all():
            raise ValueError("samples must be finite")
        norms = np.sum(m1 * (flowed.real**2 + flowed.imag**2), axis=1)
        energies[part] = norms + 2.0 * np.sum(m0 * np.conj(flowed) * sys.j.values, axis=1).real
        dots = np.sum(paired * ((back - 1.0) * jw), axis=1).real
        coeffs = probe.coeffs * np.exp(1j * (2.0 * math.pi * dots))
        rotated = probe.gens[0] * phase
        rotated += 0.0  # as trig_polynomial stores a generator: -0.0 as +0.0
        # evaluate's sum over the one term (which turns -0.0 into +0.0)
        chars[part] = np.sum((coeffs * state._row_chars(rotated))[:, None], axis=1)
    return energies, chars


# --------------------------------------------------------------------------
# KMS boundary condition


@dataclass(frozen=True, eq=False)
class KmsWindow:
    """Smooth frequency window: profile exp(-1/(1-u^2)) scaled to
    [s_minus, s_plus], realized as a panelized quadrature rule, together
    with the time range past which its transform is negligible: the scale
    law |F(t)| / F(0) = |B(h t)| / B(0) of a window of half-width h, with B
    the unit bump's transform, gives t_max = 596 / h + 25 by default.

    The panels are uniform, so every node is (mid of its panel) + (one of a
    shared set of offsets).  That splits e^{-i sigma t} into a per-panel
    carrier times a panel-independent comb, which is what lets the
    transform stay accurate (and cheap) out to t in the hundreds where a
    single global rule would only return aliasing noise.  The time axis is
    split the same way (anchor, comb step and offset of a uniform ladder), so
    F on a ladder costs two small exponential tables per axis and one matmul.
    Narrow windows far from sigma = 0 keep |F| past t_max only at a floor of
    ~1e-12 of the peak, the rounding of the nodes, panel widths and sigma t.
    """

    s_minus: float
    s_plus: float
    t_max: float
    sigma_mids: np.ndarray  # (panels,)
    sigma_offsets: np.ndarray  # (order,)
    sigma_weights: np.ndarray  # (panels, order): profile times scaled GL weight

    @property
    def peak(self) -> float:
        """F(0) = integral of the profile (positive)."""
        return float(self.sigma_weights.sum())

    @property
    def sigma_nodes(self) -> np.ndarray:
        return (self.sigma_mids[:, None] + self.sigma_offsets[None, :]).ravel()


_WINDOW_GL = 16  # quadrature order per sigma panel
_WINDOW_PANELS_MIN = 32  # fewest sigma panels a window rule takes: 512 nodes
_THETA_MAX = 6.0  # largest phase (radians) a panel half-width may sweep


#: Entries of one phase table chunk (1 MB of complex128).
_CHUNK = 1 << 16

_ZERO = np.zeros(1)


def _ladder(start: float, step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform ladder start + n step, n < count, as anchor + comb: ceil(sqrt(count))
    comb steps and enough anchors to cover the ladder (the last anchor's row may
    run past it, so callers keep the first ``count`` points)."""
    width = math.isqrt(count - 1) + 1
    return start + (step * width) * np.arange(-(-count // width)), step * np.arange(width)


def _cis_ladder(anchors: np.ndarray, teeth: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """e^{-i f (a + c)} for every anchor a, comb step c (anchor-major rows) and
    frequency f: the carriers e^{-i f a} times the comb table teeth = e^{-i f c}."""
    carrier = np.exp(-1j * np.multiply.outer(anchors, freqs))
    return (carrier[:, None, :] * teeth[None, :, :]).reshape(-1, freqs.size)


def _phase_grid(
    mids: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray,
    t_anchors: np.ndarray,
    t_comb: np.ndarray,
    t_offsets: np.ndarray,
) -> np.ndarray:
    """sum_{q,k} weights[q, k] e^{-i (mids[q] + offsets[k]) t} at every
    t = t_anchors[a] + t_comb[b] + t_offsets[j], as rows a * len(t_comb) + b and
    columns j.

    The per-offset phases go into a (Q, J*K) comb-weighted weight matrix once;
    each chunk of anchors then costs one (rows, Q) @ (Q, J*K) matmul and one
    (rows, K) carrier contraction."""
    n_q, n_k = weights.shape
    nodes = mids[:, None, None] + offsets[None, None, :]
    combed = (weights[:, None, :] * np.exp(-1j * nodes * t_offsets[:, None])).reshape(n_q, -1)
    teeth_q = np.exp(-1j * np.multiply.outer(t_comb, mids))
    teeth_k = np.exp(-1j * np.multiply.outer(t_comb, offsets))
    rows = t_comb.size
    out = np.empty((t_anchors.size * rows, t_offsets.size), dtype=np.complex128)
    per_chunk = max(1, _CHUNK // (rows * max(n_q, combed.shape[1])))
    for start in range(0, t_anchors.size, per_chunk):
        anchors = t_anchors[start : start + per_chunk]
        summed = (_cis_ladder(anchors, teeth_q, mids) @ combed).reshape(-1, t_offsets.size, n_k)
        out[start * rows : (start + anchors.size) * rows] = np.einsum(
            "pjk,pk->pj", summed, _cis_ladder(anchors, teeth_k, offsets)
        )
    return out


def window_transform(window: KmsWindow, t) -> np.ndarray | complex:
    """F(t) = int Fhat(sigma) e^{-i sigma t} d sigma on the window rule."""
    tt = np.atleast_1d(np.asarray(t, dtype=np.float64)).ravel()
    out = _phase_grid(
        window.sigma_mids, window.sigma_offsets, window.sigma_weights, tt, _ZERO, _ZERO
    )[:, 0]
    if np.isscalar(t):
        return complex(out[0])
    return out.reshape(np.shape(t))


def _sigma_rule(
    s_minus: float, s_plus: float, panels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edges = np.linspace(s_minus, s_plus, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = (s_plus - s_minus) / (2 * panels)  # not from two rounded edges
    x, w = np.polynomial.legendre.leggauss(_WINDOW_GL)
    offsets = half * x
    nodes = mids[:, None] + offsets[None, :]
    u = (2.0 * nodes - (s_plus + s_minus)) / (s_plus - s_minus)
    with np.errstate(divide="ignore"):  # nodes rounded onto u = +-1 weigh exp(-inf) = 0
        weights = half * w[None, :] * np.exp(-1.0 / (1.0 - u**2))
    for arr in (mids, offsets, weights):
        arr.setflags(write=False)
    return mids, offsets, weights


def _window_panels(s_minus: float, s_plus: float, t_max: float) -> int:
    half_width = 0.5 * (s_plus - s_minus)
    return max(_WINDOW_PANELS_MIN, math.ceil(1.1 * t_max * half_width / _THETA_MAX))


#: |F(t)| / F(0) = |B(h t)| / B(0) at half-width h, B the unit bump's transform:
#: |B| stays below _WINDOW_DROP of B(0) from 596 on the rungs 0, 2, 4, ... (from
#: ~597.7 between them, inside the margin of 25 for every h >= 0.068).
_DECAY_K = 596.0
_BUMP_INTEGRAL = 0.44399381616808  # B(0)


def kms_window(s_minus: float, s_plus: float, t_max: float | None = None) -> KmsWindow:
    """The window on [s_minus, s_plus], its rule resolved to ``t_max``, by
    default the scale law's t_max = 596 / h + 25.  Refuses a window too narrow
    for t_max <= 5000, and a rule that misses its integral h B(0) by more than
    make_grid's 1e-12 (at 1e15, where rounding flattens the nodes onto the
    profile's zero ends)."""
    if not s_minus < s_plus:
        raise ValueError(f"need s_minus < s_plus, got [{s_minus}, {s_plus}]")
    half_width = 0.5 * (s_plus - s_minus)
    if t_max is None:
        t_max = _DECAY_K / half_width + 25.0
        if t_max > 5000.0:
            raise ValueError(
                f"window transform does not decay below {_WINDOW_DROP:g} of its peak "
                f"within t <= 5000: [{s_minus}, {s_plus}] is too narrow"
            )
    mids, offsets, weights = _sigma_rule(s_minus, s_plus, _window_panels(s_minus, s_plus, t_max))
    total, integral = float(weights.sum()), half_width * _BUMP_INTEGRAL
    if not abs(total - integral) <= 1e-12 * integral:
        raise ValueError(
            f"the window rule on [{s_minus}, {s_plus}] integrates its profile to "
            f"{total!r}, not {integral!r}: its nodes and panel widths round"
        )
    return KmsWindow(float(s_minus), float(s_plus), float(t_max), mids, offsets, weights)


#: Entries of one block's (4B, N) weights and of its (t_points, 4B) cross
#: terms in ``kms_check`` (256 KB of complex128 each; B = 8 pairs at N = 512
#: and t_points <= 512).  Larger blocks gain little and hold more: at 201 x 512
#: and one BLAS thread 400 pairs took 58, 48 and 44 ms at B = 4, 8 and 16, and
#: the block's working set (weights, cross terms, pairs) grows with B.
_PAIR_BLOCK = 1 << 14


def kms_block(grid: MomentumGrid, t_points: int) -> int:
    """The pairs ``kms_check`` takes per block on ``grid`` and ``t_points`` times."""
    return max(1, _PAIR_BLOCK // (4 * max(grid.size, t_points)))


def kms_check(
    sys: VanHoveSystem,
    state: CharState,
    beta_h: float,
    pairs: Iterable[tuple[RadialFunction, RadialFunction]],
    t_grid,
) -> np.ndarray:
    """The KMS condition of ``state`` at inverse temperature beta_h: one defect
    max_t |cross_lhs - cross_rhs| / max_t |cross_rhs| per (f, g) pair (0 when
    both vanish).

    LHS: omega(W(f) tau_t[W(g)]) continued to t + i beta_h, from the
    expm1-stable continued Gibbs factors.  RHS: omega(tau_t[W(g)] W(f)) from
    the state's own ``weight``.  Only the Gibbs state at beta_h meets it at
    arithmetic level, at any hbar and any size of the values (~1e-89 at the CLI
    defaults).

    Entry k is bitwise that of ``kms_check(..., beta_h, [pairs[k]], t_grid)``.
    ``pairs`` is consumed one block of ``kms_block(sys.grid, t_points)`` pairs
    at a time, so an iterator may draw each block only when it is checked.
    """
    if not 0.0 < beta_h < math.inf:
        raise ValueError(f"beta_h must be finite and > 0, got {beta_h}")
    if state.grid is not sys.grid:
        raise ValueError("state lives on a different grid than the system")
    grid = sys.grid
    t = np.asarray(t_grid, dtype=np.float64)
    if not t.size:
        raise ValueError("kms_check needs at least one (f, g) pair and one time")
    m = grid.measure(0)
    x = 0.5 * beta_h * grid.omega

    # Continued factors m (c+1)e^{-2x} and m (c-1)e^{+2x} of c = coth(x); past
    # x ~ 355 expm1 overflows and 2m / inf = 0 is the limit wanted there.
    with np.errstate(over="ignore"):
        a_lhs = 2.0 * m / np.expm1(2.0 * x)
    b_lhs = 2.0 * m / (-np.expm1(-2.0 * x))
    # rows a_lhs, b_lhs, a_rhs, b_rhs: the last two from the state's own weight
    factors = np.stack([a_lhs, b_lhs, state.weight - m, state.weight + m])[:, None, :]

    phases = 1j * np.multiply.outer(t, grid.omega)
    np.exp(phases, out=phases)  # in place: the largest array of the check
    defects, pairs, size = [], iter(pairs), kms_block(grid, t.size)
    while block := _block_defects(phases, factors, itertools.islice(pairs, size)):
        defects += block
    if not defects:
        raise ValueError("kms_check needs at least one (f, g) pair and one time")
    return np.array(defects)


def _block_defects(phases: np.ndarray, factors: np.ndarray, block: Iterable) -> list[float]:
    """The defects of one block of (f, g) pairs (none for an empty block): one
    matmul of the (t, N) phases against the (4B, N) stack of ``factors`` times
    each pair's conj(f) g.  The pairs and temporaries go on return, before the
    next block is drawn."""
    # the reversed product conj(g) f is the conjugate of each base
    bases = np.array([np.conj(f.values) * g.values for f, g in block])
    if not bases.size:
        return []
    weighted = (factors * bases).reshape(-1, phases.shape[1])
    lhs_a, lhs_b, rhs_a, rhs_b = np.split(phases @ weighted.T, 4, axis=1)
    cross_lhs = lhs_a + np.conj(lhs_b)
    cross_rhs = rhs_a + np.conj(rhs_b)
    # the Gaussian diagonal and the centre phase are common factors of both
    # sides, so only the cross terms can differ
    worst = np.max(np.abs(cross_lhs - cross_rhs), axis=0).tolist()
    size = np.max(np.abs(cross_rhs), axis=0).tolist()
    return [w / s if s else (math.inf if w else 0.0) for w, s in zip(worst, size)]


# --------------------------------------------------------------------------
# ground-state spectral support


@dataclass(frozen=True)
class GroundStateReport:
    value: float
    window: KmsWindow
    hbar: float
    t_points: int

    @property
    def is_annihilated(self) -> bool:
        return self.value <= WINDOW_TOL


def ground_state_check(
    sys: VanHoveSystem,
    f: RadialFunction,
    g: RadialFunction,
    window: KmsWindow,
    hbar: float = 0.1,
    resolution: int = 1,
) -> GroundStateReport:
    """|int F(t) omega^oo(W(f) tau_t[W(g)]) dt| for the dressed ground state.

    The correlation has the closed form C0 P exp(-pi^2 hbar <f, e^{it omega} g>_0)
    (all frequencies >= 0), so a window with s_plus < 0 must yield ~0 (below
    WINDOW_TOL), while windows over positive frequencies in the dispersion
    range pick up the one-excitation line.  ``resolution`` doubles the time
    quadrature for oracle/agreement runs.
    """
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and > 0, got {hbar}")
    grid = sys.grid
    for func in (f, g):
        if func.grid is not grid:
            raise ValueError("argument lives on a different grid than the system")
    t_max = window.t_max
    panel_width = 0.25 / resolution
    n_panels = 2 * max(1, math.ceil(t_max / panel_width))
    half = t_max / n_panels
    xg, wg = np.polynomial.legendre.leggauss(10)
    offsets = half * xg
    node_w = half * wg
    anchors, comb = _ladder(half - t_max, 2.0 * half, n_panels)

    c0 = math.exp(
        -0.5 * _PI2 * hbar * (weighted_norm_sq(f, 0) + weighted_norm_sq(g, 0))
    )
    p = _cis(2.0 * math.pi * inner_product(f + g, -sys.j_over_omega, 0).real)
    v = grid.measure(0) * np.conj(f.values) * g.values
    # <f, e^{i t omega} g>_0 is a one-node-per-panel rule at frequencies -omega
    s = _phase_grid(-grid.omega, _ZERO, v[:, None], anchors, comb, offsets)[:n_panels]
    fvals = _phase_grid(
        window.sigma_mids, window.sigma_offsets, window.sigma_weights, anchors, comb, offsets
    )[:n_panels]
    corr = c0 * p * np.exp(-_PI2 * hbar * s)
    integral = np.sum(node_w[None, :] * fvals * corr)
    return GroundStateReport(
        value=abs(integral),
        window=window,
        hbar=hbar,
        t_points=n_panels * 10,
    )
