r"""Quasi-free states: one record, a Gaussian times a centre phase.

A state is the positive-definite function f -> omega(W_h(f)) it induces on
the exponential algebra.  Every state here is quasi-free with a diagonal
covariance, so one record holds them all:

    char(f) = exp(scale * sum_i weight_i |f_i|^2) * exp(2 pi i Re <f, center>_0)

with ``weight`` a nonnegative diagonal on the grid nodes.  The constructors
(T is a grid function, J a source, omega the dispersion, m_alpha the
quadrature measure of <.,.>_alpha, coth taken at beta_h omega / 2):

    constructor        scale            weight                          center
    coherent(T, h)     -pi^2 h / 2      m_0                             T
    dirac(T)           0                m_0                             T
    gibbs_quantum      -pi^2 h / 2      m_0 coth  (0 < beta_h <= oo)    -J/omega
    gibbs_classical    -pi^2 / beta     m_{-1}                          -J/omega

The record is ``(hbar, grid, center, scale, weight)`` and nothing else.
``scale`` stays outside the sum, so each constructor reproduces its closed
form factor by factor.  This module is the one place the Gibbs covariance
coth(beta_h omega / 2) is formed; the KMS check reads it back from
``weight``.  At beta_h = oo coth is 1, so the same formula gives the coherent
state centred at -J/omega (the dressed ground state).
Gibbs states exist only for sources whose infrared class keeps -J/omega
square-integrable (regular or type I); type II sources have no dressed state
and are rejected.  ``_dressed`` is the one place that classification is
made and -J/omega formed; ``dynamics.make_system`` takes J and J/omega from
it, so a system realizes its source once.

The dynamics and the dressing transport leave the Gaussian alone
(|e^{i t omega} f| = |f|) and move only the centre: along the classical flow
(``dynamics.evolve_state``) or by J/omega (``scattering.transport_state``).

Positive-definiteness is observable: for any finite panel {f_j} the matrix

    M_{jk} = omega(W_h(f_j - f_k)) exp(-i pi^2 h sigma(f_j, f_k))

is Hermitian positive semidefinite (Bochner).  ``gram_matrix`` builds it from
k x N x k products over the panel; ``bochner_gram`` reports its minimal
eigenvalue against the tolerance 1e-10 * size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import MomentumGrid, RadialFunction, from_values
from .sources import InfraredClass, SourceSpec, classify_analytic, realize
from .weyl import TrigPolynomial

__all__ = [
    "CharState",
    "coherent",
    "dirac",
    "gibbs_quantum",
    "gibbs_classical",
    "evaluate",
    "gram_matrix",
    "bochner_gram",
    "GramReport",
    "PSD_TOL_PER_SIZE",
    "stable_coth",
]

_PI2 = math.pi**2

#: Gram PSD tolerance is this times the panel size.
PSD_TOL_PER_SIZE = 1e-10

#: Hermitian-defect guard for Gram matrices.
_HERMITIAN_TOL = 1e-10

_MAX_PANEL = 64


@dataclass(frozen=True, eq=False)
class CharState:
    """Quasi-free state: exp(scale * sum weight |f|^2) exp(2 pi i Re <f, center>_0)."""

    hbar: float
    grid: MomentumGrid
    center: RadialFunction
    scale: float
    weight: np.ndarray

    def char(self, f: RadialFunction) -> complex:
        return complex(self._row_chars(_stack(self, (f,)))[0])

    def chars(self, panel: Sequence[RadialFunction]) -> np.ndarray:
        """char of every panel member; entry i is bitwise char(panel[i])."""
        return self._row_chars(_stack(self, panel))

    def _row_chars(self, rows: np.ndarray) -> np.ndarray:
        """char of each row of a (k, N) sample array: products formed in place in
        ``inner_product``'s order, rows summed pairwise, so k does not matter."""
        buf = np.conj(rows)
        np.multiply(self.grid.measure(0), buf, out=buf)
        buf *= self.center.values
        angle = 2.0 * math.pi * np.sum(buf, axis=1).real
        np.square(rows.real, out=buf.real)
        np.square(rows.imag, out=buf.imag)
        q = buf.real
        q += buf.imag
        q *= self.weight
        return np.exp(self.scale * np.sum(q, axis=1)) * np.exp(1j * angle)


def _stack(state: CharState, panel: Sequence[RadialFunction]) -> np.ndarray:
    """The panel's samples as the rows of a (k, N) array, on the state's grid."""
    if any(f.grid is not state.grid for f in panel):
        raise ValueError("argument lives on a different grid than the state")
    return np.array([f.values for f in panel])


MappedState = CharState  # alias only: perfbench/tracer.py traces MappedState.char


def coherent(center: RadialFunction, hbar: float) -> CharState:
    if not 0.0 <= hbar < math.inf:
        raise ValueError(f"hbar must be finite and >= 0, got {hbar}")
    hbar = float(hbar)
    return CharState(hbar, center.grid, center, -0.5 * _PI2 * hbar, center.grid.measure(0))


def dirac(center: RadialFunction) -> CharState:
    """Point mass on phase space; the hbar = 0 limit of coherent states."""
    return CharState(0.0, center.grid, center, 0.0, center.grid.measure(0))


def _dressed(source: SourceSpec) -> tuple[RadialFunction, RadialFunction]:
    """The realized source J and the dressed centre -J/omega, refused
    (before J is realized) unless the source is regular or type I."""
    cls = classify_analytic(source)
    if cls not in (InfraredClass.REGULAR, InfraredClass.TYPE_I):
        raise ValueError(
            f"source classifies as {cls.value}: the dressing energy "
            "||J||_{-1}^2 diverges, so no dressed state exists"
        )
    j = realize(source)
    return j, from_values(source.grid, -j.values / source.grid.omega)


def gibbs_quantum(source: SourceSpec, beta_h: float, hbar: float) -> CharState:
    """Dressed thermal state; beta_h = oo gives the dressed ground state."""
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"quantum Gibbs states need a finite hbar > 0, got {hbar}")
    if not beta_h > 0.0:
        raise ValueError(f"beta_h must be > 0, got {beta_h}")
    center = _dressed(source)[1]
    grid = source.grid
    weight = grid.measure(0) * stable_coth(0.5 * beta_h * grid.omega)
    weight.setflags(write=False)
    hbar = float(hbar)
    return CharState(hbar, grid, center, -0.5 * _PI2 * hbar, weight)


def gibbs_classical(source: SourceSpec, beta: float) -> CharState:
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    center = _dressed(source)[1]
    return CharState(0.0, source.grid, center, -_PI2 / float(beta), source.grid.measure(-1))


def stable_coth(x: np.ndarray) -> np.ndarray:
    """coth on (0, oo] as 1/tanh, with no branch at either end: below ~1e-8
    tanh(x) rounds to x, so 1/x (the series' x/3 is under half an ulp), and
    from ~19 up to oo it rounds to 1."""
    return 1.0 / np.tanh(np.asarray(x, dtype=np.float64))


def evaluate(state: CharState, a: TrigPolynomial) -> complex:
    """omega(A) = sum_j c_j omega(W_h(f_j)); hbar and grid must match."""
    if state.hbar != a.hbar:
        raise ValueError(f"hbar mismatch: state {state.hbar} vs polynomial {a.hbar}")
    if state.grid is not a.grid:
        raise ValueError("state and polynomial live on different grids")
    return complex(np.sum(a.coeffs * state._row_chars(a.gens)))


def gram_matrix(state: CharState, panel: Sequence[RadialFunction]) -> np.ndarray:
    """Bochner matrix M_{jk} = char(f_j - f_k) e^{-i pi^2 h sigma(f_j, f_k)}.

    With Q_{jk} = sum weight conj(f_j) f_k the Gaussian exponent is
    Q_jj + Q_kk - 2 Re Q_jk, the centre phase is a difference of per-function
    angles, and sigma(f_j, f_k) = Im <f_j, f_k>_0: one matvec and at most two
    k x N x k products for the whole panel.
    """
    n = len(panel)
    if n == 0 or n > _MAX_PANEL:
        raise ValueError(f"panel size must be in 1..{_MAX_PANEL}, got {n}")
    fs = _stack(state, panel)
    conj = np.conj(fs)
    q = (conj * state.weight) @ fs.T
    norms = q.diagonal().real
    exponent = norms[:, None] + norms[None, :] - 2.0 * q.real
    conj *= state.grid.measure(0)
    centre = 2.0 * math.pi * (conj @ state.center.values).real
    angle = centre[:, None] - centre[None, :]
    if state.hbar > 0.0:
        angle -= _PI2 * state.hbar * (conj @ fs.T).imag
    return np.exp(state.scale * exponent) * np.exp(1j * angle)


@dataclass(frozen=True)
class GramReport:
    size: int
    min_eigenvalue: float
    hermitian_defect: float
    psd_tol: float

    @property
    def is_psd(self) -> bool:
        return self.min_eigenvalue >= -self.psd_tol


def bochner_gram(state: CharState, panel: Sequence[RadialFunction]) -> GramReport:
    """Build the Bochner matrix and check positive semidefiniteness."""
    m = gram_matrix(state, panel)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > _HERMITIAN_TOL:
        raise RuntimeError(
            f"Bochner matrix is not Hermitian (defect {defect:.3e}); "
            "state evaluation is inconsistent"
        )
    eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return GramReport(
        size=len(panel),
        min_eigenvalue=float(eigs[0]),
        hermitian_defect=defect,
        psd_tol=PSD_TOL_PER_SIZE * len(panel),
    )
