r"""Exponential (Weyl) elements and their *-algebra of trigonometric polynomials.

A generator is a grid function f; the abstract element W_h(f) obeys

    W_h(f) W_h(g) = W_h(f + g) exp(-i pi^2 h sigma(f, g)),
    W_h(f)^*      = W_h(-f),          sigma(f, g) = Im <f, g>_0,

with h >= 0 the semiclassical parameter.  At h = 0 the algebra is abelian
and W_0(f) is the phase-space character T -> exp(2 pi i Re <f, T>_0).

Elements here are finite sums sum_j c_j W_h(f_j) ("trigonometric
polynomials") held as two read-only arrays: ``coeffs`` (k,) with the c_j and
``gens`` (k, N) with the samples of f_j on the N grid nodes, one row per
term.  They are kept in canonical form: rows with bit-identical samples
merged (coefficients summed in input order; -0.0 counts as +0.0), zero
coefficients dropped, rows ordered by their bytes.

Anti-Wick quantization carries a classical polynomial to h > 0, damping
each coefficient by exp(-(pi^2 h / 2) ||f_j||_0^2); it is
positivity-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .grid import MomentumGrid, RadialFunction, inner_product, zero_function

__all__ = [
    "TrigPolynomial",
    "weyl",
    "identity",
    "trig_polynomial",
    "symplectic_form",
    "compose",
    "adjoint",
    "scale",
    "add",
    "antiwick",
]

_PI2 = math.pi**2


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Canonical sum_j coeffs[j] W_h(gens[j]) at a fixed h >= 0; build it
    with ``trig_polynomial``."""

    hbar: float
    grid: MomentumGrid
    coeffs: np.ndarray  # (k,) complex, read-only
    gens: np.ndarray  # (k, N) complex, read-only, one generator per row

    def __post_init__(self) -> None:
        if not 0.0 <= self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and >= 0, got {self.hbar}")

    @property
    def terms(self) -> np.ndarray:
        # alias only: perfbench/workloads.py counts terms as len(product.terms)
        return self.coeffs


def trig_polynomial(
    grid: MomentumGrid, hbar: float, coeffs: ArrayLike, gens: ArrayLike
) -> TrigPolynomial:
    """Canonicalize: merge bit-identical rows (-0.0 as +0.0), drop zeros, sort by bytes."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    gens = np.asarray(gens, dtype=np.complex128)
    if coeffs.ndim != 1 or gens.shape != (coeffs.size, grid.size):
        raise ValueError(f"need coeffs (k,), gens (k, {grid.size}); got {gens.shape}")
    if not np.isfinite(gens).all():
        raise ValueError("samples must be finite")
    # row bytes -> [first row index, summed coefficient]; ``+ 0.0`` turns -0.0
    # into +0.0, so rows that differ only in the sign of a zero (one
    # phase-space point) merge, one row at a time rather than in a copy of gens
    merged: dict[bytes, list] = {}
    for i, (c, row) in enumerate(zip(coeffs.tolist(), gens)):
        entry = merged.setdefault((row + 0.0).tobytes(), [i, None])
        entry[1] = c if entry[1] is None else entry[1] + c
    kept = [entry for _, entry in sorted(merged.items()) if entry[1] != 0.0]
    del merged  # the keys are as large as gens: free them before the copy below
    out = np.array([c for _, c in kept], dtype=np.complex128)
    rows = gens[[i for i, _ in kept]]
    rows += 0.0  # the kept copy holds +0.0 where its key does
    for arr in (out, rows):
        arr.setflags(write=False)
    return TrigPolynomial(float(hbar), grid, out, rows)


def weyl(f: RadialFunction, hbar: float, coefficient: complex = 1.0) -> TrigPolynomial:
    """Single Weyl element c * W_h(f)."""
    return trig_polynomial(f.grid, hbar, [complex(coefficient)], f.values[None])


def identity(grid: MomentumGrid, hbar: float) -> TrigPolynomial:
    """W_h(0), the algebra unit."""
    return weyl(zero_function(grid), hbar)


def symplectic_form(f: RadialFunction, g: RadialFunction) -> float:
    """sigma(f, g) = Im <f, g>_0."""
    return inner_product(f, g, 0).imag


def _check_compatible(a: TrigPolynomial, b: TrigPolynomial, verb: str) -> None:
    if a.grid is not b.grid:
        raise ValueError(f"cannot {verb} polynomials on different grids")
    if a.hbar != b.hbar:
        raise ValueError(f"hbar mismatch: {a.hbar} vs {b.hbar}")


def compose(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    """Product in the Weyl algebra (pointwise product of characters at h=0):
    row (i, j) of the result is c_i d_j e^{-i pi^2 h sigma(f_i, g_j)} W(f_i + g_j)."""
    _check_compatible(a, b, "compose")
    # c_i d_j in real arithmetic: numpy's complex loops fuse multiply-adds,
    # which would make c_i d_j and d_j c_i differ in the last bit
    ar, ai = a.coeffs.real[:, None], a.coeffs.imag[:, None]
    br, bi = b.coeffs.real, b.coeffs.imag
    coeffs = np.empty((ar.size, br.size), dtype=np.complex128)
    coeffs.real = ar * br - ai * bi
    coeffs.imag = ar * bi + ai * br
    if a.hbar > 0.0:
        sigma = ((np.conj(a.gens) * a.grid.measure(0)) @ b.gens.T).imag
        coeffs *= np.exp(-1j * _PI2 * a.hbar * sigma)
    gens = (a.gens[:, None] + b.gens[None]).reshape(-1, a.grid.size)
    return trig_polynomial(a.grid, a.hbar, coeffs.ravel(), gens)


def adjoint(a: TrigPolynomial) -> TrigPolynomial:
    """Conjugate coefficients, negate generators."""
    return trig_polynomial(a.grid, a.hbar, np.conj(a.coeffs), -a.gens)


def add(a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
    _check_compatible(a, b, "add")
    gens = np.concatenate([a.gens, b.gens])
    return trig_polynomial(a.grid, a.hbar, np.concatenate([a.coeffs, b.coeffs]), gens)


def scale(a: TrigPolynomial, c: complex) -> TrigPolynomial:
    return trig_polynomial(a.grid, a.hbar, complex(c) * a.coeffs, a.gens)


def antiwick(a: TrigPolynomial, hbar: float) -> TrigPolynomial:
    """Positivity-preserving quantization: coefficients damped by the
    vacuum Gaussian exp(-(pi^2 hbar / 2) ||f||_0^2)."""
    if a.hbar != 0.0:
        raise ValueError("anti-Wick quantization starts from hbar = 0")
    if not 0.0 < hbar < math.inf:
        raise ValueError(f"target hbar must be finite and > 0, got {hbar}")
    g = a.gens
    norms = np.sum(a.grid.measure(0) * (g.real**2 + g.imag**2), axis=1)
    return trig_polynomial(a.grid, hbar, a.coeffs * np.exp(-0.5 * _PI2 * hbar * norms), g)
