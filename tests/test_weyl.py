"""Exponential algebra: composition law, canonical form, anti-Wick quantization."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanhove import coherent, evaluate, weighted_norm_sq
from vanhove.weyl import (
    add,
    adjoint,
    antiwick,
    compose,
    identity,
    scale,
    symplectic_form,
    trig_polynomial,
    weyl,
)

_PI2 = math.pi**2

_coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


def _pair_strategy():
    return st.tuples(_coeff, _coeff).filter(lambda t: abs(t[0]) > 1e-6)


def _poly(h, *terms):
    """sum_j c_j W_h(f_j) from (f_j, c_j) pairs."""
    return functools.reduce(add, (weyl(f, h, c) for f, c in terms))


def test_single_product_carries_the_symplectic_phase(grid, f_gauss, g_gauss):
    h = 0.37
    prod = compose(weyl(f_gauss, h), weyl(g_gauss, h))
    assert len(prod.coeffs) == 1
    s = symplectic_form(f_gauss, g_gauss)
    assert prod.coeffs[0] == pytest.approx(np.exp(-1j * _PI2 * h * s), abs=1e-15)
    assert np.array_equal(prod.gens[0], (f_gauss + g_gauss).values)


def test_multi_term_product_matches_the_entrywise_oracle(grid, f_gauss, g_gauss):
    # 5 x 4 rows; a's (f, g) against b's (g, f) gives f + g and g + f, which
    # coincide bit for bit and must merge into one row
    h = 0.4
    rng = np.random.default_rng(3)
    fa = [f_gauss, g_gauss, (0.5 - 1j) * f_gauss, f_gauss - 2j * g_gauss, 1j * g_gauss]
    fb = [g_gauss, f_gauss, (2.0 + 0.5j) * g_gauss, f_gauss + 0.3 * g_gauss]
    ca = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    cb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    prod = compose(_poly(h, *zip(fa, ca)), _poly(h, *zip(fb, cb)))
    expect: dict[bytes, complex] = {}
    for f, c in zip(fa, ca):
        for g, d in zip(fb, cb):
            key = (f + g).values.tobytes()
            term = c * d * np.exp(-1j * _PI2 * h * symplectic_form(f, g))
            expect[key] = expect.get(key, 0.0) + term
    assert len(expect) == 19
    assert sorted(expect) == [row.tobytes() for row in prod.gens]
    for c, row in zip(prod.coeffs, prod.gens):
        assert abs(c - expect[row.tobytes()]) <= 1e-14


def test_symplectic_form_is_antisymmetric(grid, f_gauss, g_gauss):
    fi = 1j * f_gauss
    assert symplectic_form(fi, g_gauss) == pytest.approx(
        -symplectic_form(g_gauss, fi), abs=1e-15
    )
    assert symplectic_form(f_gauss, f_gauss) == 0.0


def test_commutator_phase(grid, f_gauss, g_gauss):
    # W(f) W(g) = W(g) W(f) e^{-2 i pi^2 h sigma(f, g)}
    h = 0.25
    f = (1.0 + 2.0j) * f_gauss
    fg = compose(weyl(f, h), weyl(g_gauss, h))
    gf = compose(weyl(g_gauss, h), weyl(f, h))
    ratio = fg.coeffs[0] / gf.coeffs[0]
    s = symplectic_form(f, g_gauss)
    assert ratio == pytest.approx(np.exp(-2j * _PI2 * h * s), abs=1e-14)


def test_classical_algebra_is_abelian_bit_for_bit(grid, f_gauss, g_gauss):
    a = weyl((0.3 - 1.1j) * f_gauss, 0.0, coefficient=2.0 - 1.0j)
    b = weyl(g_gauss, 0.0, coefficient=0.5j)
    ab, ba = compose(a, b), compose(b, a)
    assert ab.coeffs[0] == ba.coeffs[0]
    assert ab.gens.tobytes() == ba.gens.tobytes()


def test_identity_is_neutral(grid, f_gauss):
    h = 0.8
    a = weyl(f_gauss, h, coefficient=1.5 - 0.5j)
    e = identity(grid, h)
    for prod in (compose(a, e), compose(e, a)):
        assert len(prod.coeffs) == 1
        assert prod.coeffs[0] == pytest.approx(a.coeffs[0], abs=1e-15)


def test_adjoint_is_an_involution_and_antimultiplicative(grid, f_gauss, g_gauss):
    h = 0.6
    a = weyl((1.0 + 0.2j) * f_gauss, h, coefficient=0.7 + 0.1j)
    b = weyl(g_gauss, h, coefficient=-0.4j)
    back = adjoint(adjoint(a))
    assert back.coeffs[0] == a.coeffs[0]
    assert back.gens.tobytes() == a.gens.tobytes()
    lhs = adjoint(compose(a, b))
    rhs = compose(adjoint(b), adjoint(a))
    assert lhs.coeffs[0] == pytest.approx(rhs.coeffs[0], abs=1e-14)
    assert lhs.gens.tobytes() == rhs.gens.tobytes()


def test_unitarity_of_a_single_element(grid, f_gauss):
    h = 0.5
    a = weyl(f_gauss, h)
    prod = compose(a, adjoint(a))
    assert len(prod.coeffs) == 1
    assert np.array_equal(prod.gens[0], 0.0 * f_gauss.values)
    assert prod.coeffs[0] == pytest.approx(1.0, abs=1e-15)


def test_canonical_form_merges_and_drops(grid, f_gauss, g_gauss):
    h = 0.1
    a = add(weyl(f_gauss, h, 1.0), weyl(f_gauss, h, 2.0))
    assert len(a.coeffs) == 1
    assert a.coeffs[0] == 3.0
    cancelled = add(weyl(g_gauss, h, 1.0), weyl(g_gauss, h, -1.0))
    assert cancelled.coeffs.shape == (0,)
    assert cancelled.gens.shape == (0, grid.size)


def test_terms_are_ordered_canonically(grid, f_gauss, g_gauss):
    h = 0.1
    ab = add(weyl(f_gauss, h), weyl(g_gauss, h))
    ba = add(weyl(g_gauss, h), weyl(f_gauss, h))
    assert ab.gens.tobytes() == ba.gens.tobytes()
    # three terms each, one generator shared: the merged sum and the row
    # order do not depend on the order of the operands
    a = _poly(h, (f_gauss, 0.3 - 1.0j), (g_gauss, 2.0), (f_gauss - g_gauss, -0.7j))
    b = _poly(h, (1j * f_gauss, 1.1), (g_gauss, 0.1 + 0.4j), (f_gauss + g_gauss, -0.5))
    ab, ba = add(a, b), add(b, a)
    assert len(ab.coeffs) == 5
    assert ab.coeffs.tobytes() == ba.coeffs.tobytes()
    assert ab.gens.tobytes() == ba.gens.tobytes()
    state = coherent(0.2j * f_gauss, h)
    assert evaluate(state, ab) == evaluate(state, ba)


def test_coefficients_and_generators_are_read_only(grid, f_gauss, g_gauss):
    a = add(weyl(f_gauss, 0.2, 1.5), weyl(g_gauss, 0.2, -1.0j))
    for arr in (a.coeffs, a.gens):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_mixing_grids_or_hbars_is_an_error(grid, f_gauss):
    from vanhove import make_grid, zero_function

    other = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="different grid"):
        compose(weyl(f_gauss, 0.1), weyl(zero_function(other), 0.1))
    with pytest.raises(ValueError, match="hbar mismatch"):
        compose(weyl(f_gauss, 0.1), weyl(f_gauss, 0.2))
    with pytest.raises(ValueError, match="hbar mismatch"):
        add(weyl(f_gauss, 0.1), weyl(f_gauss, 0.2))
    for hbar in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            weyl(f_gauss, hbar)
    for hbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            antiwick(weyl(f_gauss, 0.0), hbar)


def test_antiwick_damps_by_the_vacuum_gaussian(grid, f_gauss):
    h = 0.3
    a = weyl(f_gauss, 0.0, coefficient=2.0)
    damped = antiwick(a, h)
    expect = 2.0 * math.exp(-0.5 * _PI2 * h * weighted_norm_sq(f_gauss, 0))
    assert damped.coeffs[0] == pytest.approx(expect, rel=1e-15)
    assert damped.hbar == h


def test_scale_multiplies_every_coefficient(grid, f_gauss, g_gauss):
    a = add(weyl(f_gauss, 0.2, 2.0), weyl(g_gauss, 0.2, -1.0j))
    doubled = scale(a, 1.0 + 1.0j)
    for before, after in zip(a.coeffs, doubled.coeffs):
        assert after == before * (1.0 + 1.0j)
    assert scale(a, 0.0).coeffs.shape == (0,)


def test_rows_merge_on_their_exact_samples(grid, f_gauss):
    twin = 1.0 * f_gauss  # distinct object, identical samples
    merged = add(weyl(twin, 0.3, 1.0 - 1.0j), weyl(f_gauss, 0.3, 0.5))
    assert merged.coeffs.tolist() == [1.5 - 1.0j]
    assert merged.gens.tobytes() == f_gauss.values.tobytes()
    kept = add(weyl(2.0 * f_gauss, 0.3), weyl(f_gauss, 0.3))
    assert kept.coeffs.tolist() == [1.0, 1.0]
    assert kept.gens.shape == (2, grid.size)


def test_signed_zero_rows_merge_into_one_positive_zero_row():
    # 0j and -0j are one phase-space point, so one operator W_h(0) = 1
    from vanhove.fock import single_mode_grid

    merged = trig_polynomial(single_mode_grid(), 0.0, [1.0, 2.0], [[0j], [-0j]])
    assert merged.coeffs.tolist() == [3.0]
    assert merged.gens.shape == (1, 1)
    assert not np.signbit(merged.gens.real).any()
    assert not np.signbit(merged.gens.imag).any()


@given(pair_a=_pair_strategy(), pair_b=_pair_strategy())
@settings(max_examples=50, deadline=None)
def test_associativity_on_random_generators(grid, f_gauss, g_gauss, pair_a, pair_b):
    h = 0.4
    fa = pair_a[0] * f_gauss + pair_a[1] * g_gauss
    fb = pair_b[0] * f_gauss + pair_b[1] * g_gauss
    fc = f_gauss - 1j * g_gauss
    left = compose(compose(weyl(fa, h), weyl(fb, h)), weyl(fc, h))
    right = compose(weyl(fa, h), compose(weyl(fb, h), weyl(fc, h)))
    assert left.coeffs[0] == pytest.approx(right.coeffs[0], rel=1e-12, abs=1e-12)


@given(pair=_pair_strategy())
@settings(max_examples=50, deadline=None)
def test_norm_bound_is_submultiplicative(grid, f_gauss, g_gauss, pair):
    h = 0.15
    a = add(weyl(pair[0] * f_gauss, h, pair[1]), weyl(g_gauss, h, 1.0))
    b = add(weyl(g_gauss, h, 0.5), identity(grid, h))
    # the l^1 coefficient norm, an upper bound for the C*-norm (each W is unitary)
    ab_norm, a_norm, b_norm = (np.abs(p.coeffs).sum() for p in (compose(a, b), a, b))
    assert ab_norm <= a_norm * b_norm + 1e-12
