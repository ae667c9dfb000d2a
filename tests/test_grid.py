"""Grids: quadrature accuracy, weighted pairings, function arithmetic."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanhove import (
    apply_free_phase,
    from_values,
    inner_product,
    make_grid,
    sample,
    weighted_norm_sq,
    zero_function,
)
from vanhove.grid import _HALF_GAMMA, DIM_MAX, WEIGHT_EXPONENTS, sphere_area

# Closed forms for the Gaussian e^{-r^2} on the massless d=3 grid:
# <f, f>_alpha = 4 pi int_0^oo r^{2+alpha} e^{-2r^2} dr.
_GAUSS_NORMS = {
    1: math.pi / 2.0,  # 4 pi / 16
    0: (math.pi / 2.0) ** 1.5,
    -1: math.pi,
    -2: math.pi * math.sqrt(2.0 * math.pi),
}


@pytest.fixture(scope="module")
def gauss(grid):
    return sample(grid, lambda r: np.exp(-(r**2)))


def test_sphere_area_matches_low_dimensions():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_half_gamma_table_is_scipys_gamma_bit_for_bit():
    from scipy.special import gamma

    assert len(_HALF_GAMMA) == DIM_MAX == 16
    for d in range(1, DIM_MAX + 1):
        assert _HALF_GAMMA[d - 1] == float(gamma(d / 2.0)), f"d={d}"


def test_gaussian_norms_match_gamma_function_closed_forms(grid, gauss):
    for alpha, exact in _GAUSS_NORMS.items():
        got = weighted_norm_sq(gauss, alpha)
        # alpha = -2 integrates r^0 e^{-2r^2} down to r_min = 1e-6, which
        # clips an O(r_min) tail; everything else is exponentially converged.
        tol = 1e-5 if alpha == -2 else 1e-11
        assert got == pytest.approx(exact, rel=tol), f"alpha={alpha}"


def test_norms_are_consistent_with_inner_products(grid, gauss):
    for alpha in WEIGHT_EXPONENTS:
        assert weighted_norm_sq(gauss, alpha) == pytest.approx(
            inner_product(gauss, gauss, alpha).real, rel=1e-14
        )


def test_doubling_the_resolution_does_not_move_the_norms():
    fine = make_grid(panels=32, points=64)
    coarse = make_grid()
    for g, label in ((coarse, "coarse"), (fine, "fine")):
        f = sample(g, lambda r: np.exp(-(r**2)))
        assert weighted_norm_sq(f, -1) == pytest.approx(math.pi, rel=1e-10), label


def test_mass_enters_the_dispersion():
    g = make_grid(mass=2.5)
    assert np.allclose(g.omega, np.hypot(g.nodes, 2.5))
    assert g.omega.min() >= 2.5


def test_grid_rejects_bad_parameters():
    # dim runs over the Gamma(d/2) table, 1..16, as the CLI's dim rule does
    for dim in (0, 17):
        with pytest.raises(ValueError, match="dim"):
            make_grid(dim=dim)
        with pytest.raises(ValueError, match="dim"):
            sphere_area(dim)
    with pytest.raises(ValueError, match="dim"):
        make_grid(dim=3.0)
    with pytest.raises(ValueError):
        make_grid(mass=-1.0)
    with pytest.raises(ValueError):
        make_grid(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        make_grid(panels=0)
    with pytest.raises(ValueError, match="mass"):
        make_grid(mass=float("nan"))
    # r_max/r_min overflows the edges (nan nodes), two edges' sum the nodes (inf
    # nodes), or sigma w r^(d-1) omega^a the measures on the last panel: refused
    # by name, without a numpy warning
    for keys, name in (
        ({"r_min": 1e-300, "r_max": 1e10}, "edges"),
        ({"r_min": 1e300, "r_max": 1.7e308}, "edges"),
        ({"r_max": 1e300}, "measures"),
        ({"dim": 16, "r_max": 1e30}, "measures"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} .*overflow"):
                make_grid(**keys)


def test_weight_exponent_is_validated(grid, gauss):
    with pytest.raises(ValueError, match="weight exponent"):
        weighted_norm_sq(gauss, 3)


def test_functions_from_different_grids_do_not_mix(gauss):
    other = make_grid(panels=4, points=8)
    f = zero_function(other)
    with pytest.raises(ValueError, match="different grids"):
        _ = gauss + f
    with pytest.raises(ValueError, match="different grids"):
        inner_product(gauss, f)


def test_samples_must_be_finite_and_the_right_size(grid):
    with pytest.raises(ValueError, match="finite"):
        from_values(grid, np.full(grid.size, np.nan))
    with pytest.raises(ValueError, match="does not match grid size"):
        from_values(grid, np.zeros(grid.size - 1))


def test_values_are_immutable(gauss):
    with pytest.raises(ValueError):
        gauss.values[0] = 1.0


def test_free_phase_is_unitary_and_a_group(grid, gauss):
    assert np.allclose(apply_free_phase(gauss, 0.0).values, gauss.values)
    moved = apply_free_phase(gauss, 17.3)
    assert np.allclose(np.abs(moved.values), np.abs(gauss.values))
    assert weighted_norm_sq(moved, 0) == pytest.approx(
        weighted_norm_sq(gauss, 0), rel=1e-14
    )
    twice = apply_free_phase(apply_free_phase(gauss, 1.25), -0.75)
    assert np.allclose(twice.values, apply_free_phase(gauss, 0.5).values)


@given(
    a=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    b=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50, deadline=None)
def test_pairing_is_sesquilinear(grid, gauss, g_gauss, a, b):
    f = a * gauss + b * g_gauss
    lhs = inner_product(f, gauss, -1)
    rhs = np.conj(a) * inner_product(gauss, gauss, -1) + np.conj(b) * inner_product(
        g_gauss, gauss, -1
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(
    c=st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=50, deadline=None)
def test_norms_are_nonnegative_and_quadratic(grid, gauss, c):
    f = c * gauss
    n = weighted_norm_sq(f, 0)
    assert n >= 0.0
    assert n == pytest.approx(abs(c) ** 2 * weighted_norm_sq(gauss, 0), rel=1e-12)
