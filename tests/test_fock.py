"""Truncated Fock machinery: spectra, exponential matrices, bounds, probes."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from vanhove import fock, make_grid, make_system, power_law_gaussian
from vanhove.fock import (
    FockMode,
    adequate_cutoff,
    build_ladder,
    garding_probe,
    ground_state_analysis,
    ladder_bound_check,
    mode_for_node,
    mode_number_expectation,
    multimode_ground_scan,
    single_mode_grid,
    soft_photon_sweep,
    weyl_matrix,
)
from vanhove.grid import from_values
from vanhove.weyl import add, adjoint, compose, identity, trig_polynomial, weyl

_PI2 = math.pi**2


@pytest.fixture(scope="module")
def mode():
    return FockMode(omega=1.0, coupling=0.5, cutoff=64, hbar=0.25)


def test_mode_validation():
    with pytest.raises(ValueError, match="omega"):
        FockMode(omega=0.0, coupling=0.1, cutoff=32, hbar=0.1)
    with pytest.raises(ValueError, match="hbar"):
        FockMode(omega=1.0, coupling=0.1, cutoff=32, hbar=0.0)
    with pytest.raises(ValueError, match="cutoff"):
        FockMode(omega=1.0, coupling=0.1, cutoff=1, hbar=0.1)
    # displacement scale 4|j|^2/(h w^2) = 1000 >> 32
    with pytest.raises(ValueError, match="too small"):
        FockMode(omega=1.0, coupling=5.0, cutoff=32, hbar=0.1)


def test_adequate_cutoff_scales_with_the_displacement():
    base = adequate_cutoff(1.0, 0.5, 0.25)
    assert base == math.ceil(4.0 * 0.25 / 0.25) + 20
    assert adequate_cutoff(1.0, 0.5, 0.025) > base


def test_ladder_commutator_away_from_the_corner(mode):
    a, adag, num = build_ladder(mode)
    comm = a @ adag - adag @ a
    inside = np.diag(comm)[:-1]
    assert np.allclose(inside, 1.0, atol=1e-13)
    assert comm[-1, -1] == pytest.approx(-mode.cutoff)  # truncation artifact
    assert np.allclose(num, adag @ a, atol=1e-12)


def test_displaced_mode_closed_forms(mode):
    report = ground_state_analysis(mode)
    assert report.energy_closed_form == pytest.approx(-0.25, abs=1e-15)
    assert report.energy == pytest.approx(report.energy_closed_form, abs=1e-12)
    assert report.gap == pytest.approx(mode.hbar * mode.omega, abs=1e-12)
    assert report.overlap_sq == pytest.approx(1.0, abs=1e-10)


def test_number_expectation_closed_form(mode):
    got = mode_number_expectation(mode)
    assert got == pytest.approx(abs(mode.coupling / mode.omega) ** 2, abs=1e-10)


def test_weyl_matrix_is_unitary_on_the_trusted_block(mode):
    w = weyl_matrix(mode, 0.8 - 0.3j)
    half = mode.cutoff // 2 + 1
    defect = (w.conj().T @ w - np.eye(mode.dim))[:half, :half]
    assert np.max(np.abs(defect)) <= 1e-9


def test_weyl_matrix_vacuum_expectation(mode):
    z = 0.6 + 0.2j
    w = weyl_matrix(mode, z)
    expect = math.exp(-0.5 * _PI2 * mode.hbar * abs(z) ** 2)
    assert w[0, 0] == pytest.approx(expect, abs=1e-12)


def test_exponential_refuses_a_truncated_vacuum_at_the_adequacy_edge():
    # pi^2 hbar |z|^2 = N/4 = 1 (the float just below 1/pi, since 1/pi itself
    # rounds one ulp over) passes the displacement guard, yet on 5 levels the
    # vacuum entry is off by 2.6e-5, while the eigenvectors stay orthogonal to
    # rounding (a trusted-block unitarity product reads 3.3e-16 here)
    edge = math.nextafter(1.0 / math.pi, 0.0)
    with pytest.raises(RuntimeError, match="vacuum"):
        fock._exponential_eigs(1.0, 4, edge)
    with pytest.raises(ValueError, match="displacement"):
        fock._exponential_eigs(1.0, 4, 1.0 / math.pi)


@pytest.mark.parametrize("coupling", [0.5, -0.35 + 0.6j])
def test_coherent_column_is_the_weyl_matrix_column(coupling):
    # ground_state_analysis forms W_h(z*) e_0 from the eigenpairs alone; the
    # dense exponential stays its reference
    h, omega = 0.25, 1.3
    cutoff = adequate_cutoff(omega, coupling, h)
    m = FockMode(omega=omega, coupling=coupling, cutoff=cutoff, hbar=h)
    z_star = 1j * coupling / (math.pi * h * omega)
    column = weyl_matrix(m, z_star)[:, 0]
    assert np.max(np.abs(fock._coherent_vector(m, z_star) - column)) <= 1e-14
    ground = fock._lowest_pair(m)[1]
    overlap_sq = abs(np.vdot(column, ground)) ** 2
    assert ground_state_analysis(m).overlap_sq == pytest.approx(overlap_sq, abs=1e-14)


def test_weyl_matrix_composition_law(mode):
    z1, z2 = 0.5 + 0.4j, -0.3 + 0.7j
    w1, w2 = weyl_matrix(mode, z1), weyl_matrix(mode, z2)
    w12 = weyl_matrix(mode, z1 + z2)
    phase = np.exp(-1j * _PI2 * mode.hbar * (np.conj(z1) * z2).imag)
    half = mode.cutoff // 2 + 1
    gap = np.max(np.abs((w1 @ w2 - phase * w12)[:half, :half]))
    assert gap <= 1e-10


def _displacement_entry(alpha: complex, m: int, n: int) -> complex:
    """<m|D(alpha)|n> for m >= n (Cahill and Glauber, Phys. Rev. 177, 1857
    (1969)): sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2) L_n^(m-n)(|alpha|^2)."""
    x = abs(alpha) ** 2
    log_scale = 0.5 * (gammaln(n + 1) - gammaln(m + 1)) - 0.5 * x
    if m > n:
        log_scale += (m - n) * math.log(abs(alpha))
    phase = np.exp(1j * (m - n) * np.angle(alpha))
    return complex(np.exp(log_scale) * phase * eval_genlaguerre(n, m - n, x))


def test_weyl_matrix_matches_the_cahill_glauber_closed_form():
    # W_h(z) = exp(alpha a* - conj(alpha) a) = D(alpha) with alpha = i pi sqrt(h) z;
    # the entries above the diagonal follow by adjointness, D(alpha)* = D(-alpha)
    wide = FockMode(omega=1.0, coupling=0.0, cutoff=96, hbar=0.25)
    half = wide.cutoff // 2 + 1
    for z in (0.7 + 0.5j, -0.9 + 0.4j, -0.6 - 1.1j, 1.0 - 1.0j):
        alpha = 1j * math.pi * math.sqrt(wide.hbar) * z
        exact = np.array(
            [
                [
                    _displacement_entry(alpha, m, n)
                    if m >= n
                    else np.conj(_displacement_entry(-alpha, n, m))
                    for n in range(half)
                ]
                for m in range(half)
            ]
        )
        w = weyl_matrix(wide, z)
        assert np.max(np.abs(w[:half, :half] - exact)) <= 1e-12


def test_complex_coupling_matches_the_closed_forms():
    # arg j != 0 and != pi: a wrong gauge sign rotates the ground vector away
    # from the coherent vector W_h(z*) e_0, whose own gauge is arg z* = arg j + pi/2
    j = -0.35 + 0.6j
    h = 0.2
    cplx = FockMode(omega=1.3, coupling=j, cutoff=adequate_cutoff(1.3, j, h), hbar=h)
    report = ground_state_analysis(cplx)
    assert report.energy_closed_form == pytest.approx(-abs(j) ** 2 / 1.3, rel=1e-15)
    assert report.energy == pytest.approx(report.energy_closed_form, abs=1e-12)
    assert report.gap == pytest.approx(h * 1.3, abs=1e-12)
    assert report.overlap_sq == pytest.approx(1.0, abs=1e-10)
    closed = abs(j / 1.3) ** 2
    assert report.photon_number == pytest.approx(closed, abs=1e-10)
    assert mode_number_expectation(cplx) == pytest.approx(closed, abs=1e-10)


def test_importing_the_cli_adds_no_scipy_linalg_import():
    # every command imports fock; only the Fock solvers need scipy.linalg.
    # scipy.special loads scipy.linalg itself before scipy 1.17, so the
    # check is that vanhove adds no import of its own on top of it
    code = (
        "import sys, scipy.special\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "import vanhove.cli\n"
        "assert ('scipy.linalg' in sys.modules) == before\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_weyl_matrix_rejects_oversized_displacements(mode):
    with pytest.raises(ValueError, match="displacement"):
        weyl_matrix(mode, 30.0)


def test_mode_for_node_absorbs_the_measure(system_g03):
    h = 0.2
    m0 = mode_for_node(system_g03, 100, h)
    grid = system_g03.grid
    expect = complex(system_g03.j.values[100]) * math.sqrt(grid.measure(0)[100])
    assert m0.coupling == pytest.approx(expect, rel=1e-15)
    assert m0.omega == grid.omega[100]


def test_multimode_scan_reproduces_the_field_energy():
    # a modest grid keeps the scan quick; the identity is exact node by node
    g = make_grid(panels=6, points=12)
    sys_small = make_system(power_law_gaussian(g, 0.3))
    report = multimode_ground_scan(sys_small, hbar=0.4)
    assert report.modes == g.size
    assert report.energy_matrix_sum == pytest.approx(
        report.energy_closed_form, rel=1e-12
    )
    assert report.overlap_sq_product == pytest.approx(1.0, abs=1e-8)


def test_soft_photon_number_diverges_for_type_i():
    g = make_grid(r_min=2.0**-10, r_max=16.0, panels=14, points=32)
    sys_t1 = make_system(power_law_gaussian(g, 0.8))
    ns = [2**k for k in range(2, 9)]
    report = soft_photon_sweep(sys_t1, 0.1, ns)
    assert report.diverging
    # increments of ||J_n||_{-2}^2 grow like n^{2 gamma - 1}
    assert report.increment_slope == pytest.approx(0.6, abs=0.05)
    assert all(b > a for a, b in zip(report.numbers, report.numbers[1:]))


def test_soft_photon_number_converges_for_regular_sources():
    g = make_grid(r_min=2.0**-10, r_max=16.0, panels=14, points=32)
    sys_reg = make_system(power_law_gaussian(g, 0.3))
    report = soft_photon_sweep(sys_reg, 0.1, [2**k for k in range(2, 9)])
    assert not report.diverging
    assert report.increment_slope == pytest.approx(-0.4, abs=0.05)


def test_soft_photon_sweep_validation(system_g03, grid):
    from vanhove import free_system

    with pytest.raises(ValueError, match="sourced"):
        soft_photon_sweep(free_system(grid), 0.1, [2, 4, 8])
    with pytest.raises(ValueError, match="increasing"):
        soft_photon_sweep(system_g03, 0.1, [8, 4, 2])
    with pytest.raises(ValueError, match="at least 3"):
        soft_photon_sweep(system_g03, 0.1, [2, 4])


def test_annihilation_bound_saturates_for_a_single_mode(mode):
    report = ladder_bound_check(mode, s_diag=1.3, trials=200, seed=0)
    assert report.trials == 200
    assert report.max_annihilation_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.max_creation_ratio <= 1.0 + 1e-12


def test_creation_bound_is_strict_but_not_saturated(mode):
    report = ladder_bound_check(mode, s_diag=2.0, trials=100, seed=1)
    assert 0.5 < report.max_creation_ratio < 1.0


def test_ladder_bound_validation(mode):
    with pytest.raises(ValueError, match="s_diag"):
        ladder_bound_check(mode, s_diag=0.0)
    with pytest.raises(ValueError, match="trial"):
        ladder_bound_check(mode, s_diag=1.0, trials=0)


# --------------------------------------------------------------------------
# sharp Garding probe


def _harmonic_symbol():
    g = single_mode_grid()
    one = identity(g, 0.0)
    w1 = weyl(from_values(g, np.array([1.0 + 0.0j])), 0.0)
    wi = weyl(from_values(g, np.array([1j])), 0.0)
    p = add(add(one, w1), wi)
    return compose(adjoint(p), p), g


def test_single_mode_grid_has_unit_measure():
    g = single_mode_grid()
    assert g.size == 1
    assert g.measure(0)[0] == pytest.approx(1.0, rel=1e-15)


def test_garding_probe_shows_the_order_hbar_gap():
    symbol, _ = _harmonic_symbol()
    hbars = tuple(2.0**-k for k in range(3, 10))
    report = garding_probe(symbol, hbars)
    assert report.symbol_min == pytest.approx(0.0, abs=1e-12)
    # |1 + W(1) + W(i)|^2 vanishes quadratically at its torus minimum, so
    # the quantization stays positive and its bottom rises linearly in h,
    # approaching the symplectic ground energy pi^2 sqrt(3) of the Hessian
    theory = _PI2 * math.sqrt(3.0)
    assert all(lam > 0.0 for lam in report.lambda_min)
    assert report.lambda_min[-1] / report.hbar_values[-1] == pytest.approx(
        theory, rel=0.02
    )
    assert report.fitted_constant == pytest.approx(theory, rel=0.07)
    assert report.fit_residual < 0.1
    assert report.bound_margin >= -1e-9
    assert all(lam >= -1e-10 for lam in report.lambda_min_antiwick)
    assert 0.0 <= report.vacuum_defect <= 1e-9
    # truncations grow as hbar shrinks
    assert all(b >= a for a, b in zip(report.cutoffs, report.cutoffs[1:]))


def test_garding_probe_quantizes_each_symbol_row_with_its_own_coefficient():
    # rows at 0j and -0j merge into one identity row with coefficient 1 + 2
    symbol = trig_polynomial(
        single_mode_grid(), 0.0, [1.0, 2.0], [[0j], [complex(-0.0, 0.0)]]
    )
    report = garding_probe(symbol, [0.25, 0.125, 0.0625])
    assert report.lambda_min == pytest.approx((3.0,) * 3, abs=1e-12)
    assert report.lambda_min_antiwick == pytest.approx((3.0,) * 3, abs=1e-12)


def test_garding_probe_validates_the_symbol():
    from vanhove.weyl import quantize

    symbol, g = _harmonic_symbol()
    with pytest.raises(ValueError, match="classical"):
        garding_probe(quantize(symbol, 0.5), [0.1])
    off_lattice = weyl(from_values(g, np.array([0.5 + 0.0j])), 0.0)
    with pytest.raises(ValueError, match="Gaussian-integer"):
        garding_probe(off_lattice, [0.1])
    # 1 - W(1) - W(-1) is the real function 1 - 2 cos(2 pi x): dips to -1
    w_pm = add(
        weyl(from_values(g, np.array([1.0 + 0.0j])), 0.0, -1.0),
        weyl(from_values(g, np.array([-1.0 + 0.0j])), 0.0, -1.0),
    )
    with pytest.raises(ValueError, match="nonnegative"):
        garding_probe(add(identity(g, 0.0), w_pm), [0.1])
    # i W(1) has characteristic i e^{2 pi i x}: not a real symbol
    with pytest.raises(ValueError, match="real"):
        garding_probe(weyl(from_values(g, np.array([1.0 + 0.0j])), 0.0, 1j), [0.1])
    big = make_grid(panels=2, points=2, r_min=0.5, r_max=1.5)
    with pytest.raises(ValueError, match="single-mode"):
        garding_probe(identity(big, 0.0), [0.1])
    with pytest.raises(ValueError, match="at least one"):
        garding_probe(symbol, [])


def test_antiwick_quantization_never_dips():
    symbol, _ = _harmonic_symbol()
    report = garding_probe(symbol, (0.25, 0.125, 0.0625))
    assert min(report.lambda_min_antiwick) >= -1e-8
