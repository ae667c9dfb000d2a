"""Dynamics: flow identities, Heisenberg/Schroedinger duality, KMS, windows."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vanhove import (
    classical_energy,
    classical_flow,
    coherent,
    evaluate,
    evolve_state,
    evolve_weyl,
    gibbs_quantum,
    ground_energy,
    ground_state_check,
    inner_product,
    kms_check,
    kms_window,
    make_grid,
    make_system,
    power_law_gaussian,
    realize,
    sample,
    weighted_norm_sq,
    zero_function,
    from_values,
)
from vanhove import dynamics
from vanhove.dynamics import WINDOW_TOL, window_transform
from conftest import (
    ONE_PAIR,
    STATE_KINDS,
    WIDTHS,
    every_state,
    gaussians,
    random_pair_coeffs,
)


@pytest.fixture(scope="module")
def alpha0(grid):
    return sample(grid, lambda r: (0.6 - 0.3j) * np.exp(-1.5 * r**2))


# --------------------------------------------------------------------------
# classical layer


def test_the_dressed_minimizer_is_stationary(system_g03):
    minimizer = from_values(system_g03.grid, -system_g03.j_over_omega.values)
    for t in (0.5, 3.0, -40.0):
        moved = classical_flow(system_g03, minimizer, t)
        assert np.allclose(moved.values, minimizer.values, atol=1e-15)


def test_ground_energy_is_the_classical_minimum(system_g03, alpha0):
    e_min = ground_energy(system_g03)
    minimizer = from_values(system_g03.grid, -system_g03.j_over_omega.values)
    assert classical_energy(system_g03, minimizer) == pytest.approx(e_min, rel=1e-12)
    assert classical_energy(system_g03, alpha0) > e_min
    assert e_min == pytest.approx(-weighted_norm_sq(system_g03.j, -1), rel=1e-15)


def test_flow_is_a_one_parameter_group(system_g03, alpha0):
    a = classical_flow(system_g03, classical_flow(system_g03, alpha0, 1.3), -0.4)
    b = classical_flow(system_g03, alpha0, 0.9)
    assert np.allclose(a.values, b.values, atol=1e-14)
    back = classical_flow(system_g03, classical_flow(system_g03, alpha0, 7.0), -7.0)
    assert np.allclose(back.values, alpha0.values, atol=1e-14)


def test_energy_is_conserved_along_the_flow(system_g03, alpha0):
    e0 = classical_energy(system_g03, alpha0)
    for t in (0.1, 12.0, -250.0, 1e3):
        e_t = classical_energy(system_g03, classical_flow(system_g03, alpha0, t))
        assert abs(e_t - e0) <= 1e-12 * max(abs(e0), 1.0)


# --------------------------------------------------------------------------
# Heisenberg evolution and its transpose


def test_heisenberg_evolution_rotates_the_generator(system_g03, f_gauss):
    from vanhove.weyl import weyl

    h = 0.4
    t = 1.7
    moved = evolve_weyl(system_g03, weyl(f_gauss, h), t)
    assert len(moved.coeffs) == 1
    assert np.allclose(
        moved.gens[0],
        f_gauss.values * np.exp(1j * t * system_g03.grid.omega),
    )
    assert abs(moved.coeffs[0]) == pytest.approx(1.0, abs=1e-15)


def test_heisenberg_evolution_is_a_group_on_coefficients(system_g03, f_gauss):
    from vanhove.weyl import weyl

    h = 0.4
    a = weyl(f_gauss, h)
    two_step = evolve_weyl(system_g03, evolve_weyl(system_g03, a, 0.8), 1.2)
    one_step = evolve_weyl(system_g03, a, 2.0)
    assert two_step.coeffs[0] == pytest.approx(one_step.coeffs[0], abs=1e-13)
    # generators agree numerically; their bytes may differ in the last ulp
    # because the phases were accumulated in a different order
    np.testing.assert_allclose(
        two_step.gens[0],
        one_step.gens[0],
        rtol=1e-12,
        atol=0.0,
    )


def test_schroedinger_picture_is_the_transpose(system_g03, f_gauss, g_gauss):
    # omega_t(A) = omega(tau_t[A]) for every term of a two-term polynomial
    from vanhove.weyl import add, weyl

    h = 0.3
    t = 2.4
    center = sample(system_g03.grid, lambda r: (0.2 + 0.9j) * np.exp(-(r**2)))
    state = coherent(center, h)
    a = add(weyl(f_gauss, h, 1.1 - 0.7j), weyl(g_gauss, h, 0.5j))
    lhs = evaluate(evolve_state(system_g03, state, t), a)
    rhs = evaluate(state, evolve_weyl(system_g03, a, t))
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("t", [-11.0, 0.7, 300.0])
@pytest.mark.parametrize("kind", STATE_KINDS)
def test_schroedinger_and_heisenberg_pictures_agree_for_every_state(
    system_g03, f_gauss, g_gauss, kind, t
):
    # the closed-form centre flow of evolve_state against the dressing angle
    # evolve_weyl applies term by term
    from vanhove.weyl import add, weyl

    center = sample(system_g03.grid, lambda r: (0.2 + 0.9j) * np.exp(-(r**2)))
    state = every_state(center, system_g03.source)[kind]
    h = state.hbar
    a = add(weyl(f_gauss, h, 1.1 - 0.7j), weyl(g_gauss, h, 0.5j))
    lhs = evaluate(evolve_state(system_g03, state, t), a)
    rhs = evaluate(state, evolve_weyl(system_g03, a, t))
    assert abs(lhs - rhs) <= 1e-13


def test_gibbs_states_are_invariant_under_their_dynamics(system_g03, panel):
    state = gibbs_quantum(system_g03.source, 1.5, 0.5)
    for t in (0.7, -11.0, 300.0):
        moved = evolve_state(system_g03, state, t)
        for f in panel:
            assert moved.char(f) == pytest.approx(state.char(f), abs=1e-13)


def test_dressed_ground_state_is_invariant(system_g03, panel):
    state = gibbs_quantum(system_g03.source, math.inf, 0.3)
    moved = evolve_state(system_g03, state, 5.0)
    for f in panel:
        assert moved.char(f) == pytest.approx(state.char(f), abs=1e-13)


def test_coherent_states_are_transported_along_the_flow(system_g03, alpha0, f_gauss):
    # evolving the coherent state at alpha is the coherent state at Phi_t(alpha)
    h = 0.25
    t = 3.1
    lhs = evolve_state(system_g03, coherent(alpha0, h), t)
    rhs = coherent(classical_flow(system_g03, alpha0, t), h)
    assert lhs.char(f_gauss) == pytest.approx(rhs.char(f_gauss), rel=1e-12)


def test_evolution_rejects_foreign_grids(system_g03):
    from vanhove.weyl import weyl

    other = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="different grid"):
        evolve_weyl(system_g03, weyl(zero_function(other), 0.1), 1.0)


_TIME_GRIDS = [{}, {"panels": 8, "points": 16, "r_min": 1e-4}]


def _ladder_gap(start: float, stop: float, omega: np.ndarray) -> np.ndarray:
    """Per node, the largest |ladder - np.exp| entry: 6 eps (1 + T omega), T =
    max(|start|, |stop|).  Both sides share the step s; against start + i s the
    anchor (two roundings) and the comb tooth (one) miss by <= 3uT and uT,
    linspace's t (two, or stop itself) by <= 4uT, and the three products by omega
    by uT omega each: 11 uT omega of angle, u = eps / 2.  Three complex exps and
    one complex product add <= (6 sqrt 2 + sqrt 5) u < 11 u: 5.5 eps (1 + T omega)
    to first order."""
    return 6.0 * np.finfo(float).eps * (1.0 + max(abs(start), abs(stop)) * omega)


def _time_axes(rows: int) -> list[tuple[float, float, int]]:
    # three full chunks, a short fourth, negative times; one point; a short
    # first and only chunk off zero
    return [(-1000.0, 1000.0, 3 * rows + 4), (-3.0, 7.0, 1), (20.0, 1e5, rows - 1)]


@pytest.mark.parametrize("grid_keys", _TIME_GRIDS)
def test_phase_ladder_is_np_exp_within_its_rounding_bound(grid_keys):
    omega = make_grid(**grid_keys).omega
    for start, stop, count in _time_axes(dynamics._ROW_CHUNK // omega.size):
        parts, tables = zip(*dynamics._phase_rows(start, stop, count, omega))
        assert [i for part in parts for i in range(count)[part]] == list(range(count))
        table = np.concatenate(tables)
        direct = np.exp(np.multiply.outer(1j * np.linspace(start, stop, count), omega))
        assert np.all(np.abs(table - direct) <= _ladder_gap(start, stop, omega))


@pytest.mark.parametrize("grid_keys", _TIME_GRIDS)
def test_time_axis_routes_are_the_scalar_routes_within_the_ladder_bound(grid_keys):
    # a phase entry at node k off by <= gap_k moves the flowed field by
    # |alpha + J/omega| gap_k, so the energy by <= sum 2 |a| (m_1 (|a| + |J/omega|)
    # + m_0 |J|) gap, and the value by <= |chi| sum (2 pi m_0 |f| (|J/omega| + |c|)
    # + 2 |scale| w |f|^2) gap through the dressing angle, the centre angle and
    # the Gaussian.  Twice that covers the sums' own rounding, which at equal
    # phases was bitwise the scalar routes'.
    from vanhove.weyl import weyl

    grid = make_grid(**grid_keys)
    sys_ = make_system(power_law_gaussian(grid, 0.3))
    alpha = sample(grid, lambda r: (0.6 - 0.3j) * np.exp(-1.5 * r**2))
    f = sample(grid, lambda r: np.exp(-(r**2)))
    state = gibbs_quantum(sys_.source, 1.0, 0.5)
    probe = weyl(f, state.hbar)
    m0, m1 = grid.measure(0), grid.measure(1)
    a, jw = np.abs((alpha + sys_.j_over_omega).values), np.abs(sys_.j_over_omega.values)
    energy_size = 2.0 * a * (m1 * (a + jw) + m0 * np.abs(sys_.j.values))
    char_size = 2.0 * math.pi * m0 * np.abs(f.values) * (jw + np.abs(state.center.values))
    char_size += 2.0 * abs(state.scale) * state.weight * np.abs(f.values) ** 2
    for start, stop, count in _time_axes(dynamics._ROW_CHUNK // grid.size):
        gap = _ladder_gap(start, stop, grid.omega)
        energies, chars = dynamics.evolve_rows(sys_, alpha, state, f, start, stop, count)
        for t, e_t, char_t in zip(np.linspace(start, stop, count), energies, chars):
            energy = classical_energy(sys_, classical_flow(sys_, alpha, t))
            assert abs(e_t - energy) <= 2.0 * np.sum(gap * energy_size)
            char = evaluate(state, evolve_weyl(sys_, probe, t))
            assert abs(char_t - char) <= 2.0 * abs(char) * np.sum(gap * char_size)


def test_the_flow_route_refuses_an_orbit_that_overflows(system_g03, f_gauss):
    # as classical_flow does: |alpha + J/omega| is finite, but a rotated
    # sample's real part x cos - y sin is not
    grid = system_g03.grid
    alpha = from_values(grid, np.full(grid.size, 1.7e308 * (1.0 + 0.5j)))
    state = gibbs_quantum(system_g03.source, 1.0, 0.5)
    ts = np.linspace(-10.0, 10.0, 21)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="samples must be finite"):
            [classical_flow(system_g03, alpha, t) for t in ts]
        with pytest.raises(ValueError, match="samples must be finite"):
            dynamics.evolve_rows(system_g03, alpha, state, f_gauss, -10.0, 10.0, 21)


def test_make_system_refuses_type_ii_sources(grid):
    with pytest.raises(ValueError, match="type_ii"):
        make_system(power_law_gaussian(grid, 1.2))
    # one classification and one refusal text: the dressed states'
    for gamma in (1.2, 1.6):
        spec = power_law_gaussian(grid, gamma)
        with pytest.raises(ValueError) as system_refusal:
            make_system(spec)
        with pytest.raises(ValueError) as state_refusal:
            gibbs_quantum(spec, 1.0, 0.5)
        assert str(system_refusal.value) == str(state_refusal.value)


@pytest.mark.parametrize(
    "gamma, ir_cutoff, mass", [(0.3, None, 0.0), (0.8, None, 0.0), (1.2, 5, 0.0), (0.3, None, 1.0)],
    ids=["regular", "type_i", "cutoff", "massive"],
)
def test_make_system_takes_j_over_omega_from_the_dressed_center(gamma, ir_cutoff, mass):
    # minus the dressed centre -J/omega equals the quotient J/omega at every
    # node: bitwise in the real parts; the imaginary zeros are -0 here, +0 there
    grid = make_grid(mass=mass)
    spec = power_law_gaussian(grid, gamma, ir_cutoff=ir_cutoff)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "massive dispersion", UserWarning)
        sys_ = make_system(spec)
    direct = realize(spec).values / grid.omega
    assert np.array_equal(sys_.j_over_omega.values, direct)
    assert sys_.j_over_omega.values.real.tobytes() == direct.real.tobytes()
    assert np.array_equal(sys_.j.values, realize(spec).values)


def test_make_system_realizes_its_source_once(grid, monkeypatch):
    # J and -J/omega come from one realize, wherever a module imported it;
    # a refused source is classified before it is realized
    import sys

    from vanhove import sources

    calls = []
    real = sources.realize

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("vanhove") and getattr(module, "realize", None) is real:
            monkeypatch.setattr(module, "realize", counted)
    for gamma, ir_cutoff in ((0.3, None), (0.8, None), (1.2, 5)):
        calls.clear()
        spec = power_law_gaussian(grid, gamma, ir_cutoff=ir_cutoff)
        make_system(spec)
        assert calls == [spec]
    calls.clear()
    with pytest.raises(ValueError, match="type_ii"):
        make_system(power_law_gaussian(grid, 1.2))
    assert calls == []


# --------------------------------------------------------------------------
# KMS boundary condition


def test_kms_residual_is_at_arithmetic_level(system_g03, f_gauss, g_gauss):
    members = [f_gauss.values, g_gauss.values]
    for beta in (0.5, 1.0, 4.0, 40.0):
        state = gibbs_quantum(system_g03.source, beta, 0.5)
        defects = kms_check(system_g03, state, beta, members, ONE_PAIR, -5.0, 5.0, 41)
        assert defects.max() <= 1e-14, f"beta_h={beta}"


def test_kms_residual_with_random_arguments(system_g03):
    rng = np.random.default_rng(5)
    state = gibbs_quantum(system_g03.source, 2.0, 0.3)
    coeffs = random_pair_coeffs(rng, 5)
    members = gaussians(system_g03.grid)
    assert kms_check(system_g03, state, 2.0, members, coeffs, -3.0, 3.0, 13).max() <= 1e-14


def test_kms_check_needs_a_finite_temperature_gibbs_state(
    system_g03, f_gauss, g_gauss
):
    # the check reads the state's covariance, so a state that is not the Gibbs
    # state at the beta_h it is checked at fails it
    center = sample(system_g03.grid, lambda r: np.exp(-(r**2)))
    members = [f_gauss.values, g_gauss.values]
    for state, beta_h in (
        (coherent(center, 0.5), 1.0),
        (gibbs_quantum(system_g03.source, math.inf, 0.5), 1.0),
        (gibbs_quantum(system_g03.source, 1.0, 0.5), 2.0),
        (gibbs_quantum(system_g03.source, 1.0, 0.5), 1.001),
    ):
        defects = kms_check(system_g03, state, beta_h, members, ONE_PAIR, -3.0, 3.0, 7)
        assert defects.max() > 1e-12, beta_h
    gibbs = gibbs_quantum(system_g03.source, 1.0, 0.5)
    for beta_h in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta_h"):
            kms_check(system_g03, gibbs, beta_h, members, ONE_PAIR, -3.0, 3.0, 7)


def test_kms_check_refuses_members_and_coefficients_that_do_not_pair(
    system_g03, f_gauss, g_gauss
):
    gibbs = gibbs_quantum(system_g03.source, 1.0, 0.5)
    members = [f_gauss.values, g_gauss.values]
    for bad_members, coeffs in (
        ([f_gauss.values[:-1], g_gauss.values[:-1]], ONE_PAIR),
        (members, [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]),
        (members, [[1.0, 0.0], [0.0, 1.0]]),
    ):
        with pytest.raises(ValueError, match="members and .* coefficients"):
            kms_check(system_g03, gibbs, 1.0, bad_members, coeffs, -3.0, 3.0, 7)
    for bad_members, coeffs in (
        ([f_gauss.values * math.nan, g_gauss.values], ONE_PAIR),
        (members, [[[math.inf, 0.0], [0.0, 1.0]]]),
    ):
        with pytest.raises(ValueError, match="finite"):
            kms_check(system_g03, gibbs, 1.0, bad_members, coeffs, -3.0, 3.0, 7)


@pytest.mark.parametrize("twisted", [False, True], ids=["gaussians", "twisted"])
def test_kms_cross_terms_are_the_per_pair_route_within_rounding(system_g03, twisted):
    """The atom route against the per-pair route it replaced, kept here as the
    reference.  At the bench config (201 times on the default grid) each
    pair's members f and g are summed, conj(f) g is weighted by the four
    per-node factors, and one matmul against the np.exp phase table gives its
    cross terms.  Both sides of 70 pairs (four blocks and a padded tail) agree
    within the rounding bound: per node, the ladder's 6 eps (1 + T omega) plus
    the worst case of a length-(N + K^2) sum, (N + K^2 + 8) eps, on
    sum_n |factor_n| (|c| |u|)_n (|d| |u|)_n, the size of every term of either
    route.  The CLI's Gaussians are real, so the members are also taken
    twisted by e^{i s r}, where conj(u_i) u_j is not u_i u_j."""
    grid = system_g03.grid
    beta_h, count = 1.0, 201
    state = gibbs_quantum(system_g03.source, beta_h, 0.5)
    members = gaussians(grid)
    if twisted:
        members = members * np.exp(1j * np.multiply.outer(WIDTHS, grid.nodes))
    coeffs = random_pair_coeffs(np.random.default_rng(17), 70)
    blocks = dynamics._kms_cross_terms(
        system_g03, state, beta_h, members, coeffs, -5.0, 5.0, count
    )
    lhs, rhs = (np.hstack(side) for side in zip(*blocks))
    assert lhs.shape == rhs.shape == (count, len(coeffs))

    m, x = grid.measure(0), 0.5 * beta_h * grid.omega
    with np.errstate(over="ignore"):
        a_lhs = 2.0 * m / np.expm1(2.0 * x)
    factors = np.stack([a_lhs, 2.0 * m / -np.expm1(-2.0 * x), state.weight - m, state.weight + m])
    phases = np.exp(1j * np.multiply.outer(np.linspace(-5.0, 5.0, count), grid.omega))
    eps = np.finfo(float).eps
    per_node = _ladder_gap(-5.0, 5.0, grid.omega) + (grid.size + len(members) ** 2 + 8) * eps
    for k, (c, d) in enumerate(coeffs):
        f = sum(ci * u for ci, u in zip(c, members))
        g = sum(di * u for di, u in zip(d, members))
        ref_a_lhs, ref_b_lhs, ref_a_rhs, ref_b_rhs = (phases @ (factors * (np.conj(f) * g)).T).T
        size = np.abs(factors) * (np.abs(c) @ np.abs(members)) * (np.abs(d) @ np.abs(members))
        bound = size @ per_node
        assert np.all(np.abs(lhs[:, k] - (ref_a_lhs + np.conj(ref_b_lhs))) <= bound[0] + bound[1])
        assert np.all(np.abs(rhs[:, k] - (ref_a_rhs + np.conj(ref_b_rhs))) <= bound[2] + bound[3])


def test_kms_check_memory_does_not_grow_with_the_pair_count(system_g03):
    # the bench config's 201 times: forty blocks of pairs peak within one
    # block's peak plus, per further pair, at most its 2K complex coefficients
    # (a copy, were they passed as another dtype) and its defect.  Both stay
    # within what the atom route forms once (the complex members, K^2 atoms,
    # 4K^2 weighted atoms and (4, t, K^2) tables), three budgets of a block's
    # cross terms and three phase-row chunks: no (t, N) phase table
    grid = system_g03.grid
    state = gibbs_quantum(system_g03.source, 1.0, 0.5)
    members = gaussians(grid)
    k, t_points = len(members), 201
    block = dynamics.kms_block(t_points)
    per_pair = 2 * k * 16 + 8

    def peak(count: int) -> int:
        coeffs = random_pair_coeffs(np.random.default_rng(9), count)
        tracemalloc.start()
        try:
            kms_check(system_g03, state, 1.0, members, coeffs, -5.0, 5.0, t_points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many = peak(40 * block)
    assert many - peak(block) <= 39 * block * per_pair
    once = 16 * (k * grid.size + 5 * k**2 * grid.size + 4 * t_points * k**2)
    chunks = 16 * 3 * (dynamics._PAIR_BLOCK + dynamics._ROW_CHUNK)
    assert many <= once + chunks + 40 * block * per_pair


# --------------------------------------------------------------------------
# frequency windows


@pytest.fixture(scope="module")
def negative_window():
    return kms_window(-3.0, -1.0)


def test_window_transform_matches_the_unfactored_rule(negative_window):
    # the blocked einsum must agree with the plain sum over all sigma nodes
    w = negative_window
    nodes = w.sigma_nodes
    weights = w.sigma_weights.ravel()
    for t in (0.0, 0.37, 21.0, 333.3):
        direct = np.sum(weights * np.exp(-1j * nodes * t))
        assert window_transform(w, t) == pytest.approx(direct, abs=1e-13)


_WINDOWS = [(-3.0, -1.0), (1.0, 3.0), (14.0, 16.0), (-7.0, 1.0)]


def _direct(window, t):
    """F(t) = sum over every sigma node of w e^{-i sigma t}, one exp per (t, sigma)."""
    return np.exp(-1j * np.multiply.outer(t, window.sigma_nodes)) @ window.sigma_weights.ravel()


@pytest.fixture(scope="module", params=_WINDOWS, ids=lambda w: f"[{w[0]:g},{w[1]:g}]")
def scan_and_window(request):
    """The window resolved to t = 5000, and the one kms_window returns."""
    s_minus, s_plus = request.param
    return kms_window(s_minus, s_plus, t_max=5000.0), kms_window(s_minus, s_plus)


def test_phase_grid_matches_the_direct_sum(scan_and_window):
    # the scan ladder 0, 2, ..., 5000 (anchors x comb) and the ground-state
    # ladder (anchors x comb x Gauss-Legendre offsets) of the rule's positive
    # half, with a second weight set i w, on a subsample of rows
    scan, w = scan_and_window
    anchors, comb = dynamics._ladder(0.0, 2.0, 2501)
    grid = dynamics._phase_grid(
        scan.sigma_mids, scan.sigma_offsets, scan.sigma_weights[None], anchors, comb, np.zeros(1)
    )[0, :2501, 0]
    rows = np.arange(0, 2501, 47)
    assert np.max(np.abs(grid[rows] - _direct(scan, 2.0 * rows))) <= 1e-12 * scan.peak

    n_half = math.ceil(w.t_max / 0.25)
    half = w.t_max / (2 * n_half)
    offsets = half * np.polynomial.legendre.leggauss(10)[0]
    anchors, comb = dynamics._ladder(half, 2.0 * half, n_half)
    weights = np.stack([w.sigma_weights, 1j * w.sigma_weights])
    grid = dynamics._phase_grid(w.sigma_mids, w.sigma_offsets, weights, anchors, comb, offsets)
    rows = np.arange(0, n_half, 47)
    direct = _direct(w, (half + 2.0 * half * rows)[:, None] + offsets[None, :])
    assert np.max(np.abs(grid[0, rows] - direct)) <= 1e-12 * w.peak
    assert np.max(np.abs(grid[1, rows] - 1j * direct)) <= 1e-12 * w.peak


def test_unit_window_decays_below_the_drop_from_596_on():
    # |F| of the unit window (h = 1) on every rung of 0, 2, ..., 5000, each
    # from its own exponentials (per panel mid and per offset): the first rung
    # past which |F| stays below 1e-12 of the peak is the scale law's 596
    unit = kms_window(-1.0, 1.0, t_max=5000.0)
    t = np.arange(0.0, 5002.0, 2.0)
    vals = np.concatenate([
        np.abs(np.sum(
            (np.exp(-1j * np.multiply.outer(ts, unit.sigma_mids)) @ unit.sigma_weights)
            * np.exp(-1j * np.multiply.outer(ts, unit.sigma_offsets)),
            axis=1,
        ))
        for ts in np.array_split(t, 20)
    ])
    above = np.flatnonzero(vals >= 1e-12 * unit.peak)
    assert t[above[-1] + 1] == dynamics._DECAY_K == 596.0


def test_auto_t_max_matches_a_direct_scan(scan_and_window):
    # |F| on every rung of 0, 2, ..., 5000, each from its own exponentials
    # (per panel mid and per offset); the first rung past which |F| stays
    # below 1e-12 of the peak, plus the margin of 25, is the scan's t_max.
    # The scale law's t_max is that, or later by less than one rung: at
    # h = 1 they agree, at [-7, 1] (h = 4) the scan gives 173, the law 174
    scan, w = scan_and_window
    t = np.arange(0.0, 5002.0, 2.0)
    vals = np.concatenate([
        np.abs(np.sum(
            (np.exp(-1j * np.multiply.outer(ts, scan.sigma_mids)) @ scan.sigma_weights)
            * np.exp(-1j * np.multiply.outer(ts, scan.sigma_offsets)),
            axis=1,
        ))
        for ts in np.array_split(t, 20)
    ])
    above = np.flatnonzero(vals >= 1e-12 * scan.peak)
    scanned = t[above[-1] + 1] + 25.0
    assert scanned <= w.t_max < scanned + 2.0
    if w.s_plus - w.s_minus == 2.0:
        assert w.t_max == scanned


_WIDTHS = [0.25, 0.5, 1.0, 2.0, 3.0, 8.0]


@pytest.mark.parametrize(
    "width, s_minus",
    [(w, s) for s in (-3.0, 14.0, 100.0) for w in _WIDTHS],
)
def test_t_max_follows_the_scale_law(width, s_minus):
    h = 0.5 * width
    assert kms_window(s_minus, s_minus + width).t_max == 596.0 / h + 25.0


@pytest.mark.parametrize("width", _WIDTHS)
def test_the_margin_covers_the_dense_crossing(width):
    # |F(t)| / F(0) = |B(h t)| / B(0) crosses 1e-12 at h t ~ 597.7 between the
    # rungs, so the unfactored sum stays below it on a fine ladder from 598 / h
    # to t_max.  Read near sigma = 0: far out, the rounding of the nodes, the
    # panel widths and the phases sigma t lifts |F| there to ~1e-12 of its peak.
    h = 0.5 * width
    w = kms_window(-3.0, -3.0 + width)
    t = np.arange(598.0 / h, w.t_max, 0.05 / h)
    assert np.max(np.abs(_direct(w, t))) < 1e-12 * w.peak


def test_window_refuses_a_narrow_window_and_a_rule_that_misses_its_integral():
    # t_max = 596 / h + 25 past 5000, and nodes that rounding flattens onto the
    # profile's zero ends at 1e15
    with pytest.raises(ValueError, match="does not decay"):
        kms_window(-3.0, -2.8)
    with pytest.raises(ValueError, match="integrates its profile"):
        kms_window(1e15, 1e15 + 2)
    # far from sigma = 0 the rounded edges move the nodes, but the half-width
    # comes from the width itself, so the rule keeps its integral h B(0)
    for s_minus, s_plus in ((100.0, 100.5), (300.0, 302.0), (-1000.0, -998.0), (1000.0, 1002.0)):
        integral = 0.5 * (s_plus - s_minus) * dynamics._BUMP_INTEGRAL
        assert kms_window(s_minus, s_plus).peak == pytest.approx(integral, rel=1e-14)


@pytest.mark.parametrize(
    "s_minus, s_plus, chirp", [(1.0, 3.0, 0.0), (-7.0, 1.0, 0.7)], ids=["[1,3]", "[-7,1]"]
)
def test_ground_state_check_matches_the_unfactored_evaluation(
    system_g03, f_gauss, g_gauss, s_minus, s_plus, chirp
):
    # one exp per (t, omega) and per (t, sigma) at every time node of both
    # halves; a short t_max keeps that affordable without changing the rule.
    # [-7, 1] straddles sigma = 0, where a mirror missing a conjugate shows,
    # and its chirped g makes conj(f) g complex, so s(-t) != conj s(t) there
    window = kms_window(s_minus, s_plus, t_max=100.0)
    grid = system_g03.grid
    g_gauss = from_values(grid, g_gauss.values * np.exp(1j * chirp * grid.nodes))
    hbar = 0.1
    n_panels = dynamics.ground_state_panels(grid, window)
    edges = np.linspace(-100.0, 100.0, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    x, wg = np.polynomial.legendre.leggauss(10)
    t = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x[None, :]
    v = grid.measure(0) * np.conj(f_gauss.values) * g_gauss.values
    overlap = np.exp(1j * np.multiply.outer(t.ravel(), grid.omega)) @ v
    c0 = math.exp(-0.5 * math.pi**2 * hbar * (
        weighted_norm_sq(f_gauss, 0) + weighted_norm_sq(g_gauss, 0)
    ))
    center = from_values(grid, -system_g03.j_over_omega.values)
    p = np.exp(2j * math.pi * inner_product(f_gauss + g_gauss, center, 0).real)
    corr = c0 * p * np.exp(-math.pi**2 * hbar * overlap)
    expect = abs(np.sum(np.tile(half * wg, n_panels) * _direct(window, t.ravel()) * corr))
    report = ground_state_check(system_g03, f_gauss, g_gauss, window, hbar=hbar)
    assert report.t_points == t.size
    assert report.value == pytest.approx(expect, rel=1e-12)


def test_the_time_rule_is_its_positive_half_and_that_half_mirrored(system_g03):
    # every node -t of the negative half is a node t of the positive half
    # negated, with the same weight, and on those nodes the window transform
    # (real weights) is the conjugate: F(-t) = conj F(t)
    window = kms_window(-7.0, 1.0)
    n_panels = dynamics.ground_state_panels(system_g03.grid, window)
    half = window.t_max / n_panels
    x, wg = np.polynomial.legendre.leggauss(10)
    offsets, node_w = half * x, half * wg
    anchors, comb = dynamics._ladder(half, 2.0 * half, n_panels // 2)
    mids = (anchors[:, None] + comb[None, :]).ravel()[: n_panels // 2]
    positive = mids[:, None] + offsets[None, :]
    negative = -mids[:, None] + offsets[None, :]
    assert np.array_equal(negative[:, ::-1], -positive)
    assert np.array_equal(node_w[::-1], node_w)
    # the halves tile [-t_max, t_max] as the full rule's panels do
    full = np.linspace(-window.t_max, window.t_max, n_panels + 1)
    assert np.allclose(mids, 0.5 * (full[1:] + full[:-1])[n_panels // 2 :], rtol=0, atol=1e-12)
    t = positive.ravel()
    gap = window_transform(window, -t) - np.conj(window_transform(window, t))
    assert np.max(np.abs(gap)) <= 1e-15 * window.peak


def test_window_peak_and_decay(negative_window):
    w = negative_window
    assert w.peak > 0.0
    assert window_transform(w, 0.0) == pytest.approx(w.peak, rel=1e-15)
    ts = np.linspace(w.t_max, 2.0 * w.t_max, 64)
    assert np.max(np.abs(window_transform(w, ts))) < 1e-12 * w.peak


def test_window_accepts_an_explicit_t_max():
    w = kms_window(1.0, 3.0, t_max=100.0)
    assert w.t_max == 100.0
    with pytest.raises(ValueError, match="s_minus < s_plus"):
        kms_window(3.0, 1.0)


def test_ground_state_correlation_has_no_negative_frequencies(
    system_g03, f_gauss, g_gauss, negative_window
):
    report = ground_state_check(system_g03, f_gauss, g_gauss, negative_window)
    assert report.value <= WINDOW_TOL
    assert report.is_annihilated


def test_positive_frequency_window_sees_the_excitation(
    system_g03, f_gauss, g_gauss
):
    window = kms_window(1.0, 3.0)
    report = ground_state_check(system_g03, f_gauss, g_gauss, window)
    assert report.value > 1e-2
    assert not report.is_annihilated
    # doubling the time quadrature does not move the answer
    fine = ground_state_check(system_g03, f_gauss, g_gauss, window, resolution=2)
    assert fine.value == pytest.approx(report.value, rel=1e-10)


def test_window_outside_the_dispersion_range_sees_nothing(
    system_g03, f_gauss, g_gauss
):
    # the grid tops out at r_max = 12, so frequencies above it are empty
    window = kms_window(14.0, 16.0)
    report = ground_state_check(system_g03, f_gauss, g_gauss, window)
    assert report.value <= WINDOW_TOL


def test_the_time_rule_follows_the_bandwidth_at_the_defaults(system_g03):
    # panels of at most 6 / (3 + max omega) = 6 / 14.99..., so 2 * 1552 of them
    # on [-621, 621]
    window = kms_window(-3.0, -1.0)
    assert dynamics.ground_state_panels(system_g03.grid, window) * 10 == 31040


@pytest.mark.parametrize(
    "mass, s_minus, s_plus",
    [(100.0, -3.0, -1.0), (0.0, -102.0, -100.0)],
    ids=["mass=100", "[-102,-100]"],
)
def test_negative_windows_far_from_zero_are_annihilated(mass, s_minus, s_plus):
    # the dispersion reaching ~100.7, or the window reaching sigma = -102: the
    # step follows either, so neither aliases onto the window
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "massive dispersion", UserWarning)
        sys_ = make_system(power_law_gaussian(make_grid(mass=mass), 0.3))
    f = sample(sys_.grid, lambda r: np.exp(-(r**2)))
    g = sample(sys_.grid, lambda r: np.exp(-2.0 * r**2))
    window = kms_window(s_minus, s_plus)
    report = ground_state_check(sys_, f, g, window)
    fine = ground_state_check(sys_, f, g, window, resolution=2)
    assert report.is_annihilated and fine.is_annihilated
    assert report.value == pytest.approx(fine.value, abs=1e-12)


def test_a_window_above_the_spectrum_does_not_alias(system_g03, f_gauss, g_gauss):
    # sigma in [100, 102], far above max omega ~ 12: nothing to see, and a step
    # fixed at 0.25 read ~2.5e-6 there
    report = ground_state_check(system_g03, f_gauss, g_gauss, kms_window(100.0, 102.0))
    assert report.value <= WINDOW_TOL


def test_ground_state_check_validation(system_g03, f_gauss, negative_window):
    other = make_grid(panels=4, points=8)
    for hbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            ground_state_check(
                system_g03, f_gauss, f_gauss, negative_window, hbar=hbar
            )
    with pytest.raises(ValueError, match="different grid"):
        ground_state_check(
            system_g03, f_gauss, zero_function(other), negative_window
        )


def test_inner_product_convention_matches_the_phase(system_g03, f_gauss):
    # the evolved coefficient is exactly e^{2 pi i Re <f, (e^{-i t w} - 1) J/w>}
    from vanhove.weyl import weyl

    t = 1.9
    grid = system_g03.grid
    shifted = from_values(
        grid,
        (np.exp(-1j * t * grid.omega) - 1.0) * system_g03.j_over_omega.values,
    )
    expect = np.exp(2j * math.pi * inner_product(f_gauss, shifted, 0).real)
    got = evolve_weyl(system_g03, weyl(f_gauss, 0.7), t).coeffs[0]
    assert got == pytest.approx(expect, abs=1e-14)
