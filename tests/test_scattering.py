"""Scattering: resolved overlaps, the dressing probe, transport against dynamics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from vanhove import (
    dirac,
    inner_product,
    make_grid,
    make_system,
    power_law_gaussian,
    sample,
    zero_function,
)
from vanhove.scattering import (
    FILON_THRESHOLD,
    check_filon_grid,
    flat_panels,
    free_overlap,
    transport_gap,
    transport_state,
)


def test_overlap_at_t_zero_is_the_plain_pairing(system_g03, f_gauss):
    direct = inner_product(f_gauss, system_g03.j_over_omega, 0)
    assert free_overlap(system_g03, f_gauss, 0.0) == pytest.approx(direct, rel=1e-14)


def test_filon_and_plain_rules_agree_at_the_crossover(system_g03, f_gauss):
    # both branches evaluate the same integral near |t| = 32
    below = free_overlap(system_g03, f_gauss, FILON_THRESHOLD - 1e-9)
    above = free_overlap(system_g03, f_gauss, FILON_THRESHOLD + 1e-9)
    assert above == pytest.approx(below, rel=1e-6)
    below = free_overlap(system_g03, f_gauss, -(FILON_THRESHOLD - 1e-9))
    above = free_overlap(system_g03, f_gauss, -(FILON_THRESHOLD + 1e-9))
    assert above == pytest.approx(below, rel=1e-6)


def test_overlap_accepts_arrays_and_scalars(system_g03, f_gauss):
    ts = np.array([0.0, 10.0, 100.0])
    arr = free_overlap(system_g03, f_gauss, ts)
    assert arr.shape == (3,)
    for t, v in zip(ts, arr):
        assert free_overlap(system_g03, f_gauss, float(t)) == pytest.approx(
            v, rel=1e-14
        )


def test_gaussian_overlap_decays_like_one_over_t_squared(grid, f_gauss):
    # for J = e^{-r^2} the stationary-phase endpoint gives |ov| -> 4 pi / t^2
    sys_free_src = make_system(power_law_gaussian(grid, 0.0))
    t = 1000.0
    got = abs(free_overlap(sys_free_src, f_gauss, t))
    assert got == pytest.approx(4.0 * math.pi / t**2, rel=1e-4)


def test_decay_probe_reaches_long_times(system_g03, f_gauss):
    ts = np.geomspace(1.0, 1000.0, 7)
    vals = np.abs(free_overlap(system_g03, f_gauss, ts))
    assert vals.shape == ts.shape
    assert vals[-1] < 1e-2
    assert vals[-1] < vals[0]


def test_long_time_overlap_is_grid_converged(f_gauss, system_g03):
    # the Filon value at t = 1000 moves by < 1e-3 relative under doubling
    fine_grid = make_grid(panels=32, points=64)
    fine_sys = make_system(power_law_gaussian(fine_grid, 0.3))
    fine_f = sample(fine_grid, lambda r: np.exp(-(r**2)))
    coarse = abs(free_overlap(system_g03, f_gauss, 1000.0))
    fine = abs(free_overlap(fine_sys, fine_f, 1000.0))
    assert coarse == pytest.approx(fine, rel=1e-3)


def test_probe_deviation_vanishes_in_the_limit(system_g03, f_gauss):
    # 2 |sin(pi Re ov)| is the distance |e^{-2 pi i Re ov} - 1| of the evolved
    # element from its asymptote
    ov = free_overlap(system_g03, f_gauss, 1000.0)
    deviation = 2.0 * abs(math.sin(math.pi * ov.real))
    assert deviation == pytest.approx(abs(np.exp(-2j * math.pi * ov.real) - 1.0), rel=1e-12)
    assert deviation < 1e-3


@pytest.mark.parametrize(
    "grid_keys",
    [{}, {"panels": 8, "points": 16, "r_min": 1e-4}, {"panels": 8, "r_min": 1e-4},
     {"panels": 4, "points": 17}, {"dim": 4}],
)
def test_transport_gap_is_within_its_tolerance(grid_keys):
    """The Heisenberg and transport routes meet at round-off on every grid,
    below 1e-14 times the size A of their angles, up to the Filon threshold."""
    sys_ = make_system(power_law_gaussian(make_grid(**grid_keys), 0.3))
    grid = sys_.grid
    f = sample(grid, lambda r: np.exp(-(r**2)))
    center = sample(grid, lambda r: (0.3 - 0.2j) * np.exp(-(r**2)))
    ts = (0.0, 1.0, 10.0, FILON_THRESHOLD)
    weights = np.abs(center.values) + np.abs(sys_.j_over_omega.values)
    angle = 2.0 * math.pi * np.sum(grid.measure(0) * np.abs(f.values) * weights)
    assert transport_gap(sys_, center, f, ts) <= 1e-14 * max(1.0, angle)


def test_transport_shifts_the_dirac_center(system_g03, f_gauss):
    # transporting the point mass at alpha lands on alpha - J/omega... the
    # extra phase matches the coherent shift exactly
    center = sample(system_g03.grid, lambda r: 0.4 * np.exp(-(r**2)))
    moved = transport_state(system_g03, dirac(center))
    from vanhove import from_values

    shifted = dirac(
        from_values(
            system_g03.grid, center.values + system_g03.j_over_omega.values
        )
    )
    assert moved.char(f_gauss) == pytest.approx(shifted.char(f_gauss), rel=1e-13)


def test_transport_checks_the_grid(system_g03):
    other = make_grid(panels=4, points=8)
    state = dirac(zero_function(other))
    with pytest.raises(ValueError, match="different grid"):
        transport_state(system_g03, state)


def test_filon_needs_enough_points_per_panel(f_gauss):
    thin = make_grid(points=16)
    with pytest.raises(ValueError, match="points"):
        check_filon_grid(thin)
    check_filon_grid(make_grid(points=17))
    sys_thin = make_system(power_law_gaussian(thin, 0.3))
    f = sample(thin, lambda r: np.exp(-(r**2)))
    with pytest.raises(ValueError, match="points"):
        free_overlap(sys_thin, f, 100.0)


def test_filon_names_a_panel_where_omega_is_flat():
    # hypot(r, 1000) rounds to 1000 on the first panels: refuse before the
    # least-squares fit divides by a zero panel half-width
    heavy = make_grid(mass=1000.0)
    assert list(flat_panels(heavy.panel_edges, heavy.mass)[:1]) == [0]
    assert flat_panels(make_grid(mass=10.0).panel_edges, 10.0).size == 0
    with pytest.warns(UserWarning, match="massive"):
        sys_heavy = make_system(power_law_gaussian(heavy, 0.3))
    f = sample(heavy, lambda r: np.exp(-(r**2)))
    assert np.isfinite(free_overlap(sys_heavy, f, FILON_THRESHOLD))
    with pytest.raises(ValueError, match="flat on panel 0"):
        check_filon_grid(heavy)
    check_filon_grid(make_grid(mass=10.0))
    with pytest.raises(ValueError, match="flat on panel 0"):
        free_overlap(sys_heavy, f, 100.0)
