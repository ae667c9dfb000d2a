"""Semiclassical sweeps: fitted rates per scaling regime."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from vanhove import (
    gibbs_classical,
    gibbs_quantum,
    sample,
    weighted_norm_sq,
)
from vanhove import semiclassics
from vanhove.semiclassics import (
    DEFAULT_HBAR_LADDER,
    GroundState,
    Linear,
    Regime,
    SubLinear,
    SuperLinear,
    default_panel,
    equilibrium_sweep,
    fit_rate,
    flow_gap,
)

_PI2 = math.pi**2


@pytest.fixture(scope="module")
def center(grid):
    return sample(grid, lambda r: (1.0 + 0.5j) * np.exp(-(r**2)))


def test_default_ladder_and_panel(grid):
    assert DEFAULT_HBAR_LADDER[0] == 0.125
    assert len(DEFAULT_HBAR_LADDER) == 12
    assert all(b < a for a, b in zip(DEFAULT_HBAR_LADDER, DEFAULT_HBAR_LADDER[1:]))
    assert len(default_panel(grid)) == 8


def test_fit_rate_recovers_a_planted_slope():
    hs = [2.0**-k for k in range(3, 11)]
    devs = [0.03 * h**1.75 for h in hs]
    assert fit_rate(hs, devs) == pytest.approx(1.75, abs=1e-12)


def test_fit_rate_needs_points_inside_the_window():
    hs = [0.1, 0.05, 0.025, 0.0125]
    with pytest.raises(ValueError, match="rate fit"):
        fit_rate(hs, [1e-14, 1e-14, 1e-15, 1e-16])


def test_ladder_must_decrease():
    for ladder in ([0.1, 0.2], [math.inf, 0.1], [0.1, math.nan], [math.nan, 0.1], [0.1, 0.0]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            fit_ladder_probe(ladder)


def fit_ladder_probe(hbars):
    # go through a cheap public entry point that validates the ladder
    from vanhove import make_grid, make_system, power_law_gaussian

    g = make_grid(panels=4, points=8)
    sys_small = make_system(power_law_gaussian(g, 0.0))
    c = sample(g, lambda r: np.exp(-(r**2)))
    return equilibrium_sweep(sys_small, GroundState(), [c], hbars)


def test_egorov_deviation_has_the_exact_closed_form(system_g03, f_gauss):
    # the ground state is the coherent state at the dressed point mass, so per
    # test function its deviation is |e^{-(pi^2 h / 2)||f||^2} - 1|, the gap of
    # any coherent state to its point mass at any evolution time
    rep = equilibrium_sweep(system_g03, GroundState(), [f_gauss])
    for h, dev in zip(rep.hbar_values, rep.deviations):
        expect = abs(math.exp(-0.5 * _PI2 * h * weighted_norm_sq(f_gauss, 0)) - 1.0)
        assert dev == pytest.approx(expect, abs=1e-12), f"h={h}"


def test_ground_state_regime_converges_at_rate_one(system_g03, panel):
    rep = equilibrium_sweep(system_g03, GroundState(), panel)
    assert rep.converged
    assert rep.fitted_order == pytest.approx(1.0, abs=0.05)


def test_linear_regime_converges_at_rate_two(system_g03, panel):
    rep = equilibrium_sweep(system_g03, Linear(1.0), panel)
    assert rep.converged
    assert rep.fitted_order == pytest.approx(2.0, abs=0.05)


def test_linear_regime_error_constant(system_g03, f_gauss):
    # the leading deviation per test function is
    # chi_cl(f) * pi^2 beta h^2 <f, omega f> / 12 (next coth coefficient)
    beta = 1.0
    h = 2.0**-10
    quantum = gibbs_quantum(system_g03.source, beta * h, h)
    classical = gibbs_classical(system_g03.source, beta)
    dev = abs(quantum.char(f_gauss) - classical.char(f_gauss))
    chi = abs(classical.char(f_gauss))
    expect = chi * _PI2 * beta * h**2 * weighted_norm_sq(f_gauss, 1) / 12.0
    assert dev == pytest.approx(expect, rel=1e-3)


def test_sublinear_regime_converges_to_the_dressed_point_mass(system_g03, panel):
    # the asymptotic branch beta_h omega << 1 needs a deep ladder; there the
    # deviation scales as h^epsilon
    ladder = tuple(2.0**-k for k in range(14, 31))
    rep = equilibrium_sweep(system_g03, SubLinear(1.0, 0.5), panel, ladder)
    assert rep.converged
    assert rep.fitted_order == pytest.approx(0.5, abs=0.05)


def test_superlinear_regime_has_no_limit_state(system_g03, panel):
    rep = equilibrium_sweep(system_g03, SuperLinear(1.0, 0.5), panel)
    # characteristic values collapse superexponentially
    assert rep.deviations[-1] < 1e-100
    assert rep.converged


def test_regime_parameter_validation():
    # each regime refuses its parameters when constructed, before any sweep
    for regime, args, key in [
        (SubLinear, (1.0, 1.5), "epsilon"), (SuperLinear, (1.0, -0.5), "epsilon"),
        (SuperLinear, (1.0, math.inf), "epsilon"),
        (Linear, (0.0,), "beta"), (Linear, (math.inf,), "beta"),
        # SubLinear(inf, .) would sweep the ground state and read "converged";
        # a coefficient <= 0 would reach gibbs_quantum as a beta_h <= 0
        *(
            (regime, (c, 0.5), "coefficient")
            for regime in (SubLinear, SuperLinear)
            for c in (-1.0, 0.0, math.inf, math.nan)
        ),
    ]:
        with pytest.raises(ValueError, match=key):
            regime(*args)


def test_each_regime_is_one_record_of_its_scaling_and_limit(system_g03, panel):
    assert GroundState() == Regime(math.inf, 0.0, "point")
    assert Linear(2.0) == Regime(2.0, 1.0, "classical")
    assert SubLinear(3.0, 0.25) == Regime(3.0, 0.75, "point")
    assert SuperLinear(3.0, 0.5) == Regime(3.0, 1.5, "none")
    # hbar^1 and hbar^0 are exact: beta hbar and oo to the bit
    assert Linear(0.3).beta_hbar(0.1) == 0.3 * 0.1
    assert GroundState().beta_hbar(0.1) == math.inf
    # the limit is named, not read off the power: 1 + 1e-17 rounds to 1
    assert SuperLinear(1.0, 1e-17) == Regime(1.0, 1.0, "none")
    with pytest.raises(ValueError, match="limit"):
        Regime(1.0, 1.0, "nowhere")
    # a beta_hbar that underflows to 0 is refused, not handed to gibbs_quantum
    for regime in (SuperLinear(1.0, 1000.0), Linear(5e-324)):
        with pytest.raises(ValueError, match=r"beta_hbar = .* must be > 0"):
            equilibrium_sweep(system_g03, regime, panel)


def test_flow_gap_is_round_off_and_sees_a_wrong_flow(system_g03, center, panel, monkeypatch):
    # the Heisenberg route and the flow meet at the rounding of their angles
    # (size A = 84 here; the gap reads <= 0.005 A 1e-14) at any t; a flow with
    # the source's sign flipped does not
    for t in (0.0, 1.0, 37.5, 1e4):
        assert flow_gap(system_g03, center, panel, t) <= 1e-14 * 84.0, f"t={t}"
    real = semiclassics.evolve_state
    monkeypatch.setattr(
        semiclassics, "evolve_state",
        lambda sys_, st, t: real(replace(sys_, j_over_omega=-sys_.j_over_omega), st, t),
    )
    assert flow_gap(system_g03, center, panel, 1.0) > 0.1


def test_report_fields_are_consistent(system_g03, panel):
    rep = equilibrium_sweep(system_g03, GroundState(), panel)
    assert len(rep.hbar_values) == len(rep.deviations) == 12
    assert rep.verdict in ("converged", "diverged")
    assert rep.converged == (rep.verdict == "converged")
