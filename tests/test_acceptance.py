"""End-to-end checks pinning the workbench's headline numbers.

Each test fixes one observable figure of merit -- a closed-form energy, an
algebraic identity exercised at scale, a positivity certificate, a limit
rate, a spectral cross-check -- at an explicit tolerance and wall-clock
budget.  Wherever a quantity admits a second, independent route (closed
form, doubled resolution, finite matrices) the test compares against that
route rather than against the code path under test.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import random_member
from vanhove import (
    apply_free_phase,
    classical_energy,
    classical_flow,
    coherent,
    dirac,
    evaluate,
    evolve_weyl,
    from_values,
    gibbs_quantum,
    ground_energy,
    make_grid,
    make_system,
    power_law_gaussian,
    realize,
    sample,
    weighted_norm_sq,
    zero_function,
)
from vanhove import fock, scattering
from vanhove.dynamics import ground_state_check, kms_check, kms_window
from vanhove.semiclassics import (
    Linear,
    egorov_sweep,
    equilibrium_sweep,
)
from vanhove.states import bochner_gram, gram_matrix
from vanhove.weyl import add, adjoint, compose, identity, symplectic_form, weyl

_PI2 = math.pi**2


def _under(t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.2f} s, budget {budget:.0f} s"


def test_gaussian_source_ground_state_energy_is_minus_pi(grid):
    """For J = e^{-r^2} in three massless dimensions the spectral bottom is
    -||J||_{-1}^2 = -pi, and the classical field energy attains it at the
    displaced minimizer -J/omega."""
    t0 = time.monotonic()
    sys_ = make_system(power_law_gaussian(grid, 0.0))
    bottom = ground_energy(sys_)
    minimizer = from_values(grid, -sys_.j_over_omega.values)
    attained = classical_energy(sys_, minimizer)
    _under(t0, 1.0)
    assert bottom == pytest.approx(-math.pi, abs=1e-6)
    assert attained == pytest.approx(bottom, abs=1e-12)


def test_classical_energy_is_conserved_over_long_random_trajectories(system_g03):
    """One hundred random initial fields pushed to random times up to
    |t| = 10^3 keep their energy to a relative 1e-10."""
    grid = system_g03.grid
    rng = np.random.default_rng(20260814)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        alpha0 = from_values(grid, vals)
        t = rng.uniform(-1e3, 1e3)
        e0 = classical_energy(system_g03, alpha0)
        et = classical_energy(system_g03, classical_flow(system_g03, alpha0, t))
        worst = max(worst, abs(et - e0) / max(abs(e0), 1.0))
    _under(t0, 5.0)
    assert worst <= 1e-10


def test_weyl_composition_identities_hold_on_five_hundred_random_triples(grid):
    """Associativity, the adjoint anti-homomorphism, and the commutator
    phase e^{-2 i pi^2 hbar Im<f,g>} all hold to 1e-13 per coefficient."""
    rng = np.random.default_rng(11)
    h = 0.37
    t0 = time.monotonic()
    worst_assoc = worst_adj = worst_comm = 0.0
    for _ in range(500):
        fs = [random_member(grid, rng) for _ in range(3)]
        wa, wb, wc = (weyl(x, h) for x in fs)
        left = compose(compose(wa, wb), wc)
        right = compose(wa, compose(wb, wc))
        worst_assoc = max(worst_assoc, abs(left.coeffs[0] - right.coeffs[0]))
        lhs = adjoint(compose(wa, wb))
        rhs = compose(adjoint(wb), adjoint(wa))
        worst_adj = max(worst_adj, abs(lhs.coeffs[0] - rhs.coeffs[0]))
        comm = compose(compose(wa, wb), adjoint(compose(wb, wa)))
        expect = np.exp(-2j * _PI2 * h * symplectic_form(fs[0], fs[1]))
        worst_comm = max(worst_comm, abs(comm.coeffs[0] - expect))
    _under(t0, 5.0)
    assert worst_assoc <= 1e-13
    assert worst_adj <= 1e-13
    assert worst_comm <= 1e-13


def test_characteristic_grams_are_positive_and_detect_phase_corruption(
    grid, system_g03, panel
):
    """Twisted Gram matrices of three state kinds on a twelve-member
    panel stay positive to -1.2e-9; conjugating the worst off-diagonal
    pair (a symplectic-phase sign flip) must break positivity."""
    panel12 = panel + [
        0.5 * panel[0],
        2.0 * panel[2],
        (0.3 + 0.7j) * panel[4],
        -1.5 * panel[6],
    ]
    center = sample(grid, lambda r: (1.0 + 0.5j) * np.exp(-(r**2)))
    kinds = (
        coherent(center, 0.5),
        gibbs_quantum(system_g03.source, 2.0, 0.5),
        dirac(center),
    )
    t0 = time.monotonic()
    for st in kinds:
        rep = bochner_gram(st, panel12)
        assert rep.min_eigenvalue >= -1.2e-9, rep
    m = gram_matrix(coherent(center, 0.05), panel12)
    j, k = max(
        ((a, b) for a in range(12) for b in range(a + 1, 12)),
        key=lambda jk: abs(m[jk].imag),
    )
    bad = m.copy()
    bad[j, k] = np.conj(m[j, k])
    bad[k, j] = np.conj(bad[j, k])
    corrupted_min = np.linalg.eigvalsh(0.5 * (bad + bad.conj().T))[0]
    _under(t0, 10.0)
    assert corrupted_min < -1.2e-9


def test_heisenberg_classical_gap_matches_the_vacuum_closed_form(
    grid, system_g03, f_gauss
):
    """At every time the coherent-vs-point transported characteristic gap
    equals |e^{-pi^2 hbar ||f||^2 / 2} - 1| exactly, so the hbar-rate is 1
    independently of t."""
    center = sample(grid, lambda r: (1.0 + 0.5j) * np.exp(-(r**2)))
    hbars = tuple(2.0**-k for k in range(3, 15))
    norm0 = weighted_norm_sq(f_gauss, 0)
    t0 = time.monotonic()
    for t in (0.0, 1.0, 10.0, 100.0):
        rep = egorov_sweep(system_g03, center, t, [f_gauss], hbars)
        defect = max(
            abs(dev - abs(math.exp(-0.5 * _PI2 * h * norm0) - 1.0))
            for h, dev in zip(rep.hbar_values, rep.deviations)
        )
        assert defect <= 1e-12, f"t={t}"
        assert rep.fitted_order == pytest.approx(1.0, abs=0.05), f"t={t}"
    _under(t0, 10.0)


def test_equilibrium_limits_follow_their_temperature_scaling_regimes(
    system_g03, panel
):
    """Linear scaling beta_hbar = hbar converges at rate 2; sublinear
    scaling with a stiff coefficient lands on the dressed point mass to
    1e-3 already at hbar = 2^-12; superlinear scaling kills the
    characteristic values outright."""
    grid = system_g03.grid
    t0 = time.monotonic()
    ladder = tuple(2.0**-k for k in range(3, 13))
    rep = equilibrium_sweep(system_g03, Linear(1.0), panel, ladder)
    assert rep.fitted_order == pytest.approx(2.0, abs=0.1)

    f_raw = sample(grid, lambda r: np.exp(-(r**2)))
    f_unit = (1.0 / math.sqrt(weighted_norm_sq(f_raw, -1))) * f_raw
    target = dirac(from_values(grid, -system_g03.j_over_omega.values))
    h = 2.0**-12
    sub = gibbs_quantum(system_g03.source, 4096.0 * h**0.5, h)
    assert abs(sub.char(f_unit) - target.char(f_unit)) < 1e-3

    sup = gibbs_quantum(system_g03.source, h**1.5, h)
    assert abs(sup.char(f_unit)) < 0.05
    _under(t0, 30.0)


def test_gibbs_detailed_balance_and_ground_window_annihilation(
    grid, system_g03, f_gauss, g_gauss
):
    """Two-point functions of the dressed Gibbs state satisfy the
    beta-periodicity relation (cross-term defect) to 1e-13 across sixty
    random pairs, and a strictly negative spectral window applied to the
    dressed ground pair vanishes to 1e-6 while a positive window does not."""
    t0 = time.monotonic()
    ts = np.linspace(-5.0, 5.0, 21)
    rng = np.random.default_rng(42)
    worst = 0.0
    for beta in (0.5, 1.0, 4.0):
        st = gibbs_quantum(system_g03.source, beta, 0.5)
        pairs = [(random_member(grid, rng), random_member(grid, rng)) for _ in range(20)]
        worst = max(worst, kms_check(system_g03, st, beta, pairs, ts).max())
    assert worst <= 1e-13

    wneg = kms_window(-3.0, -1.0)
    wpos = kms_window(1.0, 3.0)
    rneg = ground_state_check(system_g03, f_gauss, g_gauss, wneg, hbar=0.1)
    rpos = ground_state_check(system_g03, f_gauss, g_gauss, wpos, hbar=0.1)
    _under(t0, 30.0)
    assert rneg.is_annihilated and rneg.value <= 1e-6
    assert rpos.value > 1e-2


def test_infrared_classes_separate_by_dressing_energy_and_photon_number(
    system_g03,
):
    """gamma = 0.3: the summed single-mode matrix ground energies reproduce
    -||J||_{-1}^2 and the coherent ansatz has full fidelity.  gamma = 0.8:
    the photon number diverges with the infrared cutoff at the predicted
    slope 2*gamma - 1 while the dressing energy stays summable.
    gamma = 1.2: the dressing energy itself diverges at slope 2*gamma - 2."""
    t0 = time.monotonic()
    multi = fock.multimode_ground_scan(system_g03, 0.1)
    scale = abs(multi.energy_closed_form)
    assert abs(multi.energy_matrix_sum - multi.energy_closed_form) <= 1e-6 * scale
    assert abs(multi.energy_matrix_sum - ground_energy(system_g03)) <= 1e-6 * scale
    assert multi.overlap_sq_product >= 1.0 - 1e-6

    dg = make_grid(r_min=2.0**-10, r_max=16.0, panels=14, points=32)
    ns = [2**k for k in range(2, 9)]
    mids = np.sqrt(np.array(ns[:-1], float) * np.array(ns[1:], float))

    sys08 = make_system(power_law_gaussian(dg, 0.8))
    sweep = fock.soft_photon_sweep(sys08, ns)
    assert sweep.diverging
    assert sweep.increment_slope == pytest.approx(0.6, abs=0.05)
    energies08 = [
        weighted_norm_sq(realize(power_law_gaussian(dg, 0.8, ir_cutoff=n)), -1)
        for n in ns
    ]
    inc08 = np.diff(energies08)
    keep = inc08 > 0
    keep[0] = False
    slope08 = np.polyfit(np.log(mids[keep]), np.log(inc08[keep]), 1)[0]
    assert slope08 < -0.1  # increments decay: the energy series converges

    energies12 = [
        weighted_norm_sq(realize(power_law_gaussian(dg, 1.2, ir_cutoff=n)), -1)
        for n in ns
    ]
    inc12 = np.diff(energies12)
    keep = inc12 > 0
    keep[0] = False
    slope12 = np.polyfit(np.log(mids[keep]), np.log(inc12[keep]), 1)[0]
    _under(t0, 60.0)
    assert slope12 == pytest.approx(0.4, abs=0.05)


def test_truncated_mode_matrices_reproduce_weyl_algebra_and_bounds():
    """Finite displacement matrices reproduce the vacuum characteristic
    value to 1e-9 and the twisted composition law to 1e-8 on the trusted
    block; the photon number matches |j/omega|^2."""
    h = 0.25
    t0 = time.monotonic()
    mode = fock.FockMode(
        omega=1.0, coupling=0.5, cutoff=fock.adequate_cutoff(1.0, 0.5, h), hbar=h
    )
    number = fock.ground_state_analysis(mode).photon_number
    assert abs(number - 0.25) <= 1e-8

    wide = fock.FockMode(omega=1.0, coupling=0.5, cutoff=96, hbar=h)
    e0 = np.zeros(wide.dim, dtype=complex)
    e0[0] = 1.0
    half = wide.cutoff // 2 + 1
    rng = np.random.default_rng(7)
    worst_vac = worst_comp = 0.0
    for _ in range(10):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w1 = fock.weyl_matrix(wide, z1)
        w2 = fock.weyl_matrix(wide, z2)
        w12 = fock.weyl_matrix(wide, z1 + z2)
        vac = np.vdot(e0, w1 @ e0)
        worst_vac = max(worst_vac, abs(vac - math.exp(-0.5 * _PI2 * h * abs(z1) ** 2)))
        phase = np.exp(-1j * _PI2 * h * (np.conj(z1) * z2).imag)
        gap = np.max(np.abs((w1 @ w2 - w12 * phase)[:half, :half]))
        worst_comp = max(worst_comp, gap)
    _under(t0, 30.0)
    assert worst_vac <= 1e-9
    assert worst_comp <= 1e-8


def test_nonnegative_symbols_quantize_with_an_order_hbar_lower_bound():
    """Quantizing |1 + W(1) + W(i)|^2 (pointwise nonnegative, minimum 0)
    yields spectra bounded below by -C hbar with a finite fitted C, a
    tight linear fit, and anti-Wick ordering nonnegative outright."""
    g = fock.single_mode_grid()
    one = identity(g, 0.0)
    w1 = weyl(from_values(g, np.array([1.0 + 0.0j])), 0.0)
    wi = weyl(from_values(g, np.array([1j])), 0.0)
    s = add(add(one, w1), wi)
    p = compose(adjoint(s), s)
    t0 = time.monotonic()
    rep = fock.garding_probe(p, tuple(2.0**-k for k in range(3, 10)))
    _under(t0, 60.0)
    assert rep.symbol_min == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(rep.fitted_constant) and rep.fitted_constant > 0.0
    assert rep.fit_residual < 0.1
    assert rep.bound_margin >= -1e-9  # lambda_min >= -C hbar along the ladder
    assert min(rep.lambda_min_antiwick) >= -1e-8


def test_dressing_overlaps_decay_and_wave_transport_is_exact(
    grid, system_g03, f_gauss, monkeypatch
):
    """The dressing overlap falls below 1e-2 by t = 10^3 (agreeing with a
    doubled-resolution oracle), the probe deviation 2 |sin(pi Re ov(t))| is
    the Heisenberg element's distance from its asymptote, and the transported
    point mass matches the Heisenberg dynamics to round-off, while a transport
    by 3 J/omega does not."""
    t0 = time.monotonic()
    ts = (0.0, 1.0, 10.0, scattering.FILON_THRESHOLD)
    ov = scattering.free_overlap(system_g03, f_gauss, ts)
    deviation = 2.0 * np.abs(np.sin(math.pi * ov.real))
    # on the point mass at 0, tau_t[W_0(e^{-i t omega} f)] and its asymptote
    # W_0(f) e^{2 pi i Re <f, J/omega>} read through evolve_weyl
    origin = dirac(zero_function(grid))
    asymptote = dirac(system_g03.j_over_omega).char(f_gauss)
    heisenberg = [
        evaluate(origin, evolve_weyl(system_g03, weyl(apply_free_phase(f_gauss, -t), 0.0), t))
        for t in ts
    ]
    assert np.max(np.abs(deviation - np.abs(np.subtract(heisenberg, asymptote)))) <= 1e-13

    final = abs(scattering.free_overlap(system_g03, f_gauss, 1000.0))
    assert final < 1e-2
    grid2 = make_grid(panels=32, points=64)
    sys2 = make_system(power_law_gaussian(grid2, 0.3))
    f2 = sample(grid2, lambda r: np.exp(-(r**2)))
    final2 = abs(scattering.free_overlap(sys2, f2, 1000.0))
    assert final == pytest.approx(final2, rel=1e-3)

    center = sample(grid, lambda r: (0.3 - 0.2j) * np.exp(-(r**2)))
    assert scattering.transport_gap(system_g03, center, f_gauss, ts) <= 1e-13

    real = scattering.transport_state
    monkeypatch.setattr(
        scattering, "transport_state", lambda sys_, st: real(sys_, real(sys_, real(sys_, st)))
    )
    wrong = scattering.transport_gap(system_g03, center, f_gauss, ts)
    _under(t0, 60.0)
    assert wrong > 0.1
