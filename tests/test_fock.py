"""Truncated Fock machinery: spectra, exponential matrices, probes."""

from __future__ import annotations

import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from vanhove import fock, make_grid, make_system, power_law_gaussian
from vanhove.fock import (
    FockMode,
    adequate_cutoff,
    garding_probe,
    ground_state_analysis,
    mode_for_node,
    multimode_ground_scan,
    single_mode_grid,
    soft_photon_sweep,
    weyl_matrix,
)
from vanhove.grid import from_values
from vanhove.weyl import add, adjoint, compose, identity, scale, trig_polynomial, weyl

_PI2 = math.pi**2


@pytest.fixture(scope="module")
def mode():
    return FockMode(omega=1.0, coupling=0.5, cutoff=64, hbar=0.25)


def test_mode_validation():
    with pytest.raises(ValueError, match="omega"):
        FockMode(omega=0.0, coupling=0.1, cutoff=32, hbar=0.1)
    with pytest.raises(ValueError, match="hbar"):
        FockMode(omega=1.0, coupling=0.1, cutoff=32, hbar=0.0)
    # refused by name, not by a nan adequacy or a non-finite matrix later on
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^omega must be finite and > 0"):
            FockMode(omega=bad, coupling=0.1, cutoff=64, hbar=0.1)
        with pytest.raises(ValueError, match="^hbar must be finite and > 0"):
            FockMode(omega=1.0, coupling=0.1, cutoff=64, hbar=bad)
    with pytest.raises(ValueError, match="cutoff"):
        FockMode(omega=1.0, coupling=0.1, cutoff=1, hbar=0.1)
    # displacement scale 4|j|^2/(h w^2) = 1000 >> 32
    with pytest.raises(ValueError, match="too small"):
        FockMode(omega=1.0, coupling=5.0, cutoff=32, hbar=0.1)


def test_adequate_cutoff_scales_with_the_displacement():
    base = adequate_cutoff(1.0, 0.5, 0.25)
    assert base == math.ceil(4.0 * 0.25 / 0.25) + 20
    assert adequate_cutoff(1.0, 0.5, 0.025) > base


def test_adequate_cutoff_refuses_an_infinite_displacement():
    # |j|/omega = 1e300 squares to inf: no truncation clears it
    with pytest.raises(ValueError, match="displacement"):
        adequate_cutoff(1e-300, 1.0, 1.0)


def test_displaced_mode_closed_forms(mode):
    report = ground_state_analysis(mode)
    assert report.energy_closed_form == pytest.approx(-0.25, abs=1e-15)
    assert report.energy == pytest.approx(report.energy_closed_form, abs=1e-12)
    assert report.gap == pytest.approx(mode.hbar * mode.omega, abs=1e-12)
    assert report.overlap_sq == pytest.approx(1.0, abs=1e-10)


def test_number_expectation_closed_form(mode):
    got = ground_state_analysis(mode).photon_number
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


def test_exponential_refuses_a_truncated_vacuum_at_the_adequacy_edge(monkeypatch):
    # pi^2 hbar |z|^2 = N/4 = 1 (the float just below 1/pi, since 1/pi itself
    # rounds one ulp over) passes the displacement guard, yet on 5 levels the
    # vacuum entry is off by 2.6e-5, while the eigenvectors stay orthogonal to
    # rounding (a trusted-block unitarity product reads 3.3e-16 here): both
    # routes, the sector blocks and weyl_matrix's full solve, refuse it.
    # FockMode keeps N >= 20, where the edge passes (defect ~1e-15), so a
    # stand-in carries weyl_matrix's mode here
    edge = math.nextafter(1.0 / math.pi, 0.0)
    mode = SimpleNamespace(hbar=1.0, cutoff=4, dim=5)
    with pytest.raises(RuntimeError, match="vacuum"):
        fock._sector_blocks(1.0, 4, [edge], 5)
    with pytest.raises(RuntimeError, match="vacuum"):
        weyl_matrix(mode, edge)
    # the displacement guard refuses before any solve, whatever else is asked
    sizes = _full_solves(monkeypatch)
    with pytest.raises(ValueError, match="displacement"):
        fock._sector_blocks(1.0, 4, [0.1, 1.0 / math.pi], 5)
    with pytest.raises(ValueError, match="displacement"):
        weyl_matrix(mode, 1.0 / math.pi)
    assert sizes == []


@pytest.mark.parametrize("coupling", [0.5, -0.35 + 0.6j])
def test_coherent_column_is_the_weyl_matrix_column(coupling):
    # ground_state_analysis forms W_h(z*) e_0 from the closed-form coherent
    # amplitudes; the dense exponential stays their reference on its trusted
    # half, and gives the same overlap with the ground vector
    h, omega = 0.25, 1.3
    cutoff = adequate_cutoff(omega, coupling, h)
    m = FockMode(omega=omega, coupling=coupling, cutoff=cutoff, hbar=h)
    z_star = 1j * coupling / (math.pi * h * omega)
    column = weyl_matrix(m, z_star)[:, 0]
    half = cutoff // 2 + 1
    closed = fock._coherent_vector(m, z_star)
    assert np.max(np.abs(closed - column)[:half]) <= 1e-14
    ground = fock._lowest_pair(m)[1]
    overlap_sq = abs(np.vdot(column, ground)) ** 2
    assert ground_state_analysis(m).overlap_sq == pytest.approx(overlap_sq, abs=1e-14)


def test_coherent_amplitudes_refuse_a_displacement_past_the_float_range():
    # |b|^2 = 37^2 = 1369 holds (overlap 1 - 4e-15); at 38^2 = 1444
    # e^{-|b|^2/2} is subnormal and the partial products near 1e312: refused
    # by name, not returned as inf or nan (the multimode scan meets it at
    # hbar = 1e-4 on the default grid)
    for coupling, fits in ((37.0, True), (38.0, False)):
        m = FockMode(omega=1.0, coupling=coupling,
                     cutoff=adequate_cutoff(1.0, coupling, 1.0), hbar=1.0)
        if fits:
            assert ground_state_analysis(m).overlap_sq == pytest.approx(1.0, abs=1e-12)
        else:
            with pytest.raises(ValueError, match="float range"):
                ground_state_analysis(m)


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
    # |z|^2 overflows to inf past 1.3e154: still the truncation refusal
    with pytest.raises(ValueError, match="displacement"):
        weyl_matrix(mode, 1e200)


def test_tridiagonal_eigh_is_bitwise_scipy_eigh_tridiagonal(system_g03):
    # the lowest-pair helper makes eigh_tridiagonal's LAPACK calls for
    # select="i", select_range=(0, 1) under its auto driver (dstebz + dstein),
    # so it returns the bytes of that call.  Checked on H of every node mode at
    # hbar = 0.1 and on garding's exponent R at N = 88, 204, 486 (k = 3, 6, 8)
    from scipy.linalg import eigh_tridiagonal

    tridiagonals = []
    for i in range(system_g03.grid.size):
        m = mode_for_node(system_g03, i, 0.1)
        occ = np.arange(m.dim, dtype=np.float64)
        tridiagonals.append(
            (m.hbar * m.omega * occ, math.sqrt(m.hbar) * abs(m.coupling) * np.sqrt(occ[1:]))
        )
    for k in (3, 6, 8):
        h = 2.0**-k
        n = fock.garding_cutoff(h, 64)
        for r in (1.0, abs(1 - 1j)):
            off = math.pi * math.sqrt(h) * r * np.sqrt(np.arange(1.0, n + 1))
            tridiagonals.append((np.zeros(n + 1), off))
    assert sorted({len(d) for d, _ in tridiagonals[-6:]}) == [89, 205, 487]
    for diag, off in tridiagonals:
        got = fock._lowest_two_eigh(diag, off)
        want = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tridiagonal_eigh_keeps_the_refusals_of_eigh_tridiagonal():
    # a non-finite entry, on the diagonal or off it, is refused by name
    # before LAPACK sees it
    for bad in (np.inf, np.nan):
        bad_diag = (np.array([0.0, 1.0, bad, 3.0, 4.0]), np.ones(4))
        bad_off = (np.arange(5.0), np.array([1.0, bad, 1.0, 1.0]))
        for entries in (bad_diag, bad_off):
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                fock._lowest_two_eigh(*entries)


def test_the_exponential_at_zero_is_the_identity(monkeypatch):
    # W_h(0) = I, bit for bit, with no solve (the zero tridiagonal's
    # eigenvectors are V = I, lam = 0): real identity cosine blocks on each
    # parity sector
    sizes = _full_solves(monkeypatch)
    for h, n in ((2.0**-3, 88), (2.0**-8, 486)):
        for size in (n // 2 + 1, n + 1):
            even, odd = (size + 1) // 2, size // 2
            pieces, defect = fock._sector_blocks(h, n, [0.0], size)
            assert list(pieces) == [0.0] and defect == 0.0
            want = (np.eye(even), np.eye(odd))
            assert [p.tobytes() for p in pieces[0.0]] == [w.tobytes() for w in want]
    assert sizes == []


def _expm_of_the_field(h: float, n: int, r: float) -> np.ndarray:
    """e^{i pi R} for R = sqrt(h) r T_N on N + 1 levels, by scipy's expm of
    the dense matrix."""
    from scipy.linalg import expm

    off = math.sqrt(h) * r * np.sqrt(np.arange(1.0, n + 1))
    return expm(1j * math.pi * (np.diag(off, 1) + np.diag(off, -1)))


@pytest.mark.parametrize("k, odd", [(3, 0), (6, 0), (3, 1)], ids=["3", "6", "3-odd"])
def test_shared_ladder_exponentials_match_expm(k, odd, monkeypatch):
    # e^{i pi R} with R = sqrt(h) |z| T_N on N + 1 levels, against scipy's
    # expm of the dense R (N = 88 at h = 2^-3, N = 204 at h = 2^-6) on the
    # trusted block, by both routes: one pair of sector solves serves every
    # |z| with the cosine blocks, and weyl_matrix makes one full solve per call.
    # garding_cutoff makes only even N; N = 89 puts the truncation edge k = N
    # in the odd sector
    h = 2.0**-k
    n = fock.garding_cutoff(h, 64) + odd
    assert n == {3: 88, 6: 204}[k] + odd
    trusted = n // 2 + 1
    sizes = _full_solves(monkeypatch)
    moduli = (1.0, math.sqrt(2.0))
    blocks, defect = fock._sector_blocks(h, n, moduli, trusted)
    assert sizes == [(n // 2 + 1, "stemr"), ((n + 1) // 2, "stemr")] and defect <= 1e-12
    mode = FockMode(omega=1.0, coupling=0.0, cutoff=n, hbar=h)
    for r in moduli:
        exact = _expm_of_the_field(h, n, r)[:trusted, :trusted]
        for parity in (0, 1):
            sector = exact[parity::2, parity::2]
            assert np.max(np.abs(blocks[r][parity] - sector)) <= 1e-12
        assert np.max(np.abs(weyl_matrix(mode, r)[:trusted, :trusted] - exact)) <= 1e-12
    assert sizes[2:] == [(n + 1, "auto")] * 2


@pytest.mark.parametrize("n", [88, 89])
def test_each_sector_tridiagonal_is_the_parity_block_of_the_squared_ladder(n, monkeypatch):
    # T_N^2 on the even and on the odd occupations, the truncation edge k = N
    # (diagonal N, no k + 1 term) in the even sector at N = 88 and in the odd
    # one at N = 89
    import scipy.linalg

    solved = []
    solve = scipy.linalg.eigh_tridiagonal

    def kept(diag, off, **kwargs):
        solved.append(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        return solve(diag, off, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", kept)
    fock._sector_blocks(2.0**-3, n, [1.0], n // 2 + 1)
    ladder = np.diag(np.sqrt(np.arange(1.0, n + 1)), 1)
    ladder += ladder.T
    square = ladder @ ladder
    assert len(solved) == 2
    for parity, sector in enumerate(solved):
        assert sector.shape == ((n + 2 - parity) // 2,) * 2
        assert np.max(np.abs(sector - square[parity::2, parity::2])) <= 1e-12
    assert solved[n % 2][-1, -1] == n


def _full_solves(monkeypatch) -> list[tuple[int, str]]:
    """The size and LAPACK driver of each full-spectrum tridiagonal solve
    made from now on."""
    import scipy.linalg

    sizes: list[tuple[int, str]] = []
    solve = scipy.linalg.eigh_tridiagonal

    def counted(diag, off, lapack_driver="auto"):
        sizes.append((len(diag), lapack_driver))
        return solve(diag, off, lapack_driver=lapack_driver)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return sizes


def test_garding_probe_solves_one_ladder_per_truncation(monkeypatch):
    # |z| = 1 and |z| = sqrt 2 share the two half-size sector solves of each
    # hbar, of T_N^2 on the even and on the odd occupations, under stemr; T_N
    # itself is not solved, and W_h(0) needs none
    sizes = _full_solves(monkeypatch)
    symbol, _ = _harmonic_symbol()
    assert sorted({abs(z) for z in symbol.gens[:, 0]}) == [0.0, 1.0, math.sqrt(2.0)]
    report = garding_probe(symbol, [2.0**-k for k in range(3, 9)])
    assert sizes == [
        (size, "stemr") for n in report.cutoffs for size in (n // 2 + 1, (n + 1) // 2)
    ]
    assert len(sizes) == 12


def test_multimode_scan_makes_no_full_spectrum_solve(monkeypatch):
    g = make_grid(panels=6, points=12)
    sys_small = make_system(power_law_gaussian(g, 0.3))
    analysed = []
    analyse = fock.ground_state_analysis

    def counted(mode):
        analysed.append(mode.cutoff)
        return analyse(mode)

    # one analysis per mode, looked up on the module (the benchmark's tracer
    # counts them there), each the lowest pair of H against the closed-form
    # coherent vector: no number ladder is solved
    monkeypatch.setattr(fock, "ground_state_analysis", counted)
    sizes = _full_solves(monkeypatch)
    multimode_ground_scan(sys_small, 0.4)
    assert len(analysed) == g.size
    assert sizes == []


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
    report = soft_photon_sweep(sys_t1, ns)
    assert report.diverging
    # increments of ||J_n||_{-2}^2 grow like n^{2 gamma - 1}
    assert report.increment_slope == pytest.approx(0.6, abs=0.05)
    assert all(b > a for a, b in zip(report.numbers, report.numbers[1:]))


def test_soft_photon_number_converges_for_regular_sources():
    g = make_grid(r_min=2.0**-10, r_max=16.0, panels=14, points=32)
    sys_reg = make_system(power_law_gaussian(g, 0.3))
    report = soft_photon_sweep(sys_reg, [2**k for k in range(2, 9)])
    assert not report.diverging
    assert report.increment_slope == pytest.approx(-0.4, abs=0.05)


def test_soft_photon_sweep_validation(system_g03):
    with pytest.raises(ValueError, match="increasing"):
        soft_photon_sweep(system_g03, [8, 4, 2])
    with pytest.raises(ValueError, match="at least 3"):
        soft_photon_sweep(system_g03, [2, 4])


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
    symbol, g = _harmonic_symbol()
    with pytest.raises(ValueError, match="classical"):
        garding_probe(trig_polynomial(g, 0.5, symbol.coeffs, symbol.gens), [0.1])
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


def test_garding_probe_refuses_a_symbol_that_is_not_even():
    # 3 + i W(1) - i W(-1) is the real, nonnegative 3 - 2 sin(2 pi x), but
    # odd in x: its quantization couples the parity sectors, so it is
    # refused by its scope rather than solved on half the couplings
    g = single_mode_grid()
    sine = add(
        weyl(from_values(g, np.array([1.0 + 0.0j])), 0.0, 1j),
        weyl(from_values(g, np.array([-1.0 + 0.0j])), 0.0, -1j),
    )
    with pytest.raises(ValueError, match="even symbols only"):
        garding_probe(add(scale(identity(g, 0.0), 3.0), sine), [0.1])


def test_even_symbols_quantize_without_parity_coupling():
    # on the full oracle quantization sum c W_h(z), the entries between
    # occupations of opposite parity cancel pairwise (z against -z): the
    # probe may solve the two sectors apart
    from vanhove.weyl import antiwick

    symbol, _ = _harmonic_symbol()
    for h in (2.0**-3, 2.0**-5):
        n_h = fock.garding_cutoff(h, 64)
        mode = FockMode(omega=1.0, coupling=0.0, cutoff=n_h, hbar=h)
        odd = np.add.outer(np.arange(mode.dim), np.arange(mode.dim)) % 2 == 1
        for poly in (symbol, antiwick(symbol, h)):
            full = sum(c * weyl_matrix(mode, z) for c, z in zip(poly.coeffs, poly.gens[:, 0]))
            assert np.max(np.abs(full[~odd])) > 1.0
            assert np.max(np.abs(full[odd])) <= 1e-13


def test_garding_probe_block_assembly_matches_the_compressed_full_quantization():
    # the old route: sum c W_h(z) on the full (N + 1)^2 truncation, compress
    # to the trusted leading block, solve
    from vanhove.weyl import antiwick

    symbol, _ = _harmonic_symbol()
    for h in (2.0**-3, 2.0**-5):
        report = garding_probe(symbol, [h])
        n_h = report.cutoffs[0]
        mode = FockMode(omega=1.0, coupling=0.0, cutoff=n_h, hbar=h)
        block = slice(0, n_h // 2 + 1)
        for poly, lam in (
            (symbol, report.lambda_min[0]),
            (antiwick(symbol, h), report.lambda_min_antiwick[0]),
        ):
            full = sum(c * weyl_matrix(mode, z) for c, z in zip(poly.coeffs, poly.gens[:, 0]))
            oracle = np.linalg.eigvalsh(0.5 * (full + full.conj().T)[block, block])[0]
            assert lam == pytest.approx(oracle, rel=1e-12)


def test_antiwick_quantization_never_dips():
    symbol, _ = _harmonic_symbol()
    report = garding_probe(symbol, (0.25, 0.125, 0.0625))
    assert min(report.lambda_min_antiwick) >= -1e-8
