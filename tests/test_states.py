"""States: characteristic closed forms, degeneracies, Bochner positivity."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from vanhove import (
    CharState,
    bochner_gram,
    coherent,
    dirac,
    evaluate,
    gibbs_classical,
    gibbs_quantum,
    gram_matrix,
    inner_product,
    make_grid,
    power_law_gaussian,
    sample,
    symplectic_form,
    weighted_norm_sq,
    zero_function,
)
from vanhove.dynamics import evolve_state
from vanhove.scattering import transport_state
from vanhove.states import stable_coth
from vanhove.weyl import add, weyl
from conftest import STATE_KINDS, every_state, random_member

_PI2 = math.pi**2


@pytest.fixture(scope="module")
def center(grid):
    return sample(grid, lambda r: (1.0 + 0.5j) * np.exp(-(r**2)))


def test_coherent_characteristic_closed_form(grid, center, f_gauss):
    h = 0.3
    st = coherent(center, h)
    expect = math.exp(-0.5 * _PI2 * h * weighted_norm_sq(f_gauss, 0)) * np.exp(
        2j * math.pi * inner_product(f_gauss, center, 0).real
    )
    assert st.char(f_gauss) == pytest.approx(expect, rel=1e-14)


def test_dirac_characteristic_is_a_pure_phase(grid, center, f_gauss, panel):
    st = dirac(center)
    assert st.hbar == 0.0
    for f in panel:
        assert abs(st.char(f)) == pytest.approx(1.0, abs=1e-14)


def test_char_at_zero_is_one(grid, center, system_g03):
    z = zero_function(grid)
    for st in (
        coherent(center, 0.4),
        dirac(center),
        gibbs_quantum(system_g03.source, 2.0, 0.4),
        gibbs_classical(system_g03.source, 2.0),
    ):
        assert st.char(z) == pytest.approx(1.0, abs=1e-15)


def test_gibbs_at_infinite_beta_is_the_dressed_coherent_state(grid, system_g03, panel):
    # coth(oo) = 1, so the thermal formula itself gives the coherent state
    h = 0.2
    ground = gibbs_quantum(system_g03.source, math.inf, h)
    assert ground.scale == coherent(ground.center, h).scale
    assert np.array_equal(ground.weight, grid.measure(0))
    assert np.allclose(ground.center.values, -system_g03.j_over_omega.values)
    dressed = coherent(-system_g03.j_over_omega, h)
    assert ground.chars(panel).tobytes() == dressed.chars(panel).tobytes()
    # finite but huge beta converges to the same characteristic values
    cold = gibbs_quantum(system_g03.source, 1e6, h)
    for f in panel:
        assert cold.char(f) == pytest.approx(ground.char(f), rel=1e-8)


def test_gibbs_quantum_dominates_its_ground_state(grid, system_g03, f_gauss):
    # coth >= 1 makes the thermal Gaussian strictly smaller at finite beta.
    h = 0.2
    warm = gibbs_quantum(system_g03.source, 1.0, h)
    ground = gibbs_quantum(system_g03.source, math.inf, h)
    assert abs(warm.char(f_gauss)) < abs(ground.char(f_gauss))


def test_gibbs_classical_characteristic_closed_form(grid, system_g03, f_gauss):
    beta = 1.7
    st = gibbs_classical(system_g03.source, beta)
    expect = math.exp(-(_PI2 / beta) * weighted_norm_sq(f_gauss, -1)) * np.exp(
        2j * math.pi * inner_product(f_gauss, st.center, 0).real
    )
    assert st.char(f_gauss) == pytest.approx(expect, rel=1e-14)


def test_type_ii_sources_have_no_dressed_state(grid):
    spec = power_law_gaussian(grid, 1.2)
    with pytest.raises(ValueError, match="dressing energy"):
        gibbs_quantum(spec, 1.0, 0.1)
    with pytest.raises(ValueError, match="dressing energy"):
        gibbs_classical(spec, 1.0)


def test_state_constructor_validation(grid, center, system_g03):
    for hbar in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            coherent(center, hbar)
    for hbar in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hbar"):
            gibbs_quantum(system_g03.source, 1.0, hbar)
    with pytest.raises(ValueError, match="beta_h"):
        gibbs_quantum(system_g03.source, -1.0, 0.1)
    with pytest.raises(ValueError, match="beta"):
        gibbs_classical(system_g03.source, math.inf)


def test_stable_coth_branches():
    xs = np.array([1e-12, 1e-9, 1e-4, 0.5, 5.0, 39.0, 50.0, 800.0])
    got = stable_coth(xs)
    assert got[0] == pytest.approx(1e12, rel=1e-12)
    assert np.all(np.isfinite(got))
    mid = (xs > 1e-8) & (xs < 40.0)
    assert np.allclose(got[mid], 1.0 / np.tanh(xs[mid]), rtol=1e-14)
    assert got[-1] == 1.0
    assert np.all(got >= 1.0)
    # the ends need no branch: below 1e-8 tanh(x) rounds to x, so coth is 1/x
    # (the series' x/3 is under half an ulp; 1/x overflows to inf among the
    # subnormals), and from 19.1 up to oo tanh(x) rounds to 1
    small = np.logspace(-320, -8.01, 20001)
    with np.errstate(over="ignore"):
        assert stable_coth(small).tobytes() == (1.0 / small).tobytes()
    large = np.append(np.logspace(math.log10(19.1), 308, 20001), math.inf)
    assert np.all(stable_coth(large) == 1.0)


def test_evaluate_is_linear_in_the_polynomial(grid, center, f_gauss, g_gauss):
    h = 0.25
    st = coherent(center, h)
    a = weyl(f_gauss, h, 2.0 - 1.0j)
    b = weyl(g_gauss, h, 0.5j)
    total = evaluate(st, add(a, b))
    assert total == pytest.approx(
        (2.0 - 1.0j) * st.char(f_gauss) + 0.5j * st.char(g_gauss), rel=1e-13
    )


def test_evaluate_rejects_mismatches(grid, center, f_gauss):
    st = coherent(center, 0.25)
    with pytest.raises(ValueError, match="hbar mismatch"):
        evaluate(st, weyl(f_gauss, 0.5))
    other = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="different grid"):
        st.char(zero_function(other))


def test_bochner_gram_is_psd_for_every_state_kind(grid, center, system_g03, panel):
    extra = [0.5 * panel[0], 2.0 * panel[2], (0.3 + 0.7j) * panel[4], -1.5 * panel[6]]
    twelve = panel + extra
    for st in (
        coherent(center, 0.5),
        gibbs_quantum(system_g03.source, 2.0, 0.5),
        dirac(center),
    ):
        report = bochner_gram(st, twelve)
        assert report.size == 12
        assert report.hermitian_defect <= 1e-12
        assert report.min_eigenvalue >= -report.psd_tol
        assert report.is_psd


def test_a_corrupted_symplectic_phase_breaks_positivity(grid, center, panel):
    m = gram_matrix(coherent(center, 0.05), panel)
    # conjugating one conjugate pair of entries flips the sign of its
    # symplectic phase while keeping the matrix Hermitian
    j, k = max(
        ((j, k) for j in range(len(panel)) for k in range(j + 1, len(panel))),
        key=lambda jk: abs(m[jk].imag),
    )
    bad = m.copy()
    bad[j, k] = np.conj(m[j, k])
    bad[k, j] = np.conj(bad[j, k])
    eigs = np.linalg.eigvalsh(bad)
    assert eigs[0] < -1e-3


def test_gram_panel_size_limits(grid, center, f_gauss):
    st = dirac(center)
    with pytest.raises(ValueError, match="panel size"):
        gram_matrix(st, [])
    with pytest.raises(ValueError, match="panel size"):
        gram_matrix(st, [f_gauss] * 65)


def test_regularized_gibbs_states_converge_to_the_full_one(grid, system_g03, f_gauss):
    # relative characteristic deviation decays by about 2^{2 - gamma} per
    # cutoff doubling once 1/n is below the infrared scale of f; the thermal
    # Gaussian factor does not depend on the cutoff, so this isolates the centre
    source = system_g03.source
    target = gibbs_quantum(source, 2.0, 0.2).char(f_gauss)
    devs = [
        abs(gibbs_quantum(replace(source, ir_cutoff=2**k), 2.0, 0.2).char(f_gauss) - target)
        / abs(target)
        for k in range(2, 13)
    ]
    assert all(b < a for a, b in zip(devs[2:], devs[3:]))
    ratios = [a / b for a, b in zip(devs[3:], devs[4:])]
    expect = 2.0 ** (2.0 - 0.3)
    assert np.median(ratios) == pytest.approx(expect, rel=0.05)
    assert devs[-1] < 1e-4


def test_mapped_state_checks_the_grid(grid, center, system_g03):
    # evolved and transported states are records on the system's grid
    other = make_grid(panels=4, points=8)
    st = coherent(center, 0.2)
    for mapped in (evolve_state(system_g03, st, 1.5), transport_state(system_g03, st)):
        assert isinstance(mapped, CharState) and mapped.grid is grid
        with pytest.raises(ValueError, match="different grid"):
            mapped.char(zero_function(other))
    with pytest.raises(ValueError, match="different grid"):
        gram_matrix(st, [zero_function(other)])


def test_charstate_is_the_advertised_dataclass(grid, center):
    st = coherent(center, 0.1)
    assert isinstance(st, CharState)
    clone = replace(st, hbar=0.2)
    assert clone.hbar == 0.2
    assert [f.name for f in fields(CharState)] == ["hbar", "grid", "center", "scale", "weight"]
    assert clone.center is st.center and clone.weight is st.weight
    assert clone.scale == -0.5 * _PI2 * 0.1


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_batched_gram_matrix_matches_the_entrywise_oracle(
    grid, center, system_g03, panel, kind
):
    st = every_state(center, system_g03.source)[kind]
    rng = np.random.default_rng(11)
    members = panel + [random_member(grid, rng) for _ in range(8)]
    got = gram_matrix(st, members)
    n = len(members)
    oracle = np.empty((n, n), dtype=np.complex128)
    for j, fj in enumerate(members):
        for k, fk in enumerate(members):
            twist = np.exp(-1j * _PI2 * st.hbar * symplectic_form(fj, fk))
            oracle[j, k] = st.char(fj - fk) * twist
    assert np.max(np.abs(got - oracle)) <= 1e-12


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_transport_multiplies_in_the_dressing_coefficient(
    center, system_g03, panel, kind
):
    st = every_state(center, system_g03.source)[kind]
    moved = transport_state(system_g03, st)
    assert moved.weight is st.weight and moved.scale == st.scale
    for f in panel:
        expect = st.char(f) * dirac(system_g03.j_over_omega).char(f)
        assert abs(moved.char(f) - expect) <= 1e-14


@pytest.mark.parametrize("kind", STATE_KINDS)
def test_char_chars_and_evaluate_share_one_kernel(grid, center, system_g03, panel, kind):
    # one row kernel: a batch entry, a single value and a one-term polynomial
    # agree bitwise, whatever the batch size
    st = every_state(center, system_g03.source)[kind]
    rng = np.random.default_rng(5)
    members = panel + [random_member(grid, rng) for _ in range(8)]
    batch = st.chars(members)
    assert batch.shape == (len(members),)
    for f, value in zip(members, batch):
        one = st.char(f)
        assert np.complex128(one).tobytes() == value.tobytes()
        assert np.complex128(evaluate(st, weyl(f, st.hbar))).tobytes() == value.tobytes()
    other = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="different grid"):
        st.chars([members[0], zero_function(other)])
