r"""Single-mode Fock machinery on tridiagonal matrices: spectra, coherent
dressing, bounds.

One radial quadrature node (omega_m, weight) of a sourced system defines a
displaced harmonic mode: with ladder matrices a, a* on the (N+1)-dimensional
truncated Fock space, the mode Hamiltonian is

    H = hbar omega n + sqrt(hbar) (j a* + conj(j) a),

whose exact ground state is the coherent vector W_h(z*) e_0 with amplitude
z* = -j / (pi i hbar omega), energy E_0 = -|j|^2/omega and gap hbar omega.
The field and exponential operators use

    phi_h(z) = sqrt(hbar) (z a* + conj(z) a),    W_h(z) = e^{i pi phi_h(z)}.

Both H and phi_h(z) are tridiagonal, and the diagonal gauge
D = diag(e^{i k theta}) (theta = arg j, resp. arg z) turns each into a real
symmetric tridiagonal R with nonnegative off-diagonal: H (resp. phi_h(z))
= D R D*.  So their spectra come from ``scipy.linalg.eigh_tridiagonal`` on
R: W_h(z) = D e^{i pi R} D* with R depending on |z| only, and the ground
state of H is D times a real vector.  The exponentials satisfy
<e_0, W_h(z) e_0> = e^{-(pi^2 hbar/2)|z|^2}, checked on every one, and
W_h(z) W_h(w) = W_h(z+w) e^{-i pi^2 hbar Im(conj(z) w)} on the trusted
(lower) half of the truncated space.
Truncation is honest: every mode must satisfy
N >= 4|j|^2/(hbar omega^2) + 20 so the displaced ground state lives far
from the cutoff edge.

Summing modes over a grid recovers the field quantities analytically: the
total ground energy is -sum |j_m|^2/omega_m = -||J||_{-1}^2 exactly (the
mode couplings absorb the quadrature measure), the total photon number is
||J/omega||_0^2 = ||J||_{-2}^2, and its divergence for type I sources is
the soft-photon catastrophe probed by ``soft_photon_sweep``.

``ladder_bound_check`` verifies the relative bounds

    ||a_h(g) Psi||  <= ||S^{-1/2} g|| ||dGamma_h(S)^{1/2} Psi||,
    ||a*_h(g) Psi|| <= ||S^{-1/2} g|| ||dGamma_h(S)^{1/2} Psi|| + sqrt(hbar) ||g|| ||Psi||

(the second term carries sqrt(hbar): the exact identity ||a* Psi||^2 =
||a Psi||^2 + hbar ||g||^2 ||Psi||^2 forces it, as the vacuum shows).

``garding_probe`` quantizes a nonnegative classical symbol over a single
mode and tracks the lowest eigenvalue of the compressed matrix: plain
quantization dips below zero only O(hbar), anti-Wick stays nonnegative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import VanHoveSystem
from .grid import MomentumGrid, make_grid
from .sources import SourceSpec, realize
from .weyl import TrigPolynomial, antiwick

__all__ = [
    "FockMode",
    "adequate_cutoff",
    "build_ladder",
    "weyl_matrix",
    "GroundReport",
    "ground_state_analysis",
    "mode_number_expectation",
    "mode_for_node",
    "MultimodeReport",
    "multimode_ground_scan",
    "SoftPhotonReport",
    "soft_photon_sweep",
    "LadderBoundReport",
    "ladder_bound_check",
    "single_mode_grid",
    "GardingReport",
    "garding_cutoff",
    "garding_probe",
]

_PI = math.pi
_PI2 = math.pi**2

#: Extra Fock levels beyond the displaced occupancy scale.
CUTOFF_MARGIN = 20

#: Vacuum-expectation defect ceiling for exponential matrices.
_VACUUM_TOL = 1e-9

#: garding_probe's symbol samples per side of the unit periodicity cell.
_TORUS_POINTS = 100


@dataclass(frozen=True)
class FockMode:
    """One displaced harmonic mode on a truncated Fock space."""

    omega: float
    coupling: complex
    cutoff: int
    hbar: float

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.hbar <= 0.0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if not isinstance(self.cutoff, int) or self.cutoff < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        needed = adequate_cutoff(self.omega, self.coupling, self.hbar)
        if self.cutoff < needed:
            raise ValueError(
                f"cutoff {self.cutoff} too small for the displacement: "
                f"need >= {needed} (4|j|^2/(hbar omega^2) + {CUTOFF_MARGIN})"
            )

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def adequate_cutoff(omega: float, coupling: complex, hbar: float) -> int:
    """Smallest admissible truncation for a displaced mode,
    4|j|^2/(hbar omega^2) + margin; formed from |j|/omega, because |j|^2 and
    omega^2 overflow on their own past 1e154."""
    ratio = abs(coupling) / omega
    return math.ceil(4.0 * ratio * ratio / hbar) + CUTOFF_MARGIN


def build_ladder(mode: FockMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, a*, n) as dense matrices; [a, a*] = 1 except the (N, N) corner."""
    n = mode.dim
    a = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(1, n)
    a[idx - 1, idx] = np.sqrt(idx)
    return a, a.conj().T, np.diag(np.arange(n, dtype=np.float64)).astype(np.complex128)


def _gauge(theta: float, dim: int) -> np.ndarray:
    """The diagonal p_k = e^{i k theta} of D: D R D* multiplies the k-th
    sub-diagonal entry of R by e^{i theta}."""
    return np.exp(1j * theta * np.arange(dim))


def _exponential_eigs(
    hbar: float, cutoff: int, modulus: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs (lam, V) of pi R for the real tridiagonal R = phi_h(|z|) on
    N + 1 levels (zero diagonal, off-diagonal sqrt(hbar) |z| sqrt(k)), so that
    e^{i pi R} = V e^{i lam} V^T, and the vacuum defect of that exponential,
    |sum_k V[0, k]^2 e^{i lam_k} - e^{-pi^2 hbar |z|^2 / 2}|.  Rejects
    displacements with pi^2 hbar |z|^2 > N/4 and defects above the ceiling."""
    # imported on first use: the CLI imports this module for every command,
    # and with scipy >= 1.17 (where scipy.special no longer pulls it in)
    # loading scipy.linalg costs ~6 MB of resident memory and ~50 ms
    from scipy.linalg import eigh_tridiagonal

    if _PI2 * hbar * modulus**2 > cutoff / 4.0:
        raise ValueError(
            f"displacement |z|^2 = {modulus**2:.3g} exceeds the truncation "
            f"adequacy pi^2 hbar |z|^2 <= N/4 for N = {cutoff}"
        )
    off = _PI * math.sqrt(hbar) * modulus * np.sqrt(np.arange(1.0, cutoff + 1))
    evals, vecs = eigh_tridiagonal(np.zeros(cutoff + 1), off)
    vacuum = np.dot(vecs[0] * vecs[0], np.exp(1j * evals))
    defect = abs(vacuum - math.exp(-0.5 * _PI2 * hbar * modulus**2))
    if defect > _VACUUM_TOL:
        raise RuntimeError(
            f"exponential matrix misses its vacuum expectation "
            f"(defect {defect:.3e}); truncation inadequate"
        )
    return evals, vecs, defect


def _dense_exponential(hbar: float, cutoff: int, modulus: float) -> tuple[np.ndarray, float]:
    """U = e^{i pi R} = V cos(lam) V^T + i V sin(lam) V^T, and its vacuum defect."""
    evals, vecs, defect = _exponential_eigs(hbar, cutoff, modulus)
    u = np.empty((cutoff + 1, cutoff + 1), dtype=np.complex128)
    scaled = vecs * np.cos(evals)
    u.real = scaled @ vecs.T
    np.multiply(vecs, np.sin(evals), out=scaled)  # reused: one real temporary, not two
    u.imag = scaled @ vecs.T
    return u, defect


def _gauged(u: np.ndarray, z: complex) -> np.ndarray:
    """W_h(z) = D U D* from the real exponential U at |z|, D gauged by arg z."""
    p = _gauge(cmath.phase(z), len(u))
    return np.outer(p, p.conj()) * u


def weyl_matrix(mode: FockMode, z: complex) -> np.ndarray:
    """W_h(z) = exp(i pi phi_h(z)), gauged from the real tridiagonal
    exponential at |z| (see ``_exponential_eigs`` for the checks)."""
    z = complex(z)
    return _gauged(_dense_exponential(mode.hbar, mode.cutoff, abs(z))[0], z)


def _coherent_vector(mode: FockMode, z: complex) -> np.ndarray:
    """W_h(z) e_0 = D V (e^{i lam} V[0]) from the eigenpairs alone: column 0 of
    ``weyl_matrix(mode, z)`` without forming the matrix."""
    evals, vecs, _ = _exponential_eigs(mode.hbar, mode.cutoff, abs(z))
    column = vecs @ np.column_stack((np.cos(evals) * vecs[0], np.sin(evals) * vecs[0]))
    return _gauge(cmath.phase(z), mode.dim) * (column[:, 0] + 1j * column[:, 1])


@dataclass(frozen=True)
class GroundReport:
    energy: float
    energy_closed_form: float
    gap: float
    overlap_sq: float
    photon_number: float


def _lowest_pair(mode: FockMode) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of H and its ground vector D v, where v is
    the ground vector of the real gauged R = D* H D (D gauged by arg j)."""
    from scipy.linalg import eigh_tridiagonal  # on first use, as in _exponential_eigs

    occ = np.arange(mode.dim, dtype=np.float64)
    j = complex(mode.coupling)
    evals, vecs = eigh_tridiagonal(
        mode.hbar * mode.omega * occ,
        math.sqrt(mode.hbar) * abs(j) * np.sqrt(occ[1:]),
        select="i",
        select_range=(0, 1),
    )
    return evals, _gauge(cmath.phase(j), mode.dim) * vecs[:, 0]


def _photon_number(mode: FockMode, ground: np.ndarray) -> float:
    occ = np.arange(mode.dim, dtype=np.float64)
    return float(mode.hbar * np.sum(occ * np.abs(ground) ** 2))


def ground_state_analysis(mode: FockMode) -> GroundReport:
    """Diagonalize H once and compare against the displaced-oscillator closed
    forms: E_0 = -|j|^2/omega, gap = hbar omega, ground vector = coherent
    vector W_h(z*) e_0 with z* = i j/(pi hbar omega), and hbar <n> =
    |j/omega|^2 (reported as ``photon_number``)."""
    evals, ground = _lowest_pair(mode)
    z_star = 1j * complex(mode.coupling) / (_PI * mode.hbar * mode.omega)
    overlap = np.vdot(_coherent_vector(mode, z_star), ground)
    return GroundReport(
        energy=float(evals[0]),
        energy_closed_form=-abs(mode.coupling) * abs(mode.coupling) / mode.omega,
        gap=float(evals[1] - evals[0]),
        overlap_sq=float(abs(overlap) ** 2),
        photon_number=_photon_number(mode, ground),
    )


def mode_number_expectation(mode: FockMode) -> float:
    """<dGamma_h(1)> = hbar <n> in the true (diagonalized) ground state;
    closed form |j/omega|^2."""
    return _photon_number(mode, _lowest_pair(mode)[1])


# --------------------------------------------------------------------------
# assembling grid modes


def mode_for_node(sys: VanHoveSystem, index: int, hbar: float) -> FockMode:
    """The displaced mode at grid node ``index``: the coupling absorbs the
    square root of the quadrature measure, so mode sums reproduce grid
    norms exactly."""
    grid = sys.grid
    omega = float(grid.omega[index])
    j = complex(sys.j.values[index]) * math.sqrt(grid.measure(0)[index])
    return FockMode(
        omega=omega,
        coupling=j,
        cutoff=adequate_cutoff(omega, j, hbar),
        hbar=float(hbar),
    )


@dataclass(frozen=True)
class MultimodeReport:
    energy_matrix_sum: float
    energy_closed_form: float
    overlap_sq_product: float
    modes: int


def multimode_ground_scan(sys: VanHoveSystem, hbar: float) -> MultimodeReport:
    """Diagonalize every node mode and sum: total E_0 against -||J||_{-1}^2,
    and the product of squared ground overlaps (fidelity of the coherent
    ansatz across all modes)."""
    grid = sys.grid
    total = 0.0
    fidelity = 1.0
    for i in range(grid.size):
        report = ground_state_analysis(mode_for_node(sys, i, hbar))
        total += report.energy
        fidelity *= report.overlap_sq
    return MultimodeReport(
        energy_matrix_sum=total,
        energy_closed_form=-float(
            np.sum(grid.measure(-1) * np.abs(sys.j.values) ** 2)
        ),
        overlap_sq_product=fidelity,
        modes=grid.size,
    )


@dataclass(frozen=True)
class SoftPhotonReport:
    cutoffs: tuple[int, ...]
    numbers: tuple[float, ...]
    increment_slope: float | None
    diverging: bool


def soft_photon_sweep(
    sys: VanHoveSystem, hbar: float, cutoffs: Sequence[int]
) -> SoftPhotonReport:
    """Total photon number ||J_n||_{-2}^2 of the dressed ground state per
    infrared cutoff n (grid norms of the masked source; hbar drops out of
    the closed form).  The slope is fitted on log increments between
    consecutive cutoffs, skipping the first increment (ultraviolet bias);
    a nonnegative slope within 0.1 flags soft-photon divergence."""
    if sys.source is None:
        raise ValueError("soft-photon sweeps need a sourced system")
    ns = tuple(int(n) for n in cutoffs)
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("cutoffs must be strictly increasing, at least 3 of them")
    grid = sys.grid
    numbers = []
    for n in ns:
        j_n = realize(replace(sys.source, ir_cutoff=n)).values
        numbers.append(float(np.sum(grid.measure(-2) * np.abs(j_n) ** 2)))
    increments = np.diff(numbers)
    mids = np.sqrt(np.asarray(ns[:-1], dtype=float) * np.asarray(ns[1:], dtype=float))
    keep = increments > 0.0
    keep[0] = False
    slope: float | None
    if keep.sum() >= 3:
        slope = float(np.polyfit(np.log(mids[keep]), np.log(increments[keep]), 1)[0])
    else:
        slope = None
    diverging = slope is not None and slope >= -0.1
    return SoftPhotonReport(
        cutoffs=ns,
        numbers=tuple(numbers),
        increment_slope=slope,
        diverging=diverging,
    )


# --------------------------------------------------------------------------
# relative bounds for the scaled ladder operators


@dataclass(frozen=True)
class LadderBoundReport:
    trials: int
    max_annihilation_ratio: float
    max_creation_ratio: float


def ladder_bound_check(
    mode: FockMode, s_diag: float, trials: int = 200, seed: int = 0
) -> LadderBoundReport:
    """Ratios LHS/RHS of the relative bounds over random truncated vectors.

    Vectors have their top two components zeroed so that creation does not
    leak past the cutoff; for a single mode the annihilation bound is an
    identity (ratio 1) and the creation bound is strict except at edge
    cases, so all ratios must be <= 1 up to arithmetic (1 + 1e-12).
    """
    if s_diag <= 0.0:
        raise ValueError(f"s_diag must be > 0, got {s_diag}")
    if trials < 1:
        raise ValueError("need at least one trial")
    a, adag, _ = build_ladder(mode)
    occ = np.arange(mode.dim, dtype=np.float64)
    sqrt_h = math.sqrt(mode.hbar)
    # test function g = 1: ||S^{-1/2} g|| = s^{-1/2}, ||g|| = 1.
    s_inv_half = 1.0 / math.sqrt(s_diag)
    rng = np.random.default_rng(seed)
    worst_a = 0.0
    worst_c = 0.0
    for _ in range(trials):
        psi = rng.standard_normal(mode.dim) + 1j * rng.standard_normal(mode.dim)
        psi[-2:] = 0.0
        psi /= np.linalg.norm(psi)
        dgamma_half = math.sqrt(mode.hbar * s_diag) * np.sqrt(occ) * psi
        bound_core = s_inv_half * np.linalg.norm(dgamma_half)
        lhs_a = sqrt_h * np.linalg.norm(a @ psi)
        lhs_c = sqrt_h * np.linalg.norm(adag @ psi)
        if bound_core > 0.0:
            worst_a = max(worst_a, lhs_a / bound_core)
        worst_c = max(worst_c, lhs_c / (bound_core + sqrt_h * np.linalg.norm(psi)))
    return LadderBoundReport(
        trials=trials,
        max_annihilation_ratio=worst_a,
        max_creation_ratio=worst_c,
    )


# --------------------------------------------------------------------------
# sharp Garding probe over a single abstract mode


def single_mode_grid() -> MomentumGrid:
    """A one-node grid whose plain measure is exactly 1, so grid functions
    are single complex amplitudes and the exponential-algebra machinery
    (symplectic form Im conj(z) w, norms |z|^2) applies verbatim."""
    return make_grid(dim=1, mass=0.0, r_min=0.75, r_max=1.25, panels=1, points=1)


@dataclass(frozen=True)
class GardingReport:
    hbar_values: tuple[float, ...]
    lambda_min: tuple[float, ...]
    lambda_min_antiwick: tuple[float, ...]
    cutoffs: tuple[int, ...]
    fitted_constant: float
    fit_residual: float
    symbol_min: float
    #: max vacuum-expectation defect over the probe's exponentials
    vacuum_defect: float

    @property
    def bound_margin(self) -> float:
        """min over hbar of lambda_min + C hbar: >= 0 (up to arithmetic)
        certifies the -C hbar lower bound at the fitted rate constant."""
        return min(
            lam + self.fitted_constant * h
            for lam, h in zip(self.lambda_min, self.hbar_values)
        )


def _refine_torus_min(
    coeffs: np.ndarray, lattice: np.ndarray, x0: float, y0: float
) -> float:
    """Polish a sampled torus minimum of Re sum c e^{2 pi i (a x + b y)} by
    Newton steps (analytic gradient/Hessian); falls back to the sampled
    value whenever a step stops being a descent."""
    a, b = lattice.real, lattice.imag
    xy = np.array([x0, y0], dtype=np.float64)

    def value(pt: np.ndarray) -> float:
        return float(np.sum(coeffs * np.exp(2j * _PI * (a * pt[0] + b * pt[1]))).real)

    best = value(xy)
    for _ in range(60):
        ph = coeffs * np.exp(2j * _PI * (a * xy[0] + b * xy[1]))
        grad = 2.0 * _PI * np.array(
            [float(np.sum(1j * a * ph).real), float(np.sum(1j * b * ph).real)]
        )
        aa, ab, bb = (float(np.sum(u * ph).real) for u in (a * a, a * b, b * b))
        hess = -((2.0 * _PI) ** 2) * np.array([[aa, ab], [ab, bb]])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        candidate = xy - step
        cand_val = value(candidate)
        if cand_val > best + 1e-15:
            break
        xy, moved = candidate, float(np.max(np.abs(step)))
        best = min(best, cand_val)
        if moved < 1e-13:
            break
    return best


def garding_cutoff(hbar: float, floor: int) -> int:
    """Truncation large enough that states localized anywhere inside the
    unit periodicity cell (occupation <= 1/(2 hbar)) sit well inside the
    trusted lower half of the basis."""
    n_loc = 0.5 / hbar
    return max(floor, 2 * math.ceil(n_loc + 8.0 * math.sqrt(n_loc) + 24.0))


def garding_probe(
    symbol: TrigPolynomial,
    hbars: Sequence[float],
    cutoff: int = 64,
) -> GardingReport:
    """Lowest eigenvalue of the quantized nonnegative symbol versus hbar.

    The symbol must be a classical polynomial over the single-mode grid
    with (near-)Gaussian-integer generators; nonnegativity is certified by
    sampling on a _TORUS_POINTS^2 grid of the unit periodicity cell and
    Newton-polishing the minimum.  Per hbar the plain quantization
    sum_j c_j W_h(z_j) is assembled as a dense matrix on an adaptively
    enlarged truncation (``cutoff`` is only a floor), each W_h(z_j) gauged
    from one real exponential per distinct |z_j|, compressed to the
    trusted lower half, and its lowest eigenvalue recorded together with
    the anti-Wick variant (positive by construction); the largest
    vacuum-expectation defect of those exponentials is reported.  The
    rate constant C is fitted through the origin to lambda_min - min(symbol)
    over the smaller half of the hbar ladder, where the linear law has set
    in; the spectral bottom then obeys min(symbol) - C hbar <= lambda_min
    <= min(symbol) + C hbar (residual reported) and nothing converges
    faster than that O(hbar) rate.
    """
    if symbol.hbar != 0.0:
        raise ValueError("the Garding probe quantizes a classical symbol")
    if symbol.grid.size != 1:
        raise ValueError("the probe works over the single-mode grid")
    gens = symbol.gens[:, 0]
    coeffs = symbol.coeffs
    lattice = np.round(gens.real) + 1j * np.round(gens.imag)
    if np.max(np.abs(gens - lattice)) > 1e-12:
        raise ValueError(
            "positivity sampling needs Gaussian-integer generators "
            "(torus periodicity)"
        )
    xs = np.arange(_TORUS_POINTS) / _TORUS_POINTS
    x, y = np.meshgrid(xs, xs, indexing="ij")
    values = np.zeros_like(x, dtype=np.complex128)
    for c, z in zip(coeffs, lattice):
        values += c * np.exp(2j * _PI * (z.real * x + z.imag * y))
    if float(np.max(np.abs(values.imag))) > 1e-12:
        raise ValueError("symbol is not a real phase-space function")
    flat = int(np.argmin(values.real))
    sym_min = _refine_torus_min(
        coeffs, lattice, x.ravel()[flat], y.ravel()[flat]
    )
    if sym_min < -1e-9:
        raise ValueError(
            f"symbol is not a nonnegative phase-space function (min {sym_min:.3e})"
        )

    if len(hbars) == 0:
        raise ValueError("need at least one hbar value")
    lams: list[float] = []
    lams_aw: list[float] = []
    cutoffs: list[int] = []
    worst_vacuum = 0.0
    for h in hbars:
        n_h = garding_cutoff(float(h), cutoff)
        cutoffs.append(n_h)
        half = slice(0, n_h // 2 + 1)
        # one real exponential per distinct |z|, gauged for each generator
        exps = {r: _dense_exponential(float(h), n_h, r) for r in {abs(z) for z in gens.tolist()}}
        worst_vacuum = max([worst_vacuum, *(worst for _, worst in exps.values())])
        q, q_aw = np.zeros((2, n_h + 1, n_h + 1), dtype=np.complex128)
        for poly, acc in ((symbol, q), (antiwick(symbol, float(h)), q_aw)):
            for c, z in zip(poly.coeffs, poly.gens[:, 0].tolist()):
                acc += c * _gauged(exps[abs(z)][0], z)
        exps = None  # free this cutoff's matrices before the eigensolves
        for name, mat, out in (("plain", q, lams), ("anti-Wick", q_aw, lams_aw)):
            defect = float(np.max(np.abs(mat - mat.conj().T)))
            if defect > 1e-10:
                raise RuntimeError(f"{name} quantization is not Hermitian (defect {defect:.3e})")
            out.append(float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)[half, half])[0]))

    hs = np.asarray(hbars, dtype=np.float64)
    gaps = np.abs(np.asarray(lams) - sym_min)
    order = np.argsort(hs)
    tail = order[: max(3, hs.size // 2)] if hs.size >= 3 else order
    denom = float(np.sum(hs[tail] ** 2))
    constant = float(np.sum(gaps[tail] * hs[tail]) / denom) if denom > 0 else 0.0
    top = float(gaps[tail].max())
    misfit = float(np.max(np.abs(gaps[tail] - constant * hs[tail])))
    residual = misfit / top if top > 0.0 else 0.0
    return GardingReport(
        hbar_values=tuple(float(h) for h in hbars),
        lambda_min=tuple(lams),
        lambda_min_antiwick=tuple(lams_aw),
        cutoffs=tuple(cutoffs),
        fitted_constant=constant,
        fit_residual=residual,
        symbol_min=sym_min,
        vacuum_defect=worst_vacuum,
    )
