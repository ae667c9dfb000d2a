r"""Single-mode Fock machinery on tridiagonal matrices: spectra, coherent
dressing, the Garding probe.

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
= D R D*.  So their spectra come from tridiagonal solvers on R: W_h(z) =
D e^{i pi R} D*, and the ground state of H is D times a real vector.  The
field's R is sqrt(hbar) |z| T_N, where the number ladder T_N (zero
diagonal, off-diagonal sqrt(k)) depends on the truncation alone.
``weyl_matrix`` forms e^{i pi R} from one full solve of T_N by
``scipy.linalg.eigh_tridiagonal``.  T_N is bipartite (it moves the
occupation by one), so cos(pi R) keeps the parity (-1)^k of the
occupation and sin(pi R) flips it, and T_N^2 splits into two half-size
tridiagonals, on the even and on the odd occupations: ``_sector_blocks``
solves each once per call and forms the cosine blocks at every requested
|z| from them (W_h(0) is the identity, needing no solve).  The two lowest
eigenpairs of H come from LAPACK's dstebz + dstein called directly
(``_lowest_two_eigh``), its ground vector checked against the closed-form
coherent amplitudes e^{-|b|^2/2} b^k/sqrt(k!), b = i pi sqrt(hbar) z*.
The exponentials satisfy
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

``garding_probe`` quantizes a nonnegative classical symbol over a single
mode and tracks the lowest eigenvalue of its compression to the trusted
lower half: plain quantization dips below zero only O(hbar), anti-Wick
stays nonnegative.  The probe takes even symbols (c_{-z} = c_z, as every
|p|^2 with real-coefficient p): W_h(z) and W_h(-z) differ only in the sign
of their parity-flipping sine parts, which cancel, so the quantization
splits into two Hermitian blocks, on the even and on the odd occupations
of the trusted (N//2 + 1)^2 block, the only part the eigensolve reads.
Each is assembled from the cosine blocks of its own sector's solve and
solved apart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Collection, Sequence

import numpy as np

from .dynamics import VanHoveSystem, ground_energy
from .grid import MomentumGrid, make_grid, weighted_norm_sq
from .sources import realize
from .weyl import TrigPolynomial, antiwick

__all__ = [
    "FockMode",
    "displacement_levels",
    "adequate_cutoff",
    "exponential_fits",
    "weyl_matrix",
    "GroundReport",
    "ground_state_analysis",
    "mode_for_node",
    "MultimodeReport",
    "multimode_ground_scan",
    "SoftPhotonReport",
    "soft_photon_sweep",
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
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not 0.0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and > 0, got {self.hbar}")
        if not math.isfinite(self.hbar * self.omega):
            raise ValueError(f"hbar * omega must be finite, got {self.hbar} * {self.omega}")
        if not isinstance(self.cutoff, int) or self.cutoff < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")
        levels = displacement_levels(self.omega, self.coupling, self.hbar)
        if not levels <= self.cutoff - CUTOFF_MARGIN:
            raise ValueError(
                f"cutoff {self.cutoff} too small for the displacement: need >= "
                f"4|j|^2/(hbar omega^2) + {CUTOFF_MARGIN} = {levels:.17g} + {CUTOFF_MARGIN}"
            )

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def displacement_levels(omega: float, coupling: complex, hbar: float) -> float:
    """4|j|^2/(hbar omega^2), which a truncation N clears iff it is <= N - margin;
    formed from |j|/omega (|j|^2, omega^2 overflow past 1e154), inf past 1e308."""
    ratio = abs(coupling) / omega
    return 4.0 * ratio * ratio / hbar


def adequate_cutoff(omega: float, coupling: complex, hbar: float) -> int:
    """Smallest admissible truncation for a displaced mode; a displacement
    that is not finite has none."""
    levels = displacement_levels(omega, coupling, hbar)
    if not math.isfinite(levels):
        raise ValueError(
            f"displacement 4|j|^2/(hbar omega^2) = {levels} has no finite truncation"
        )
    return math.ceil(levels) + CUTOFF_MARGIN


def exponential_fits(hbar: float, cutoff: int, modulus_sq: float) -> bool:
    """W_h(z) on N + 1 levels is adequate: pi^2 hbar |z|^2 <= N/4 (nan fails)."""
    return _PI2 * hbar * modulus_sq <= cutoff / 4.0


def _gauge(theta: float, occ: np.ndarray) -> np.ndarray:
    """The diagonal p_k = e^{i k theta} of D over the occupations ``occ``:
    D R D* multiplies the k-th sub-diagonal entry of R by e^{i theta}."""
    return np.exp(1j * theta * occ)


def _lowest_two_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs (evals ascending, vecs in columns) of the
    real symmetric tridiagonal with diagonal ``diag`` and off-diagonal
    ``off``, from LAPACK dstebz (indices 1..2, block order, vl/vu = 0/1, tol
    0) then dstein, sorted by eigenvalue.  These are the calls, arguments and
    ordering of ``scipy.linalg.eigh_tridiagonal(diag, off, select="i",
    select_range=(0, 1))`` under its ``auto`` driver, so the results are
    bitwise its results, without its argument handling, which nearly doubles
    the cost of these small solves (512 per multimode scan).  Its two
    refusals stay: a non-finite entry raises ValueError, a nonzero LAPACK
    info LinAlgError."""
    # imported on first use: the CLI imports this module for every command,
    # and scipy is loaded only by the Fock commands and `scattering`
    from scipy.linalg import lapack

    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    count, evals, block, split, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 2, 0.0, "B")
    if info == 0:
        evals = evals[:count]
        vecs, info = lapack.dstein(diag, off, evals, block, split)
        order = np.argsort(evals)
        evals, vecs = evals[order], vecs[:, order]
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed: LAPACK info {info}")
    return evals, vecs


def _refuse_displacements(hbar: float, cutoff: int, moduli: Collection[float]) -> None:
    """Every exponential's displacement guard: refuses pi^2 hbar |z|^2 > N/4."""
    for modulus in moduli:
        modulus_sq = modulus * modulus  # inf past 1.3e154, where ** raises OverflowError
        if not exponential_fits(hbar, cutoff, modulus_sq):
            raise ValueError(
                f"displacement |z|^2 = {modulus_sq:.3g} exceeds the truncation "
                f"adequacy pi^2 hbar |z|^2 <= N/4 for N = {cutoff}"
            )


def _vacuum_defect(hbar: float, modulus: float, vacuum: complex) -> float:
    """|<e_0, U e_0> - e^{-pi^2 hbar |z|^2 / 2}| for the vacuum entry of an
    exponential at |z|, refused past the ceiling."""
    defect = abs(vacuum - math.exp(-0.5 * _PI2 * hbar * (modulus * modulus)))
    if defect > _VACUUM_TOL:
        raise RuntimeError(
            f"exponential matrix misses its vacuum expectation "
            f"(defect {defect:.3e}); truncation inadequate"
        )
    return defect


def _sector_blocks(
    hbar: float, cutoff: int, moduli: Collection[float], size: int
) -> tuple[dict[float, tuple[np.ndarray, np.ndarray]], float]:
    """The cosine blocks (C_ee, C_oo) of U = e^{i pi R}, R = sqrt(hbar) |z| T_N,
    on the even and on the odd occupations below ``size`` for each modulus
    |z|, and the worst vacuum defect of them.  The displacement guard runs
    first.  Then, if some modulus is nonzero, each parity sector of T_N^2 is
    solved once, U_p diag(lam) U_p^T by ``scipy.linalg.eigh_tridiagonal``
    under the ``stemr`` driver: on k = 2i the diagonal 4i + 1 and off-diagonal
    sqrt((2i + 1)(2i + 2)), on k = 2j + 1 the diagonal 4j + 3 and off-diagonal
    sqrt((2j + 2)(2j + 3)), and the diagonal N at the last level k = N, which
    has no k + 1 term (the Laguerre L^{(-1/2)} and L^{(1/2)} Jacobi matrices,
    DLMF 18.7.19-20).  C_pp = U_p cos(pi s sqrt(lam)) U_p^T with s =
    sqrt(hbar) |z|, lam clipped at 0 (for even N the even sector's zero mode
    can round below it).  The vacuum entry <e_0, U e_0> is C_ee's first, as
    <e_0, S e_0> = 0 for the parity-flipping S = sin(pi R).  At |z| = 0, U is
    the identity, with defect 0 and no solve."""
    _refuse_displacements(hbar, cutoff, moduli)
    blocks = {0.0: (np.eye((size + 1) // 2), np.eye(size // 2))} if 0.0 in moduli else {}
    nonzero = [modulus for modulus in moduli if modulus != 0.0]
    if not nonzero:
        return blocks, 0.0
    # imported on first use, as in _lowest_two_eigh
    from scipy.linalg import eigh_tridiagonal

    occ = np.arange(cutoff + 1.0)
    diag = np.append(2.0 * occ[:-1] + 1.0, cutoff)  # (T_N^2)_kk = k + (k + 1), and N at k = N
    off = np.sqrt(occ[1:-1] * occ[2:])  # (T_N^2)_{k-1,k+1} = sqrt(k (k + 1))
    sectors = []
    for parity in (0, 1):
        lam, vecs = eigh_tridiagonal(diag[parity::2], off[parity::2], lapack_driver="stemr")
        sectors.append((np.sqrt(np.maximum(lam, 0.0)), vecs[: (size + 1 - parity) // 2]))
    for modulus in nonzero:
        scale = _PI * math.sqrt(hbar) * modulus
        blocks[modulus] = tuple((rows * np.cos(scale * root)) @ rows.T for root, rows in sectors)
    return blocks, max(_vacuum_defect(hbar, m, blocks[m][0][0, 0]) for m in nonzero)


def _gauged(u: np.ndarray, z: complex, occ: np.ndarray) -> np.ndarray:
    """D U D* from an exponential block U at |z| whose rows and columns
    are the occupations ``occ``, D gauged by arg z over them (D is diagonal,
    so any such block of U gives the same block of W_h(z))."""
    p = _gauge(cmath.phase(z), occ)
    return np.outer(p, p.conj()) * u


def weyl_matrix(mode: FockMode, z: complex) -> np.ndarray:
    """W_h(z) = exp(i pi phi_h(z)) on all N + 1 levels from a full solve of
    its own, T_N = V diag(mu) V^T by ``scipy.linalg.eigh_tridiagonal``: D V
    e^{i pi s mu} V^T D* with s = sqrt(hbar) |z|, as the real products V cos
    V^T and V sin V^T.  It shares only the refusals with ``_sector_blocks``."""
    z = complex(z)
    _refuse_displacements(mode.hbar, mode.cutoff, [abs(z)])
    # imported on first use, as in _lowest_two_eigh
    from scipy.linalg import eigh_tridiagonal

    occ = np.arange(mode.dim, dtype=np.float64)
    mu, vecs = eigh_tridiagonal(np.zeros(mode.dim), np.sqrt(occ[1:]))
    lam = (_PI * math.sqrt(mode.hbar) * abs(z)) * mu
    u = (vecs * np.cos(lam)) @ vecs.T + 1j * ((vecs * np.sin(lam)) @ vecs.T)
    _vacuum_defect(mode.hbar, abs(z), u[0, 0])
    return _gauged(u, z, occ)


def _coherent_vector(mode: FockMode, z: complex) -> np.ndarray:
    """W_h(z) e_0 on the mode's N + 1 levels in closed form, e^{-|b|^2/2}
    b^k/sqrt(k!) with b = i pi sqrt(hbar) z, by the ratios b/sqrt(k): column 0
    of ``weyl_matrix(mode, z)`` up to that matrix's truncation error.  Refuses
    |b|^2 > 1400 (N ~ 5600 at z*), past which e^{-|b|^2/2} leaves the normal
    floats and the partial products (peak ~e^{|b|^2/2}) near overflow."""
    b = 1j * _PI * math.sqrt(mode.hbar) * complex(z)
    modulus_sq = abs(b) * abs(b)
    if not modulus_sq <= 1400.0:
        raise ValueError(f"coherent amplitudes out of float range at |b|^2 = {modulus_sq:.6g}")
    amps = np.ones(mode.dim, dtype=np.complex128)
    np.cumprod(b / np.sqrt(np.arange(1.0, mode.dim)), out=amps[1:])
    return math.exp(-0.5 * modulus_sq) * amps


@dataclass(frozen=True)
class GroundReport:
    energy: float
    energy_closed_form: float
    gap: float
    overlap_sq: float
    photon_number: float


def _lowest_pair(mode: FockMode) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenvalues of H and its ground vector D v, where v is
    the ground vector of the real gauged R = D* H D (D gauged by arg j), solved
    as R/(hbar omega) (diagonal k; R's own reaches 2e300 at omega = 1e300,
    where dstein fails) with the eigenvalues scaled back by hbar omega."""
    occ = np.arange(mode.dim, dtype=np.float64)
    j = complex(mode.coupling)
    quantum = mode.hbar * mode.omega
    evals, vecs = _lowest_two_eigh(occ, math.sqrt(mode.hbar) * abs(j) / quantum * np.sqrt(occ[1:]))
    return quantum * evals, _gauge(cmath.phase(j), occ) * vecs[:, 0]


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
        photon_number=float(mode.hbar * (np.arange(mode.dim) * np.abs(ground) ** 2).sum()),
    )


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
        energy_closed_form=ground_energy(sys),
        overlap_sq_product=fidelity,
        modes=grid.size,
    )


@dataclass(frozen=True)
class SoftPhotonReport:
    cutoffs: tuple[int, ...]
    numbers: tuple[float, ...]
    increment_slope: float | None
    diverging: bool


def soft_photon_sweep(sys: VanHoveSystem, cutoffs: Sequence[int]) -> SoftPhotonReport:
    """Total photon number ||J_n||_{-2}^2 of the dressed ground state per
    infrared cutoff n (grid norms of the masked source; hbar drops out of
    the closed form).  The slope is fitted on log increments between
    consecutive cutoffs, skipping the first increment (ultraviolet bias);
    a nonnegative slope within 0.1 flags soft-photon divergence."""
    ns = tuple(int(n) for n in cutoffs)
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("cutoffs must be strictly increasing, at least 3 of them")
    numbers = [weighted_norm_sq(realize(replace(sys.source, ir_cutoff=n)), -2) for n in ns]
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
    """Lowest eigenvalue of the quantized nonnegative even symbol versus hbar.

    The symbol must be a classical polynomial over the single-mode grid
    with (near-)Gaussian-integer generators; reality, evenness (a(-x, -y) =
    a(x, y), to the same 1e-12) and nonnegativity are certified by sampling
    on a _TORUS_POINTS^2 grid of the unit periodicity cell, the minimum
    Newton-polished.  Per hbar the plain quantization sum_j c_j W_h(z_j) on
    an adaptively enlarged truncation N (``cutoff`` is only a floor) is
    assembled as dense matrices on its trusted lower half alone, the
    leading (N//2 + 1)^2 block, split by the parity of the occupation: on
    each sector W_h(z_j) is gauged from the cosine block of one real
    exponential per distinct |z_j|, all of them from one ``_sector_blocks``
    call per N (two half-size solves, one per parity sector of T_N^2, freed
    before the assembly; W_h(0) is the identity, and no full-spectrum solve
    is made), and no sine block is formed, the sine parts of an even symbol
    cancelling.  The bottom is the smaller of
    the two sectors' lowest eigenvalues, recorded together with that of the
    anti-Wick variant (positive by construction); each sector block is
    checked Hermitian, and the largest vacuum-expectation defect of the
    exponentials is reported.  The rate
    constant C is fitted through the origin to lambda_min - min(symbol)
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
    mirror = -np.arange(_TORUS_POINTS) % _TORUS_POINTS  # the samples at (-x, -y)
    if float(np.max(np.abs(values - values[np.ix_(mirror, mirror)]))) > 1e-12:
        raise ValueError(
            "the probe quantizes even symbols only (c_{-z} = c_z, a(-x, -y) = a(x, y)), "
            "whose quantizations keep the parity of the occupation"
        )
    flat = int(np.argmin(values.real))
    sym_min = _refine_torus_min(coeffs, lattice, x.ravel()[flat], y.ravel()[flat])
    if sym_min < -1e-9:
        raise ValueError(f"symbol is not a nonnegative phase-space function (min {sym_min:.3e})")

    if len(hbars) == 0:
        raise ValueError("need at least one hbar value")
    lams: list[float] = []
    lams_aw: list[float] = []
    cutoffs: list[int] = []
    worst_vacuum = 0.0
    moduli = {abs(z) for z in gens.tolist()}
    for h in hbars:
        n_h = garding_cutoff(float(h), cutoff)
        cutoffs.append(n_h)
        trusted = n_h // 2 + 1
        # the cosine blocks of one real exponential per distinct |z| on each
        # parity sector of the trusted block, gauged for each generator
        exps, defect = _sector_blocks(float(h), n_h, moduli, trusted)
        worst_vacuum = max(worst_vacuum, defect)
        sectors = [np.arange(parity, trusted, 2, dtype=np.float64) for parity in (0, 1)]
        aw = antiwick(symbol, float(h))
        for name, poly, bottoms in (("plain", symbol, lams), ("anti-Wick", aw, lams_aw)):
            sector_bottoms = []
            for parity, occ in enumerate(sectors):
                mat = np.zeros((occ.size, occ.size), dtype=np.complex128)
                for c, z in zip(poly.coeffs, poly.gens[:, 0].tolist()):
                    mat += c * _gauged(exps[abs(z)][parity], z, occ)
                defect = float(np.max(np.abs(mat - mat.conj().T)))
                if defect > 1e-10:
                    raise RuntimeError(
                        f"{name} quantization is not Hermitian (defect {defect:.3e})"
                    )
                sector_bottoms.append(float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0]))
            bottoms.append(min(sector_bottoms))

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
