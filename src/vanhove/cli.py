r"""Deterministic command-line front end.

Every command is one declaration in ``_COMMANDS``: its runner, its keys as
``key: (default, rule)`` and its cross-key rules.  A command reads a flat
``key=value`` configuration (defaults, optionally a ``--config`` file, then
positional overrides; unknown keys are an error), checks every rule before
any compute, runs one workbench computation and returns ``Check`` records.
The rules hold only what belongs to the command line (spans, ``t_min <=
t_max``, time axes whose phases t omega stay finite, Fock truncations and
memory ceilings).  The rest is refused by the
objects that take the parameters, built first: the grid (``make_grid``) and
the source on it, then the spectral window (``kms_window``), the Filon rule's
grid (``check_filon_grid``), the regime and its beta_hbar on the hbar ladder,
or the Fock mode (``FockMode``), and ``classify``'s shell fit
(``numeric_classification``); their ``ValueError`` is a configuration error.
It writes ``<out>.csv`` (rows of numbers, 17 significant digits, ``#``-prefixed
header recording the full configuration and its hash) plus ``<out>.json`` (flat
summary, each check as value, tolerance and margin, and the names of the failed
checks), and prints a one-line summary.  Identical configurations produce byte-identical outputs.

Exit codes: 0 success, 1 a named invariant failed, 2 configuration error.

Randomness (where a command samples test functions) comes from one numpy
Generator seeded by the ``seed`` key mod 2^64.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dynamics, fock, scattering, semiclassics, sources, states, weyl
from .grid import DIM_MAX, MomentumGrid, from_values, make_grid, sample, weighted_norm_sq

__all__ = ["main"]

def worker_count() -> int:
    """Threads a command runs on; perfbench's single-stack tracer checks it is one."""
    return 1


class ConfigError(Exception):
    pass


#: A key's rule: (what its value must be, the test).
Rule = tuple[str, Callable[[object], bool]]
#: A cross-key rule: (the message, formatted with the configuration; the test).
CrossRule = tuple[str, Callable[[dict], bool]]

_ANY: Rule = ("any integer", lambda n: True)
_COUNT: Rule = (">= 1", lambda n: n >= 1)
_FINITE: Rule = ("finite", math.isfinite)
_POSITIVE: Rule = ("finite and > 0", lambda x: 0.0 < x < math.inf)
_NONNEGATIVE: Rule = ("finite and >= 0", lambda x: 0.0 <= x < math.inf)
#: hbar = 2^-k from 1 down to the float epsilon
_EXPONENT: Rule = ("in 0..52", lambda k: 0 <= k <= 52)
#: make_grid's domain (its Gamma(d/2) table); beyond it the infrared panels'
#: r^(d-1) falls below the smallest float
_DIM: Rule = (f"in 1..{DIM_MAX}", lambda d: 1 <= d <= DIM_MAX)


#: Count ceilings, each from the memory it drives (peak RSS growth measured):
#: - output rows (evolve steps, kms pairs, scattering times) cost ~500 B each,
#:   row and CSV line (10^5 more evolve steps: +50 MB), so 2^17 rows ~65 MB;
#: - panels x points grid nodes cost ~120 B each (2^16 nodes: +8 MB);
#: - a (t_points, N) phase table costs ~24 B an entry in kms (the complex table
#:   beside its real factor; 4096 x 512: +50 MB) and ~30 B in scattering
#:   (20,000 x 512: +312 MB): 2^21 entries ~50 and ~63 MB.  kms's pair blocks
#:   add 2^14-entry weights and cross terms, past 4096 times one pair's
#:   (t_points, 4) cross terms (131,072 x 16: 57 MB traced, the table 52 MB).
_ROWS_MAX, _NODES_MAX, _TABLE_MAX = 2**17, 2**16, 2**21
_ROWS: Rule = (f"in 1..{_ROWS_MAX}", lambda n: 1 <= n <= _ROWS_MAX)
#: Rows the CSV writer formats at a time
_CSV_BLOCK = 2**8


def _at_most(limit: int, *keys: str) -> CrossRule:
    """The product of the keys' values is at most ``limit``."""
    return (
        f"{' x '.join(keys)} must be <= {limit}, got " + " x ".join(f"{{{k}}}" for k in keys),
        lambda c: math.prod(c[k] for k in keys) <= limit,
    )


def _span(low: str, high: str, count: int) -> CrossRule:
    """The integer range low..high holds at least ``count`` values."""
    return (
        f"{low}..{high} must span at least {count} value{'s' * (count > 1)}, "
        f"got {{{low}}}..{{{high}}}",
        lambda c: c[high] - c[low] + 1 >= count,
    )


def _finite_phases(*keys: str, mirrored: bool = False) -> CrossRule:
    """The time axis through the keys' values (and their negations, when
    ``mirrored``) keeps its span and every phase t omega finite: omega <=
    hypot(r_max, mass) on the grid, and past the float range e^{i t omega} is nan."""

    def holds(c: dict) -> bool:
        ends = [c[k] for k in keys] + [-c[k] for k in keys if mirrored]
        reach = max(map(abs, ends)) * math.hypot(c["r_max"], c["mass"])
        return math.isfinite(reach) and math.isfinite(max(ends) - min(ends))

    shown = ", ".join(f"{k}={{{k}}}" for k in (*keys, "r_max", "mass"))
    return (
        "|t| x hypot(r_max, mass) and the span of the time axis must be finite, "
        f"got {shown}",
        holds,
    )


def _validate(cfg: dict, keys: dict, cross: Sequence[CrossRule]) -> None:
    """Raise ConfigError for the first key, then the first cross-key rule,
    that the configuration breaks."""
    for key, (_, (text, holds)) in keys.items():
        if not holds(cfg[key]):
            raise ConfigError(f"{key} must be {text}, got {cfg[key]}")
    for text, holds in cross:
        if not holds(cfg):
            raise ConfigError(text.format_map(cfg))


@dataclass(frozen=True)
class Check:
    """A named invariant: it holds iff ``value <= tol``, so nan fails."""

    name: str
    value: float
    tol: float


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _coerce(key: str, raw: str, template) -> object:
    try:
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(
            f"cannot parse {key}={raw!r} as {type(template).__name__}"
        ) from exc


def resolve_config(
    defaults: dict, config_file: str | None, overrides: Iterable[str]
) -> dict:
    cfg = dict(defaults)
    pairs: list[tuple[str, str]] = []
    if config_file:
        try:
            text = Path(config_file).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_file}: {exc}") from exc
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line {line!r}")
            k, v = line.split("=", 1)
            pairs.append((k.strip(), v.strip()))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        k, v = item.split("=", 1)
        pairs.append((k.strip(), v.strip()))
    for k, v in pairs:
        if k not in cfg:
            raise ConfigError(
                f"unknown key {k!r}; known keys: {', '.join(sorted(cfg))}"
            )
        cfg[k] = _coerce(k, v, cfg[k])
    return cfg


def config_hash(cfg: dict) -> str:
    blob = "\n".join(f"{k}={_fmt(cfg[k])}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CommandResult:
    header: list[str]
    rows: list[tuple]
    summary: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return sorted({c.name for c in self.checks if not c.value <= c.tol})


def _write_outputs(out_prefix: str, cfg: dict, result: CommandResult) -> None:
    chash = config_hash(cfg)
    # by blocks of rows (the text of 2^17 rows would add ~40 MB), then by column
    with open(out_prefix + ".csv", "w") as csv:
        csv.writelines(f"# {k}={_fmt(cfg[k])}\n" for k in sorted(cfg))
        csv.write(f"# config_hash={chash}\n{','.join(result.header)}\n")
        for first in range(0, len(result.rows), _CSV_BLOCK):
            cells = [
                [format(v, ".17g") for v in column]
                if all(type(v) is float for v in column) else list(map(_fmt, column))
                for column in zip(*result.rows[first : first + _CSV_BLOCK])
            ]
            csv.writelines(",".join(row) + "\n" for row in zip(*cells))
    payload = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": chash,
        "summary": {k: result.summary[k] for k in sorted(result.summary)},
        "checks": {
            c.name: {"value": float(c.value), "tol": float(c.tol), "margin": float(c.tol - c.value)}
            for c in result.checks
        },
        "failures": result.failures,
    }
    Path(out_prefix + ".json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _configured(build: Callable, *args, **kwargs):
    """build(*args, **kwargs), whose every ValueError refuses a parameter: a
    configuration error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _source_from(cfg: dict) -> sources.SourceSpec:
    """The configured source on the configured grid (its ``grid``), each built
    once per command and first: make_grid refuses the grid, then the spec a
    source whose samples overflow on it."""
    grid = _configured(make_grid, **{key: cfg[key] for key in _GRID_KEYS})
    cutoff = cfg["ir_cutoff"] if cfg["ir_cutoff"] > 0 else None
    return _configured(sources.power_law_gaussian, grid, cfg["gamma"], ir_cutoff=cutoff)


def _kms_pairs(grid: MomentumGrid, seed: int, count: int, block: int) -> Iterable[tuple]:
    """``count`` random (f, g) pairs from one Generator seeded by ``seed`` mod
    2^64, f before g: each member sums exp(-s r^2), s = 0.5, 1, 2, 4, left to
    right, with standard complex normal coefficients (4 real parts, then 4
    imaginary parts), so pair k depends on neither ``count`` nor ``block``.
    They are drawn lazily, ``block`` pairs per Generator call."""
    rng = np.random.default_rng(seed % 2**64)
    gaussians = [np.exp(-s * grid.nodes**2) for s in (0.5, 1.0, 2.0, 4.0)]
    for start in range(0, count, block):
        draws = rng.standard_normal((min(block, count - start), 2, 2, 4))
        coeffs = draws[:, :, 0] + 1j * draws[:, :, 1]
        # summed in place from 0, left to right, as sum() would
        members = np.zeros((len(draws), 2, grid.size), dtype=np.complex128)
        for i, gauss in enumerate(gaussians):
            members += coeffs[..., i, None] * gauss
        for f, g in members:
            yield from_values(grid, f), from_values(grid, g)


def _verdict(holds: bool) -> float:
    """A yes/no invariant as a check value against a tolerance of 0."""
    return 0.0 if holds else 1.0


def _roundoff_tol(base: float, size: float) -> float:
    """base * size for a check reading the rounding of a quantity of that size,
    at least base (nan counts as 1) and capped at size 1e8 (inf too): |expm1| of
    an imaginary exponent never passes 2, so a value near 1 must fail."""
    return base * min(max(1.0, size), 1e8)


def _angle_size(sys_: dynamics.VanHoveSystem, f, center, shift: float) -> float:
    """2 pi sum m_0 |f| (|center| + shift |J/omega|): the size of the angle of
    the point mass at ``center`` on W(f) after a Heisenberg shift <= shift J/omega
    (2 for tau_t, whose shift is (e^{-i t omega} - 1) J/omega)."""
    reach = np.abs(center.values) + shift * np.abs(sys_.j_over_omega.values)
    return 2.0 * math.pi * float(np.sum(sys_.grid.measure(0) * np.abs(f.values) * reach))


# --------------------------------------------------------------------------
# commands


def cmd_classify(cfg: dict) -> CommandResult:
    spec = _source_from(cfg)
    analytic = sources.classify_analytic(spec)
    header = ["alpha", "divergence_slope", "clearly_divergent"]
    if analytic is sources.InfraredClass.OUT_OF_SCOPE:
        # no realization exists, so there is nothing to integrate numerically
        return CommandResult(
            header,
            [(alpha, math.nan, False) for alpha in (0, 1, 2)],
            {"analytic_class": analytic.value, "numeric_class": "not_applicable",
             "agreement": True},
        )
    report = _configured(sources.numeric_classification, spec)
    rows = [
        (alpha, math.nan if slope is None else slope, report.clearly_divergent[alpha])
        for alpha, slope in report.divergence_slopes.items()
    ]
    agree = analytic == report.infrared_class
    return CommandResult(
        header,
        rows,
        {"analytic_class": analytic.value, "numeric_class": report.infrared_class.value,
         "agreement": agree},
        [Check("classification agreement", _verdict(agree), 0.0)],
    )


def cmd_energy(cfg: dict) -> CommandResult:
    sys_ = dynamics.make_system(_source_from(cfg))
    minimizer = -sys_.j_over_omega
    summary = {
        "classical_min_energy": dynamics.classical_energy(sys_, minimizer),
        "spectral_bottom": dynamics.ground_energy(sys_),
    }
    e_ground = summary["spectral_bottom"]
    residual = abs(summary["classical_min_energy"] - e_ground) / max(abs(e_ground), 1.0)
    summary["identity_residual"] = residual
    summary["photon_number"] = weighted_norm_sq(sys_.j, -2)
    return CommandResult(
        ["quantity", "value"],
        list(summary.items()),
        summary,
        [Check("energy identity", residual, 1e-10)],
    )


def cmd_evolve(cfg: dict) -> CommandResult:
    sys_ = dynamics.make_system(_source_from(cfg))
    grid = sys_.grid
    bump = cfg["perturbation"] * np.exp(-grid.nodes**2) * (1.0 + 0.5j)
    alpha0 = from_values(grid, -sys_.j_over_omega.values + bump)
    e0 = dynamics.classical_energy(sys_, alpha0)
    scale = max(abs(e0), 1.0)
    gibbs = states.gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    probe = sample(grid, lambda r: np.exp(-(r**2)))
    char0 = gibbs.char(probe)
    axis = (-cfg["t_max"], cfg["t_max"], cfg["steps"])
    ts = np.linspace(*axis)
    # Heisenberg picture: evolve_state would only move the centre along the
    # flow, which fixes -J/omega exactly and so could not drift at all.
    energies, chars = dynamics.evolve_rows(sys_, alpha0, gibbs, probe, *axis)
    energy_drift = np.abs(energies - e0) / scale
    d = chars - char0
    # |chi(t) - chi(0)| / |chi(0)|, nan where chi(0) underflows (hypot: abs, bit for bit)
    char_drift = np.hypot(d.real, d.imag) / abs(char0)
    rows = list(zip(ts.tolist(), energies.tolist(), energy_drift.tolist(), char_drift.tolist()))
    worst_drift, worst_char = float(np.max(energy_drift)), float(np.max(char_drift))
    # it reads the rounding of chi's exponent: Gaussian part and angle
    gaussian = -gibbs.scale * float(np.sum(gibbs.weight * np.abs(probe.values) ** 2))
    char_tol = _roundoff_tol(1e-14, gaussian + _angle_size(sys_, probe, gibbs.center, 2.0))
    return CommandResult(
        ["t", "energy", "energy_drift", "equilibrium_char_drift"],
        rows,
        {"max_energy_drift": worst_drift, "max_equilibrium_char_drift": worst_char},
        [Check("energy conservation", worst_drift, 1e-10),
         Check("equilibrium invariance", worst_char, char_tol)],
    )


def cmd_kms(cfg: dict) -> CommandResult:
    sys_ = dynamics.make_system(_source_from(cfg))
    state = states.gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    ts = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    # drawn one block at a time, as kms_check checks them
    block = dynamics.kms_block(sys_.grid, ts.size)
    pairs = _kms_pairs(sys_.grid, cfg["seed"], cfg["pairs"], block)
    defects = dynamics.kms_check(sys_, state, cfg["beta_h"], pairs, ts)
    worst = float(np.max(defects))
    return CommandResult(
        ["pair", "defect"],
        list(enumerate(defects.tolist())),
        {"max_defect": worst, "pairs": cfg["pairs"]},
        [Check("kms cross terms", worst, 1e-12)],
    )


def cmd_groundstate(cfg: dict) -> CommandResult:
    spec = _source_from(cfg)
    window = _configured(dynamics.kms_window, cfg["s_minus"], cfg["s_plus"])
    sys_ = dynamics.make_system(spec)
    grid = sys_.grid
    f = sample(grid, lambda r: np.exp(-(r**2)))
    g = sample(grid, lambda r: np.exp(-2.0 * r**2))
    report = dynamics.ground_state_check(sys_, f, g, window, hbar=cfg["hbar"])
    negative = cfg["s_plus"] < 0.0
    checks = [Check("window value finite", _verdict(math.isfinite(report.value)), 0.0)]
    if negative:
        checks.append(Check("ground-state annihilation", report.value, dynamics.WINDOW_TOL))
    return CommandResult(
        ["quantity", "value"],
        [("window_value", report.value), ("t_max", window.t_max), ("t_points", report.t_points)],
        {"window_value": report.value, "s_minus": cfg["s_minus"], "s_plus": cfg["s_plus"],
         "t_max": window.t_max, "negative_support": negative},
        checks,
    )


def _hbar_ladder(cfg: dict) -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(cfg["k_min"], cfg["k_max"] + 1))


def cmd_egorov(cfg: dict) -> CommandResult:
    sys_ = dynamics.make_system(_source_from(cfg))
    grid = sys_.grid
    center = sample(grid, lambda r: cfg["center_scale"] * (1.0 + 0.5j) * np.exp(-(r**2)))
    panel = semiclassics.default_panel(grid)
    report = semiclassics.egorov_sweep(sys_, center, cfg["t"], panel, _hbar_ladder(cfg))
    # the Heisenberg route and the flow meet at the rounding of their angles
    tol = _roundoff_tol(1e-14, max(_angle_size(sys_, f, center, 2.0) for f in panel))
    return CommandResult(
        ["hbar", "deviation"],
        list(zip(report.hbar_values, report.deviations)),
        {"fitted_order": report.fitted_order, "t": cfg["t"]},
        [Check("flow vs dynamics", semiclassics.flow_gap(sys_, center, panel, cfg["t"]), tol)],
    )


#: equilibrium's regimes, built from the configuration
_REGIMES: dict[str, Callable[[dict], semiclassics.Regime]] = {
    "ground": lambda c: semiclassics.GroundState(),
    "linear": lambda c: semiclassics.Linear(c["beta"]),
    "sublinear": lambda c: semiclassics.SubLinear(c["coefficient"], c["epsilon"]),
    "superlinear": lambda c: semiclassics.SuperLinear(c["coefficient"], c["epsilon"]),
}


def cmd_equilibrium(cfg: dict) -> CommandResult:
    spec = _source_from(cfg)
    regime = _configured(_REGIMES[cfg["regime"]], cfg)
    hbars = _hbar_ladder(cfg)
    for hbar in hbars:  # refuses a beta_hbar that underflows on the ladder
        _configured(regime.beta_hbar, hbar)
    sys_ = dynamics.make_system(spec)
    panel = semiclassics.default_panel(sys_.grid)
    report = semiclassics.equilibrium_sweep(sys_, regime, panel, hbars)
    return CommandResult(
        ["hbar", "deviation"],
        list(zip(report.hbar_values, report.deviations)),
        {"regime": cfg["regime"], "fitted_order": report.fitted_order, "verdict": report.verdict},
        [Check("equilibrium convergence", _verdict(report.converged), 0.0)],
    )


def cmd_scattering(cfg: dict) -> CommandResult:
    spec = _source_from(cfg)
    grid = spec.grid
    if cfg["t_max"] > scattering.FILON_THRESHOLD:
        _configured(scattering.check_filon_grid, grid)
    sys_ = dynamics.make_system(spec)
    f = sample(grid, lambda r: np.exp(-(r**2)))
    ts = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    # probe_deviation 2 |sin(pi Re ov)| = |e^{-2 pi i Re ov} - 1|, the distance from the asymptote
    ov = scattering.free_overlap(sys_, f, ts)
    overlaps = np.abs(ov)
    center = sample(grid, lambda r: (0.3 - 0.2j) * np.exp(-(r**2)))
    # the routes meet at round-off up to FILON_THRESHOLD, so later times are
    # checked there, relative to the size of their angles
    clipped = np.unique(np.minimum(ts, scattering.FILON_THRESHOLD))
    tol = _roundoff_tol(1e-14, _angle_size(sys_, f, center, 1.0))
    return CommandResult(
        ["t", "overlap", "bound", "probe_deviation"],
        list(zip(ts, overlaps, 2.0 * math.pi * overlaps, 2.0 * np.abs(np.sin(math.pi * ov.real)))),
        {"final_overlap": float(overlaps[-1])},
        [Check("overlap decay", float(overlaps[-1]), 1e-2),
         Check("transport vs dynamics", scattering.transport_gap(sys_, center, f, clipped), tol)],
    )


def cmd_fock_spectrum(cfg: dict) -> CommandResult:
    j = complex(cfg["coupling_re"], cfg["coupling_im"])
    cutoff = cfg["cutoff"] if cfg["cutoff"] > 0 else fock.adequate_cutoff(
        cfg["omega"], j, cfg["hbar"]
    )
    mode = _configured(
        fock.FockMode, omega=cfg["omega"], coupling=j, cutoff=cutoff, hbar=cfg["hbar"]
    )
    report = fock.ground_state_analysis(mode)
    number_closed = abs(j / cfg["omega"]) ** 2
    rows = [
        ("ground_energy", report.energy),
        ("ground_energy_closed_form", report.energy_closed_form),
        ("gap", report.gap),
        ("overlap_sq", report.overlap_sq),
        ("photon_number", report.photon_number),
        ("photon_number_closed_form", number_closed),
        ("cutoff", cutoff),
    ]
    scale = max(abs(report.energy_closed_form), 1.0)
    tol = 1e-8 * max(1.0, mode.hbar * mode.omega)  # H's rounding grows with hbar omega
    return CommandResult(
        ["quantity", "value"],
        rows,
        dict(rows),
        [Check("ground energy", abs(report.energy - report.energy_closed_form), tol * scale),
         Check("spectral gap", abs(report.gap - mode.hbar * mode.omega), tol),
         Check("coherent ground overlap", abs(1.0 - report.overlap_sq), 1e-6),
         Check("photon number", abs(report.photon_number - number_closed), 1e-8)],
    )


def cmd_soft_photons(cfg: dict) -> CommandResult:
    sys_ = dynamics.make_system(_source_from(cfg))
    ns = [2**k for k in range(cfg["n_min_log2"], cfg["n_max_log2"] + 1)]
    report = fock.soft_photon_sweep(sys_, ns)
    return CommandResult(
        ["cutoff", "photon_number"],
        list(zip(report.cutoffs, report.numbers)),
        {"increment_slope": report.increment_slope, "diverging": report.diverging},
        [Check("soft-photon sweep finite", _verdict(bool(np.all(np.isfinite(report.numbers)))),
               0.0)],
    )


#: garding's symbol is |p|^2 for p = 1 + W(1) + W(i); its generators z_j - z_k
#: reach |z|^2 = 2 (at 1 - i)
_GARDING_GENS = (0.0, 1.0, 1j)
_GARDING_REACH = max(abs(a - b) for a in _GARDING_GENS for b in _GARDING_GENS) ** 2


def cmd_garding(cfg: dict) -> CommandResult:
    p = weyl.trig_polynomial(fock.single_mode_grid(), 0.0, np.ones(3), [[z] for z in _GARDING_GENS])
    symbol = weyl.compose(weyl.adjoint(p), p)
    report = fock.garding_probe(symbol, _hbar_ladder(cfg), cutoff=cfg["cutoff"])
    return CommandResult(
        ["hbar", "cutoff", "lambda_min", "lambda_min_antiwick"],
        list(zip(report.hbar_values, report.cutoffs, report.lambda_min,
                 report.lambda_min_antiwick)),
        {"fitted_constant": report.fitted_constant, "fit_residual": report.fit_residual,
         "bound_margin": report.bound_margin, "symbol_min": report.symbol_min,
         "vacuum_defect": report.vacuum_defect},
        [Check("garding linear fit", report.fit_residual, 0.1),
         Check("anti-Wick positivity", -float(np.min(report.lambda_min_antiwick)), 1e-8),
         Check("garding lower bound", -report.bound_margin, 1e-9)],
    )


# --------------------------------------------------------------------------
# keys and rules


_GRID_KEYS = {
    "dim": (3, _DIM), "mass": (0.0, _NONNEGATIVE), "r_min": (1e-6, _POSITIVE),
    "r_max": (12.0, _POSITIVE), "panels": (16, _COUNT), "points": (32, _COUNT),
}
_SOURCE_KEYS = {"gamma": (0.0, _FINITE), "ir_cutoff": (0, (">= 0 (0: none)", lambda n: n >= 0))}


#: The node count goes first, before anything allocates.  The rest of the grid
#: domain (the range's order, edges, nodes and measures that overflow) is
#: make_grid's to refuse, when _source_from builds the grid.
_GRID_RULES = [_at_most(_NODES_MAX, "panels", "points")]
_LADDER_KEYS = {"k_min": (3, _EXPONENT), "k_max": (14, _EXPONENT)}


def _grid_keys(**defaults) -> dict:
    """The shared grid and source keys, some with another default."""
    return {
        key: (defaults.get(key, default), rule)
        for key, (default, rule) in {**_GRID_KEYS, **_SOURCE_KEYS}.items()
    }


#: Widest groundstate window.  Its cost falls with the width (t_max = 596 / h
#: + 25): at width 8 the rule has 128 sigma panels to t_max = 174, and a run
#: takes ~19 ms in process and peaks at ~40 MB resident, the imports; even
#: [-3, 997] traces 13 MB.  What bounds it is ground_state_check's fixed time
#: step (ROADMAP item 7), which aliases frequencies near |sigma| ~ 100: [-65, -1]
#: reads 4.8e-10 and [-129, -1] 1.2e-4 (exit 1), against 5.6e-16 and 4.7e-10 at
#: resolution=2.  Width 8 from the default s_minus stays clear of that.
_WINDOW_WIDTH_MAX = 8.0

#: Largest fock-spectrum truncation N.  A run holds only length-(N + 1)
#: vectors: at N = 2048 it takes ~2 ms in process and peaks at 0.2 MB traced
#: (one BLAS thread).  The ceiling could rise to N ~ 5600, where the coherent
#: amplitudes leave the float range (fock._coherent_vector); coupling_re = 30
#: would derive N = 36,020, past that.
_FOCK_CUTOFF_MAX = 2048

#: Largest garding truncation N (at the smallest hbar).  garding_probe solves
#: the number ladder's two parity sectors per hbar, real eigenvector matrices
#: of ~(N//2 + 1)^2 each, frees them once the exponentials are formed, and
#: holds real cosine blocks of the trusted block's two parity sectors,
#: ~(N//4 + 1)^2 each (two per nonzero |z|; W_h(0) is a real identity, with
#: no solve), and the complex sector quantizations and their gauged terms.
#: At cutoff = 1536 (N = 1536 at every hbar) a run peaks at 29 MB traced
#: (95 MB resident; one BLAS thread), with 769^2 * 8 B = 4.7 MB eigenvectors
#: per sector and 385^2 * 16 B = 2.4 MB sector blocks; the default cutoff
#: floor reaches N = 1436 at k_max = 10 (20 MB traced, 85 MB resident), while
#: k_max = 13 needs N = 9264: 2 * 4633^2 * 8 B = 343 MB of eigenvectors and
#: 2317^2 * 16 B = 86 MB per sector block.
_GARDING_CUTOFF_MAX = 1536


def _fock_levels(c: dict) -> float:
    """fock.displacement_levels of the configured mode."""
    j = complex(c["coupling_re"], c["coupling_im"])
    return fock.displacement_levels(c["omega"], j, c["hbar"])


def _garding_adequate(c: dict) -> bool:
    """The largest hbar fits the exponentials of the symbol's reach."""
    hbar = 2.0 ** -c["k_min"]
    return fock.exponential_fits(hbar, fock.garding_cutoff(hbar, c["cutoff"]), _GARDING_REACH)


_COMMANDS: dict[str, tuple[Callable[[dict], CommandResult], dict, list[CrossRule]]] = {
    "classify": (cmd_classify, _grid_keys(gamma=0.8), _GRID_RULES),
    "energy": (cmd_energy, _grid_keys(), _GRID_RULES),
    "evolve": (
        cmd_evolve,
        {
            **_grid_keys(), "t_max": (10.0, _FINITE), "steps": (21, _ROWS),
            "hbar": (0.5, _POSITIVE), "beta_h": (1.0, ("> 0", lambda x: x > 0.0)),
            "perturbation": (0.5, _FINITE),
        },
        [*_GRID_RULES, _finite_phases("t_max", mirrored=True)],
    ),
    "kms": (
        cmd_kms,
        {
            **_grid_keys(), "beta_h": (1.0, _POSITIVE), "hbar": (0.5, _POSITIVE),
            "t_min": (-5.0, _FINITE), "t_max": (5.0, _FINITE), "t_points": (21, _ROWS),
            "pairs": (5, _ROWS), "seed": (0, _ANY),
        },
        [
            *_GRID_RULES,
            _at_most(_TABLE_MAX, "t_points", "panels", "points"),
            _finite_phases("t_min", "t_max"),
        ],
    ),
    "groundstate": (
        cmd_groundstate,
        {
            **_grid_keys(gamma=0.3), "s_minus": (-3.0, _FINITE), "s_plus": (-1.0, _FINITE),
            "hbar": (0.1, _POSITIVE),
        },
        [
            *_GRID_RULES,
            (
                f"s_plus - s_minus must be <= {_WINDOW_WIDTH_MAX:g}, got {{s_minus}}, {{s_plus}}",
                lambda c: c["s_plus"] - c["s_minus"] <= _WINDOW_WIDTH_MAX,
            ),
        ],
    ),
    "egorov": (
        cmd_egorov,
        {**_grid_keys(), "t": (1.0, _FINITE), "center_scale": (1.0, _FINITE), **_LADDER_KEYS},
        [*_GRID_RULES, _span("k_min", "k_max", 2), _finite_phases("t")],
    ),
    "equilibrium": (
        cmd_equilibrium,
        {
            **_grid_keys(gamma=0.3),
            "regime": ("linear", (f"one of {', '.join(_REGIMES)}", lambda r: r in _REGIMES)),
            "beta": (1.0, _FINITE), "coefficient": (1.0, _FINITE), "epsilon": (0.5, _FINITE),
            **_LADDER_KEYS,
        },
        [*_GRID_RULES, _span("k_min", "k_max", 2)],
    ),
    "scattering": (
        cmd_scattering,
        {
            **_grid_keys(), "t_min": (1.0, _POSITIVE), "t_max": (1000.0, _POSITIVE),
            # one point would be t_min alone, leaving t_max unchecked
            "t_points": (7, (f"in 2..{_ROWS_MAX}", lambda n: 2 <= n <= _ROWS_MAX)),
        },
        [
            *_GRID_RULES,
            _at_most(_TABLE_MAX, "t_points", "panels", "points"),
            ("t_min must be <= t_max, got {t_min}, {t_max}", lambda c: c["t_min"] <= c["t_max"]),
            _finite_phases("t_min", "t_max"),
        ],
    ),
    "fock-spectrum": (
        cmd_fock_spectrum,
        {
            "omega": (1.0, _POSITIVE), "coupling_re": (0.5, _FINITE),
            "coupling_im": (0.0, _FINITE), "hbar": (0.1, _POSITIVE),
            "cutoff": (0, ("<= 0 (automatic) or >= 2", lambda n: n <= 0 or n >= 2)),
        },
        [
            (
                f"the truncation must be <= {_FOCK_CUTOFF_MAX}, given or derived as "
                f"4|j|^2/(hbar omega^2) + {fock.CUTOFF_MARGIN}; got cutoff={{cutoff}}, "
                "omega={omega}, coupling_re={coupling_re}, coupling_im={coupling_im}, hbar={hbar}",
                lambda c: c["cutoff"] <= _FOCK_CUTOFF_MAX
                and _fock_levels(c) <= _FOCK_CUTOFF_MAX - fock.CUTOFF_MARGIN,
            ),
        ],
    ),
    "soft-photons": (
        cmd_soft_photons,
        {
            **_grid_keys(r_min=2.0**-10, r_max=16.0, panels=14, gamma=0.8),
            # 2^n is an integer infrared cutoff
            "n_min_log2": (2, _EXPONENT), "n_max_log2": (8, _EXPONENT),
        },
        [*_GRID_RULES, _span("n_min_log2", "n_max_log2", 3)],
    ),
    "garding": (
        cmd_garding,
        {"k_min": (3, _EXPONENT), "k_max": (8, _EXPONENT), "cutoff": (64, _COUNT)},
        [
            # one rung fits its own constant with residual 0: both checks vacuous
            _span("k_min", "k_max", 2),
            (
                f"the truncation at hbar = 2^-k_max must be <= {_GARDING_CUTOFF_MAX}, "
                "got k_max={k_max}, cutoff={cutoff}",
                lambda c: fock.garding_cutoff(2.0 ** -c["k_max"], c["cutoff"])
                <= _GARDING_CUTOFF_MAX,
            ),
            (
                "hbar = 2^-k_min must keep pi^2 hbar |z|^2 <= N/4 for the symbol's "
                "generators, got k_min={k_min}, cutoff={cutoff}",
                _garding_adequate,
            ),
        ],
    ),
}


def _defaults(command: str) -> dict:
    return {key: default for key, (default, _) in _COMMANDS[command][1].items()}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vanhove",
        description="exactly solvable field-theory workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value file")
        p.add_argument("--out", default=None, help="output prefix")
        p.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    runner, keys, cross = _COMMANDS[args.command]
    try:
        cfg = resolve_config(_defaults(args.command), args.config, args.overrides)
        # overflows fail by name as non-finite checks; mass records a massive dispersion
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "massive dispersion", UserWarning)
            _validate(cfg, keys, cross)
            result = runner(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    out = args.out or f"vanhove_{args.command.replace('-', '_')}"
    _write_outputs(out, cfg, result)
    summary_bits = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(result.summary.items()))
    print(f"{args.command}: {summary_bits}")
    for name in result.failures:
        print(f"invariant failed: {name}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
