r"""Deterministic command-line front end.

Every command reads a flat ``key=value`` configuration (defaults, optionally
a ``--config`` file, then positional overrides; unknown keys are an error),
runs one workbench computation, writes ``<out>.csv`` (rows of numbers, 17
significant digits, ``#``-prefixed header recording the full configuration
and its hash) plus ``<out>.json`` (flat summary), and prints a one-line
summary.  Identical configurations produce byte-identical outputs.

Exit codes: 0 success, 1 a named invariant failed, 2 configuration error.

Randomness (where a command samples test functions) is driven by a
``seed`` key expanded through a splitmix64 stream into per-use seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dynamics, fock, scattering, semiclassics, sources, states, weyl
from .grid import MomentumGrid, from_values, make_grid, sample, weighted_norm_sq

__all__ = ["main"]

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """Deterministic stream of 64-bit sub-seeds from one master seed."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append((z ^ (z >> 31)) & _MASK64)
    return out


def worker_count() -> int:
    """Threads a command runs on; perfbench's single-stack tracer checks it is one."""
    return 1


class ConfigError(Exception):
    pass


class InvariantFailure(Exception):
    pass


#: Parameter rules, keyed by the text a violation reports.
_RULES: dict[str, Callable[[float], bool]] = {
    ">= 1": lambda n: n >= 1,
    "<= 0 (automatic) or >= 2": lambda n: n <= 0 or n >= 2,
    "finite": math.isfinite,
    "finite and > 0": lambda x: 0.0 < x < math.inf,
    "> 0": lambda x: x > 0.0,
    "finite and >= 0": lambda x: 0.0 <= x < math.inf,
}


def _require(cfg: dict, rule: str, *keys: str) -> None:
    """Raise ConfigError for the first key whose value breaks ``rule``."""
    for key in keys:
        if not _RULES[rule](cfg[key]):
            raise ConfigError(f"{key} must be {rule}, got {cfg[key]}")


def _require_span(cfg: dict, low: str, high: str, count: int) -> None:
    """Raise ConfigError unless the integer range low..high holds ``count`` values."""
    if cfg[high] - cfg[low] + 1 < count:
        raise ConfigError(
            f"{low}..{high} must span at least {count} value{'s' * (count > 1)}, "
            f"got {cfg[low]}..{cfg[high]}"
        )


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
        if isinstance(template, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
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
    failures: list[str] = field(default_factory=list)


def _write_outputs(out_prefix: str, cfg: dict, result: CommandResult) -> None:
    chash = config_hash(cfg)
    lines = [f"# {k}={_fmt(cfg[k])}" for k in sorted(cfg)]
    lines.append(f"# config_hash={chash}")
    lines.append(",".join(result.header))
    for row in result.rows:
        lines.append(",".join(_fmt(x) for x in row))
    Path(out_prefix + ".csv").write_text("\n".join(lines) + "\n")
    payload = {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": chash,
        "summary": {k: result.summary[k] for k in sorted(result.summary)},
        "failures": sorted(result.failures),
    }
    Path(out_prefix + ".json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


_GRID_KEYS = dict(dim=3, mass=0.0, r_min=1e-6, r_max=12.0, panels=16, points=32)
_SOURCE_KEYS = dict(gamma=0.0, ir_cutoff=0)


def _grid_from(cfg: dict) -> MomentumGrid:
    return make_grid(**{key: cfg[key] for key in _GRID_KEYS})


def _source_from(cfg: dict, grid: MomentumGrid) -> sources.SourceSpec:
    cutoff = cfg["ir_cutoff"] if cfg["ir_cutoff"] > 0 else None
    return sources.power_law_gaussian(grid, cfg["gamma"], ir_cutoff=cutoff)


def _system_from(cfg: dict) -> dynamics.VanHoveSystem:
    grid = _grid_from(cfg)
    return dynamics.make_system(_source_from(cfg, grid))


def _random_panel_member(grid: MomentumGrid, rng: np.random.Generator):
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    r = grid.nodes
    vals = sum(c * np.exp(-s * r**2) for c, s in zip(coeffs, (0.5, 1.0, 2.0, 4.0)))
    return from_values(grid, vals)


# --------------------------------------------------------------------------
# commands


def cmd_classify(cfg: dict) -> CommandResult:
    grid = _grid_from(cfg)
    spec = _source_from(cfg, grid)
    analytic = sources.classify_analytic(spec)
    if analytic is sources.InfraredClass.OUT_OF_SCOPE:
        # no realization exists, so there is nothing to integrate numerically
        return CommandResult(
            header=["alpha", "divergence_slope", "clearly_divergent"],
            rows=[(alpha, math.nan, False) for alpha in (0, 1, 2)],
            summary={
                "analytic_class": analytic.value,
                "numeric_class": "not_applicable",
                "agreement": True,
            },
        )
    report = sources.numeric_classification(spec)
    rows = []
    for alpha in (0, 1, 2):
        slope = report.divergence_slopes[alpha]
        rows.append(
            (
                alpha,
                math.nan if slope is None else slope,
                report.clearly_divergent[alpha],
            )
        )
    agree = analytic == report.infrared_class
    failures = [] if agree else ["classification agreement"]
    return CommandResult(
        header=["alpha", "divergence_slope", "clearly_divergent"],
        rows=rows,
        summary={
            "analytic_class": analytic.value,
            "numeric_class": report.infrared_class.value,
            "agreement": agree,
        },
        failures=failures,
    )


def cmd_energy(cfg: dict) -> CommandResult:
    sys_ = _system_from(cfg)
    minimizer = from_values(sys_.grid, -sys_.j_over_omega.values)
    e_min = dynamics.classical_energy(sys_, minimizer)
    e_ground = dynamics.ground_energy(sys_)
    residual = abs(e_min - e_ground) / max(abs(e_ground), 1.0)
    photon = weighted_norm_sq(sys_.j, -2)
    failures = [] if residual <= 1e-10 else ["energy identity"]
    rows = [
        ("classical_min_energy", e_min),
        ("spectral_bottom", e_ground),
        ("identity_residual", residual),
        ("photon_number", photon),
    ]
    return CommandResult(
        header=["quantity", "value"],
        rows=rows,
        summary={
            "classical_min_energy": e_min,
            "spectral_bottom": e_ground,
            "identity_residual": residual,
            "photon_number": photon,
        },
        failures=failures,
    )


def cmd_evolve(cfg: dict) -> CommandResult:
    _require(cfg, ">= 1", "steps")
    _require(cfg, "finite", "t_max")
    _require(cfg, "finite and > 0", "hbar")
    _require(cfg, "> 0", "beta_h")
    sys_ = _system_from(cfg)
    grid = sys_.grid
    alpha0 = from_values(
        grid,
        -sys_.j_over_omega.values
        + cfg["perturbation"] * np.exp(-grid.nodes**2) * (1.0 + 0.5j),
    )
    e0 = dynamics.classical_energy(sys_, alpha0)
    scale = max(abs(e0), 1.0)
    gibbs = states.gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    probe = sample(grid, lambda r: np.exp(-(r**2)))
    char0 = gibbs.char(probe)
    # Heisenberg picture: evolve_state would only move the centre along the
    # flow, which fixes -J/omega exactly and so could not drift at all.
    probe_w = weyl.weyl(probe, gibbs.hbar)
    ts = np.linspace(-cfg["t_max"], cfg["t_max"], cfg["steps"])
    rows = []
    worst_drift = 0.0
    worst_char = 0.0
    for t in ts:
        e_t = dynamics.classical_energy(sys_, dynamics.classical_flow(sys_, alpha0, t))
        drift = abs(e_t - e0) / scale
        char_t = states.evaluate(gibbs, dynamics.evolve_weyl(sys_, probe_w, t))
        char_drift = abs(char_t - char0)
        worst_drift = max(worst_drift, drift)
        worst_char = max(worst_char, char_drift)
        rows.append((t, e_t, drift, char_drift))
    failures = []
    if worst_drift > 1e-10:
        failures.append("energy conservation")
    if worst_char > 1e-13:
        failures.append("equilibrium invariance")
    return CommandResult(
        header=["t", "energy", "energy_drift", "equilibrium_char_drift"],
        rows=rows,
        summary={
            "max_energy_drift": worst_drift,
            "max_equilibrium_char_drift": worst_char,
        },
        failures=failures,
    )


def cmd_kms(cfg: dict) -> CommandResult:
    _require(cfg, ">= 1", "pairs", "t_points")
    _require(cfg, "finite and > 0", "beta_h", "hbar")
    _require(cfg, "finite", "t_min", "t_max")
    sys_ = _system_from(cfg)
    state = states.gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    ts = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    # f0, g0, f1, g1, ... (f then g from each pair's generator): kms_check takes
    # fs and gs in step, so this one stream as both draws each pair only when it
    # is checked (400 pairs held at once would add ~6.5 MB to peak memory).
    draws = (
        _random_panel_member(sys_.grid, rng)
        for rng in map(np.random.default_rng, splitmix64(cfg["seed"], cfg["pairs"]))
        for _ in range(2)
    )
    report = dynamics.kms_check(sys_, state, draws, draws, ts)
    residuals = report.residuals.max(axis=1).tolist()
    rows = list(enumerate(residuals))
    worst = max(residuals)
    failures = [] if worst <= 1e-10 else ["kms residual"]
    return CommandResult(
        header=["pair", "max_residual"],
        rows=rows,
        summary={"max_residual": worst, "pairs": cfg["pairs"]},
        failures=failures,
    )


def cmd_groundstate(cfg: dict) -> CommandResult:
    sys_ = _system_from(cfg)
    grid = sys_.grid
    window = dynamics.kms_window(cfg["s_minus"], cfg["s_plus"])
    f = sample(grid, lambda r: np.exp(-(r**2)))
    g = sample(grid, lambda r: np.exp(-2.0 * r**2))
    report = dynamics.ground_state_check(sys_, f, g, window, hbar=cfg["hbar"])
    negative = cfg["s_plus"] < 0.0
    failures = []
    if negative and not report.is_annihilated:
        failures.append("ground-state annihilation")
    rows = [
        ("window_value", report.value),
        ("t_max", window.t_max),
        ("t_points", report.t_points),
    ]
    return CommandResult(
        header=["quantity", "value"],
        rows=rows,
        summary={
            "window_value": report.value,
            "s_minus": cfg["s_minus"],
            "s_plus": cfg["s_plus"],
            "t_max": window.t_max,
            "negative_support": negative,
        },
        failures=failures,
    )


def _hbar_ladder(cfg: dict) -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(cfg["k_min"], cfg["k_max"] + 1))


def cmd_egorov(cfg: dict) -> CommandResult:
    _require(cfg, "finite", "t")
    _require_span(cfg, "k_min", "k_max", 2)
    sys_ = _system_from(cfg)
    grid = sys_.grid
    center = sample(grid, lambda r: cfg["center_scale"] * (1.0 + 0.5j) * np.exp(-(r**2)))
    panel = semiclassics.default_panel(grid)
    report = semiclassics.egorov_sweep(
        sys_,
        lambda h: states.coherent(center, h),
        states.dirac(center),
        cfg["t"],
        panel,
        _hbar_ladder(cfg),
    )
    rows = list(zip(report.hbar_values, report.deviations))
    failures = [] if report.converged else ["egorov convergence"]
    return CommandResult(
        header=["hbar", "deviation"],
        rows=rows,
        summary={
            "fitted_order": report.fitted_order,
            "verdict": report.verdict,
            "t": cfg["t"],
        },
        failures=failures,
    )


def cmd_equilibrium(cfg: dict) -> CommandResult:
    regimes = {
        "ground": semiclassics.GroundState(),
        "linear": semiclassics.Linear(cfg["beta"]),
        "sublinear": semiclassics.SubLinear(cfg["coefficient"], cfg["epsilon"]),
        "superlinear": semiclassics.SuperLinear(cfg["coefficient"], cfg["epsilon"]),
    }
    if cfg["regime"] not in regimes:
        raise ConfigError(
            f"regime must be one of {sorted(regimes)}, got {cfg['regime']!r}"
        )
    if cfg["regime"] == "linear":
        _require(cfg, "finite and > 0", "beta")
    _require_span(cfg, "k_min", "k_max", 2)
    sys_ = _system_from(cfg)
    panel = semiclassics.default_panel(sys_.grid)
    report = semiclassics.equilibrium_sweep(
        sys_, regimes[cfg["regime"]], panel, _hbar_ladder(cfg)
    )
    rows = list(zip(report.hbar_values, report.deviations))
    failures = [] if report.converged else ["equilibrium convergence"]
    return CommandResult(
        header=["hbar", "deviation"],
        rows=rows,
        summary={
            "regime": cfg["regime"],
            "fitted_order": report.fitted_order,
            "verdict": report.verdict,
        },
        failures=failures,
    )


def cmd_scattering(cfg: dict) -> CommandResult:
    _require(cfg, ">= 1", "t_points")
    _require(cfg, "finite and > 0", "t_min", "t_max")
    _require(cfg, "finite and >= 0", "hbar")
    _require_span(cfg, "k_min", "k_max", 2)
    if cfg["t_min"] > cfg["t_max"]:
        raise ConfigError(f"t_min must be <= t_max, got {cfg['t_min']}, {cfg['t_max']}")
    sys_ = _system_from(cfg)
    grid = sys_.grid
    f = sample(grid, lambda r: np.exp(-(r**2)))
    ts = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    overlaps = scattering.decay_probe(sys_, f, ts)
    rows = []
    failures = []
    for t, ov in zip(ts, overlaps):
        probe = scattering.convergence_probe(sys_, f, cfg["hbar"], float(t))
        rows.append((t, ov, probe.bound, probe.deviation))
        if probe.deviation > probe.bound + 1e-12:
            failures.append("dressing bound")
    if overlaps[-1] >= 1e-2:
        failures.append("overlap decay")
    center = sample(grid, lambda r: (0.3 - 0.2j) * np.exp(-(r**2)))
    state = states.coherent(center, cfg["hbar"])
    moved = scattering.transport_state(sys_, state)
    back = scattering.transport_state(sys_, moved, inverse=True)
    panel = semiclassics.default_panel(grid)
    round_trip = max(abs(back.char(p) - state.char(p)) for p in panel)
    if round_trip > 1e-15:
        failures.append("transport round trip")
    sweep = semiclassics.scattering_sweep(
        sys_,
        lambda h: states.coherent(center, h),
        states.dirac(center),
        panel,
        _hbar_ladder(cfg),
    )
    return CommandResult(
        header=["t", "overlap", "bound", "probe_deviation"],
        rows=rows,
        summary={
            "round_trip": round_trip,
            "transport_mismatch": sweep.transport_mismatch,
            "final_overlap": float(overlaps[-1]),
            "verdict": sweep.verdict,
        },
        failures=sorted(set(failures)),
    )


def cmd_fock_spectrum(cfg: dict) -> CommandResult:
    _require(cfg, "finite and > 0", "omega", "hbar")
    _require(cfg, "<= 0 (automatic) or >= 2", "cutoff")
    _require(cfg, "finite", "coupling_re", "coupling_im")
    j = complex(cfg["coupling_re"], cfg["coupling_im"])
    cutoff = cfg["cutoff"] if cfg["cutoff"] > 0 else fock.adequate_cutoff(
        cfg["omega"], j, cfg["hbar"]
    )
    mode = fock.FockMode(omega=cfg["omega"], coupling=j, cutoff=cutoff, hbar=cfg["hbar"])
    report = fock.ground_state_analysis(mode)
    number = report.photon_number
    number_closed = abs(j / cfg["omega"]) ** 2
    failures = []
    scale = max(abs(report.energy_closed_form), 1.0)
    if abs(report.energy - report.energy_closed_form) > 1e-8 * scale:
        failures.append("ground energy")
    if abs(report.gap - mode.hbar * mode.omega) > 1e-8:
        failures.append("spectral gap")
    if report.overlap_sq < 1.0 - 1e-6:
        failures.append("coherent ground overlap")
    if abs(number - number_closed) > 1e-8:
        failures.append("photon number")
    rows = [
        ("ground_energy", report.energy),
        ("ground_energy_closed_form", report.energy_closed_form),
        ("gap", report.gap),
        ("overlap_sq", report.overlap_sq),
        ("photon_number", number),
        ("photon_number_closed_form", number_closed),
        ("cutoff", cutoff),
    ]
    return CommandResult(
        header=["quantity", "value"],
        rows=rows,
        summary={k: v for k, v in rows},
        failures=failures,
    )


def cmd_soft_photons(cfg: dict) -> CommandResult:
    _require(cfg, "finite and > 0", "hbar")
    _require(cfg, "finite and >= 0", "n_min_log2")  # 2^n_min_log2 is an integer cutoff
    _require_span(cfg, "n_min_log2", "n_max_log2", 3)
    sys_ = _system_from(cfg)
    ns = [2**k for k in range(cfg["n_min_log2"], cfg["n_max_log2"] + 1)]
    report = fock.soft_photon_sweep(sys_, cfg["hbar"], ns)
    mode = fock.FockMode(omega=1.0, coupling=0.5, cutoff=64, hbar=cfg["hbar"])
    cross = fock.mode_number_expectation(mode)
    failures = []
    if abs(cross - 0.25) > 1e-8:
        failures.append("mode number cross-check")
    rows = list(zip(report.cutoffs, report.numbers))
    return CommandResult(
        header=["cutoff", "photon_number"],
        rows=rows,
        summary={
            "increment_slope": report.increment_slope,
            "diverging": report.diverging,
            "mode_cross_check": cross,
        },
        failures=failures,
    )


def cmd_garding(cfg: dict) -> CommandResult:
    _require_span(cfg, "k_min", "k_max", 1)
    grid = fock.single_mode_grid()
    # p = 1 + W(1) + W(i)
    p = weyl.trig_polynomial(grid, 0.0, np.ones(3), [[0.0], [1.0], [1j]])
    symbol = weyl.compose(weyl.adjoint(p), p)
    hbars = _hbar_ladder(cfg)
    report = fock.garding_probe(symbol, hbars, cutoff=cfg["cutoff"])
    failures = []
    if report.fit_residual >= 0.1:
        failures.append("garding linear fit")
    if min(report.lambda_min_antiwick) < -1e-8:
        failures.append("anti-Wick positivity")
    if report.bound_margin < -1e-9:
        failures.append("garding lower bound")
    rows = list(
        zip(
            report.hbar_values,
            report.cutoffs,
            report.lambda_min,
            report.lambda_min_antiwick,
        )
    )
    return CommandResult(
        header=["hbar", "cutoff", "lambda_min", "lambda_min_antiwick"],
        rows=rows,
        summary={
            "fitted_constant": report.fitted_constant,
            "fit_residual": report.fit_residual,
            "bound_margin": report.bound_margin,
            "symbol_min": report.symbol_min,
            "unitarity_defect": report.unitarity_defect,
        },
        failures=failures,
    )


_COMMANDS: dict[str, tuple[Callable[[dict], CommandResult], dict]] = {
    "classify": (cmd_classify, {**_GRID_KEYS, **_SOURCE_KEYS, "gamma": 0.8}),
    "energy": (cmd_energy, {**_GRID_KEYS, **_SOURCE_KEYS}),
    "evolve": (
        cmd_evolve,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "t_max": 10.0,
            "steps": 21,
            "hbar": 0.5,
            "beta_h": 1.0,
            "perturbation": 0.5,
        },
    ),
    "kms": (
        cmd_kms,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "beta_h": 1.0,
            "hbar": 0.5,
            "t_min": -5.0,
            "t_max": 5.0,
            "t_points": 21,
            "pairs": 5,
            "seed": 0,
        },
    ),
    "groundstate": (
        cmd_groundstate,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "gamma": 0.3,
            "s_minus": -3.0,
            "s_plus": -1.0,
            "hbar": 0.1,
        },
    ),
    "egorov": (
        cmd_egorov,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "t": 1.0,
            "center_scale": 1.0,
            "k_min": 3,
            "k_max": 14,
        },
    ),
    "equilibrium": (
        cmd_equilibrium,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "gamma": 0.3,
            "regime": "linear",
            "beta": 1.0,
            "coefficient": 1.0,
            "epsilon": 0.5,
            "k_min": 3,
            "k_max": 14,
        },
    ),
    "scattering": (
        cmd_scattering,
        {
            **_GRID_KEYS,
            **_SOURCE_KEYS,
            "hbar": 0.5,
            "t_min": 1.0,
            "t_max": 1000.0,
            "t_points": 7,
            "k_min": 3,
            "k_max": 14,
        },
    ),
    "fock-spectrum": (
        cmd_fock_spectrum,
        {
            "omega": 1.0,
            "coupling_re": 0.5,
            "coupling_im": 0.0,
            "hbar": 0.1,
            "cutoff": 0,
        },
    ),
    "soft-photons": (
        cmd_soft_photons,
        {
            "dim": 3,
            "mass": 0.0,
            "r_min": 2.0**-10,
            "r_max": 16.0,
            "panels": 14,
            "points": 32,
            "gamma": 0.8,
            "ir_cutoff": 0,
            "hbar": 0.1,
            "n_min_log2": 2,
            "n_max_log2": 8,
        },
    ),
    "garding": (
        cmd_garding,
        {"k_min": 3, "k_max": 8, "cutoff": 64},
    ),
}


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
    runner, defaults = _COMMANDS[args.command]
    try:
        cfg = resolve_config(defaults, args.config, args.overrides)
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
    if result.failures:
        for name in result.failures:
            print(f"invariant failed: {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
