"""Command-line front end: determinism, exit codes, configuration handling."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanhove import cli, gibbs_quantum, kms_check, make_grid, sample
from vanhove.cli import ConfigError, config_hash, main, resolve_config

# a fast shared configuration for commands that take grid keys
_SMALL = ["panels=8", "points=16", "r_min=1e-4"]

# cheap base configurations: small grids, ladders of at most 4 rungs, at most
# 5 steps, pairs or times (scattering keeps 32 points: Filon needs > 16)
_CHEAP = {
    "classify": ["points=16"],
    "energy": _SMALL,
    "evolve": [*_SMALL, "steps=5"],
    "kms": [*_SMALL, "pairs=2", "t_points=5"],
    "groundstate": _SMALL,
    "egorov": _SMALL,
    "equilibrium": [*_SMALL, "k_min=3", "k_max=6"],
    "scattering": ["panels=8", "r_min=1e-4", "t_points=5"],
    "fock-spectrum": [],
    "soft-photons": [*_SMALL, "n_min_log2=2", "n_max_log2=5"],
    "garding": ["k_min=3", "k_max=5"],
}
_EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1", "2", "10000000000000")


def _run(tmp_path: Path, command: str, *overrides: str) -> tuple[int, str, str]:
    out = tmp_path / f"out_{command.replace('-', '_')}"
    code = main([command, "--out", str(out), *overrides])
    csv = out.with_suffix(".csv").read_text() if out.with_suffix(".csv").exists() else ""
    js = out.with_suffix(".json").read_text() if out.with_suffix(".json").exists() else ""
    return code, csv, js


def test_resolve_config_layers_file_then_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nbeta_h = 2.0\nhbar=0.25  # trailing\n")
    defaults = {"beta_h": 1.0, "hbar": 0.5, "pairs": 5}
    cfg = resolve_config(defaults, str(cfg_file), ["pairs=7"])
    assert cfg == {"beta_h": 2.0, "hbar": 0.25, "pairs": 7}


def test_resolve_config_rejects_unknown_keys_and_bad_values(tmp_path):
    defaults = {"hbar": 0.5}
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(defaults, None, ["nope=1"])
    with pytest.raises(ConfigError, match="cannot parse"):
        resolve_config(defaults, None, ["hbar=abc"])
    with pytest.raises(ConfigError, match="not key=value"):
        resolve_config(defaults, None, ["hbar"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError, match="malformed"):
        resolve_config(defaults, str(bad), [])
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_config(defaults, str(tmp_path / "missing.cfg"), [])


def test_config_hash_is_order_independent():
    a = config_hash({"b": 2, "a": 1.5})
    b = config_hash({"a": 1.5, "b": 2})
    assert a == b and len(a) == 16
    assert config_hash({"a": 1.5, "b": 3}) != a


def test_energy_command_writes_csv_and_json(tmp_path):
    code, csv, js = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    assert code == 0
    assert "# config_hash=" in csv
    assert "spectral_bottom" in csv
    payload = json.loads(js)
    assert payload["failures"] == []
    assert payload["summary"]["identity_residual"] <= 1e-10
    assert payload["config"]["gamma"] == 0.3
    check = payload["checks"]["energy identity"]
    assert check["value"] == payload["summary"]["identity_residual"]
    assert check["tol"] == 1e-10
    assert check["margin"] == check["tol"] - check["value"]


def test_a_nan_check_fails_and_names_its_invariant(tmp_path, capsys):
    # |alpha|^2 overflows, so the energy drift is nan: it must not pass
    code, _, js = _run(tmp_path, "evolve", "perturbation=1e300", "steps=5", *_SMALL)
    assert code == 1
    assert "invariant failed: energy conservation" in capsys.readouterr().err
    payload = json.loads(js)
    assert payload["failures"] == ["energy conservation"]
    assert math.isnan(payload["checks"]["energy conservation"]["value"])
    assert payload["checks"]["equilibrium invariance"]["margin"] > 0.0


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_key_has_a_rule_its_default_keeps(command):
    _, keys, cross = cli._COMMANDS[command]
    for key, (default, (text, holds)) in keys.items():
        assert isinstance(text, str) and holds(default), key
    assert all(holds(cli._defaults(command)) for _, holds in cross)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(cli._COMMANDS)).flatmap(
        lambda command: st.tuples(
            st.just(command),
            st.sampled_from(sorted(cli._defaults(command))),
            st.sampled_from(_EDGE_VALUES),
        )
    )
)
def test_every_key_keeps_the_exit_contract(case):
    """One key at a time at an edge value: exit 0, 1 or 2 and never a
    traceback; exit 2 before any output, exit 1 naming an invariant, exit 0
    with finite check values only."""
    command, key, value = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main([command, "--out", str(out), *_CHEAP[command], f"{key}={value}"])
        written = out.with_suffix(".json")
        payload = json.loads(written.read_text()) if written.exists() else None
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in escaped] == []
    if code == 2:
        assert err.getvalue().startswith("configuration error: ")
        assert payload is None
    if code == 1:
        assert re.search(r"^invariant failed: \S", err.getvalue(), re.MULTILINE)
    if code == 0:
        assert all(math.isfinite(c["value"]) for c in payload["checks"].values())


def _scipy_modules_after(tmp_path: Path, command: str) -> tuple[str, str]:
    """The scipy modules a fresh interpreter has loaded after importing the
    package and after then running ``command``, one comma-joined list each."""
    script = (
        "import sys\n"
        "import vanhove, vanhove.cli\n"
        "def scipy_modules():\n"
        "    return ','.join(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "imported = scipy_modules()\n"
        f"code = vanhove.cli.main([{command!r}, '--out', sys.argv[1], *{_CHEAP[command]!r}])\n"
        "assert code == 0, code\n"
        "print(imported)\n"
        "print(scipy_modules())\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / command)], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    imported, after = done.stdout.splitlines()[-2:]
    return imported, after


def test_importing_the_package_and_running_energy_load_no_scipy(tmp_path):
    # scipy.special alone costs ~0.2-0.3 s of start-up; only fock-spectrum,
    # garding and scattering need scipy, and they load it on first use
    assert _scipy_modules_after(tmp_path, "energy") == ("", "")


def test_soft_photons_loads_no_scipy(tmp_path):
    # its photon numbers are grid norms of the masked source: no Fock solve
    assert _scipy_modules_after(tmp_path, "soft-photons") == ("", "")


def test_scattering_loads_scipy_special_only_when_it_runs(tmp_path):
    imported, after = _scipy_modules_after(tmp_path, "scattering")
    assert imported == ""
    assert "scipy.special" in after.split(",")


def test_outputs_are_byte_identical_across_runs(tmp_path):
    _, csv1, js1 = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    _, csv2, js2 = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    assert csv1 == csv2
    assert js1 == js2


def _kms_inputs(overrides: list[str]):
    """The system, Gibbs state, beta_h, members, coefficients and time axis of
    the kms command at ``overrides``."""
    cfg = resolve_config(cli._defaults("kms"), None, overrides)
    sys_ = cli.dynamics.make_system(cli._source_from(cfg))
    state = gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    members, coeffs = cli._kms_draws(sys_.grid, cfg["seed"], cfg["pairs"])
    axis = (cfg["t_min"], cfg["t_max"], cfg["t_points"])
    return sys_, state, cfg["beta_h"], members, coeffs, axis


def test_kms_batch_rows_equal_one_pair_calls(tmp_path):
    """The kms command checks all its pairs in one batched kms_check; each
    batched defect is bitwise equal to a one-pair call, and the command
    writes each one."""
    overrides = ["pairs=6", "t_points=9", "seed=11", *_SMALL]
    code, csv, _ = _run(tmp_path, "kms", *overrides)
    assert code == 0
    sys_, state, beta_h, members, coeffs, axis = _kms_inputs(overrides)
    batch = kms_check(sys_, state, beta_h, members, coeffs, *axis)
    assert batch.shape == (6,)
    written = [float(line.split(",")[1]) for line in csv.splitlines()[-6:]]
    for k, (defect, defect_written) in enumerate(zip(batch, written)):
        one = kms_check(sys_, state, beta_h, members, coeffs[k : k + 1], *axis)
        assert defect.tobytes() == one[0].tobytes()
        assert defect_written == defect
    with pytest.raises(ValueError, match="one time"):
        kms_check(sys_, state, beta_h, members, coeffs[:0], *axis)
    with pytest.raises(ValueError, match="one time"):
        kms_check(sys_, state, beta_h, members, coeffs, *axis[:2], 0)


def _kms_defects(tmp_path: Path, *overrides: str) -> list[str]:
    code, csv, _ = _run(tmp_path, "kms", *_SMALL, "t_points=5", *overrides)
    assert code == 0
    return [line for line in csv.splitlines() if not line.startswith("#")][1:]


def test_kms_pair_k_does_not_depend_on_the_pair_count(tmp_path):
    # one Generator draws the pairs in order, so more pairs (here past two
    # blocks) only append rows
    more = 2 * cli.dynamics.kms_block(5) + 3
    three = _kms_defects(tmp_path, "pairs=3", "seed=5")
    longer = _kms_defects(tmp_path, f"pairs={more}", "seed=5")
    assert len(three) == 3 and len(longer) == more
    assert three == longer[:3]
    assert _kms_defects(tmp_path, "pairs=3", "seed=6") != three


def test_kms_rows_are_one_pair_calls_across_the_block_edges(tmp_path):
    """At pair counts that straddle a block, each written defect is bitwise a
    one-pair kms_check call, so the first rows do not depend on the count."""
    block = cli.dynamics.kms_block(5)
    overrides = [*_SMALL, "t_points=5", "seed=11"]
    longest = 2 * block + 3
    sys_, state, beta_h, members, coeffs, axis = _kms_inputs([*overrides, f"pairs={longest}"])
    ones = np.array([
        kms_check(sys_, state, beta_h, members, coeffs[k : k + 1], *axis)[0]
        for k in range(longest)
    ])
    for count in (block - 1, block, block + 1, longest):
        code, csv, _ = _run(tmp_path, "kms", *overrides, f"pairs={count}")
        assert code == 0
        rows = [line.split(",") for line in csv.splitlines() if not line.startswith("#")][1:]
        assert [int(k) for k, _ in rows] == list(range(count))
        written = np.array([float(defect) for _, defect in rows])
        assert written.tobytes() == ones[:count].tobytes()


def test_kms_pairs_are_the_per_member_draws():
    """Generator calls of _CSV_BLOCK pairs give bitwise the per-member stream:
    f before g, each from 4 real then 4 imaginary parts, so pair k does not
    depend on the count.  The members are exp(-s r^2), s = 0.5, 1, 2, 4, in
    that order."""
    grid = make_grid(panels=8, points=16, r_min=1e-4)
    count = 2 * cli._CSV_BLOCK + 3
    rng = np.random.default_rng(7)
    expected = np.array([
        [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in "fg"]
        for _ in range(count)
    ])
    for n in (1, 4, cli._CSV_BLOCK + 1, count):
        members, coeffs = cli._kms_draws(grid, 7, n)
        assert coeffs.shape == (n, 2, 4)
        assert coeffs.tobytes() == expected[:n].tobytes()
    gaussians = [np.exp(-s * grid.nodes**2) for s in (0.5, 1.0, 2.0, 4.0)]
    assert members.tobytes() == np.array(gaussians).tobytes()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("kms", ["t_max=1e307"]),
        ("kms", ["t_min=-8e307", "t_max=8e307", "r_max=1"]),
        ("evolve", ["t_max=1e307"]),
        ("egorov", ["t=1e307"]),
        ("scattering", ["t_max=1e300"]),
    ],
)
def test_time_axes_whose_phases_stay_finite_run(tmp_path, command, overrides):
    # just inside the phase rule's reach: |t| hypot(r_max, mass) and the span finite
    code, _, js = _run(tmp_path, command, *_CHEAP[command], *overrides)
    assert code == 0
    assert json.loads(js)["failures"] == []


def test_kms_seed_is_taken_mod_2_64(tmp_path):
    minus_one = _kms_defects(tmp_path, "pairs=3", "seed=-1")
    assert minus_one == _kms_defects(tmp_path, "pairs=3", f"seed={2**64 - 1}")
    assert _kms_defects(tmp_path, "pairs=3", f"seed={2**64 + 5}") == _kms_defects(
        tmp_path, "pairs=3", "seed=5"
    )


@pytest.mark.parametrize(
    "command, override",
    [
        ("kms", "pairs=0"),
        ("kms", "t_points=0"),
        ("kms", "beta_h=-1"),
        ("kms", "beta_h=inf"),
        ("kms", "hbar=inf"),
        ("kms", "hbar=nan"),
        ("evolve", "steps=0"),
        ("scattering", "t_points=0"),
        ("scattering", "t_min=0"),
        ("fock-spectrum", "hbar=0"),
        ("fock-spectrum", "omega=0"),
        ("fock-spectrum", "cutoff=1"),
        ("evolve", "t_max=inf"),
        ("evolve", "hbar=0"),
        ("egorov", "t=nan"),
        ("equilibrium", "beta=0"),
        ("scattering", "t_min=5 t_max=1"),
        ("kms", "t_min=nan"),
        # |t| hypot(r_max, mass) or the time span overflows: every phase
        # e^{i t omega} past it is nan
        ("kms", "t_max=1e308"),
        ("kms", "t_min=-1e308 t_max=1e308"),
        ("kms", "t_min=1e307 t_max=1e308"),
        ("kms", "t_min=-9e307 t_max=9e307 r_max=1"),
        ("evolve", "t_max=1e308"),
        ("evolve", "r_max=0.5 t_max=1e308"),
        ("egorov", "t=1e308"),
        ("egorov", "t=-1e308"),
        ("scattering", "t_max=1e308"),
        ("soft-photons", "n_min_log2=5 n_max_log2=3"),
        ("garding", "k_min=8 k_max=3"),
        ("fock-spectrum", "coupling_re=nan"),
        ("evolve", "hbar=inf"),
        # egorov takes no ladder: k_min and k_max are unknown keys
        ("egorov", "k_min=5 k_max=5"),
        ("equilibrium", "k_min=5 k_max=5"),
        # one rung fits garding's constant exactly, and one time is t_min alone
        ("garding", "k_min=5 k_max=5"),
        ("scattering", "t_points=1"),
        # keys scattering does not take: unknown, whatever the value
        ("scattering", "hbar=-1"),
        ("scattering", "hbar=nan"),
        ("scattering", "hbar=inf"),
        ("scattering", "hbar=0.5"),
        ("scattering", "k_min=5 k_max=5"),
        # soft-photons reads no Fock mode, so it takes no hbar
        ("soft-photons", "hbar=0"),
        ("fock-spectrum", "coupling_im=inf"),
        ("soft-photons", "n_min_log2=-1"),
        ("energy", "dim=0"),
        ("energy", "mass=nan"),
        ("energy", "r_min=0"),
        ("energy", "r_max=inf"),
        ("energy", "r_min=2 r_max=1"),
        ("energy", "panels=0"),
        ("energy", "points=0"),
        ("energy", "gamma=nan"),
        ("energy", "ir_cutoff=-1"),
        ("soft-photons", "mass=inf"),
        ("groundstate", "hbar=0"),
        ("groundstate", "s_minus=-inf"),
        ("groundstate", "s_plus=nan"),
        ("groundstate", "s_minus=-1 s_plus=-3"),
        # a window too narrow to resolve: kms_window's t_max = 596 / h + 25 passes 5000
        ("groundstate", "s_minus=-3 s_plus=-2.8"),
        # rounding flattens the rule's nodes on a window this far out, so it
        # misses its own integral h B(0)
        ("groundstate", "s_minus=1e15 s_plus=1000000000000001"),
        ("evolve", "perturbation=nan"),
        ("egorov", "center_scale=inf"),
        ("equilibrium", "regime=sublinear epsilon=2"),
        ("equilibrium", "regime=sublinear coefficient=-1"),
        ("equilibrium", "regime=superlinear coefficient=0"),
        # beta_hbar = c hbar^power underflows to 0 on the hbar ladder
        ("equilibrium", "regime=superlinear epsilon=1000"),
        ("equilibrium", "regime=linear beta=5e-324"),
        ("equilibrium", "regime=linear beta=1e-320"),
        ("equilibrium", "regime=superlinear coefficient=1e-300 epsilon=20"),
        ("scattering", "points=16"),
        ("garding", "k_min=0"),
        ("fock-spectrum", "cutoff=5"),
        # ceilings: garding would allocate gigabytes past its own, fock-spectrum
        # would derive truncations past its measured one, groundstate's widest
        # window (width 128) bounds the sigma panels x time panels its check
        # multiplies, and its time rule, whose step follows max(|s_minus|,
        # |s_plus|) + max omega, would take ~20.7M time nodes at mass=1e4
        ("fock-spectrum", "coupling_re=30"),
        ("fock-spectrum", "coupling_im=1e300"),
        ("fock-spectrum", "omega=1e-300"),
        ("garding", "k_max=13"),
        ("groundstate", "s_minus=-3 s_plus=126.5"),
        ("groundstate", "s_plus=1000"),
        ("groundstate", "mass=1e4"),
        # grid measures that overflow to inf (nan photon numbers, nan windows)
        ("soft-photons", "r_max=1e300"),
        ("groundstate", "r_max=1e300"),
        # r_max/r_min overflows the panel edges: make_grid refuses the range
        ("energy", "dim=1 mass=1 r_min=1e-300 r_max=1e10"),
        # 4|j|^2/(hbar omega^2) = 5.000000000000001 needs 26 levels, not 25
        ("fock-spectrum", "coupling_re=1.118033988749895 hbar=1 omega=1 cutoff=25"),
        # omega = hypot(r, mass) flat on the first panels: no Filon fit exists
        ("scattering", "mass=1000"),
        ("scattering", "mass=1e300"),
        # count ceilings: rows, grid nodes and (time x node) tables
        ("evolve", "steps=10000000000000"),
        ("evolve", "steps=131073"),
        ("kms", "pairs=10000000000000"),
        ("kms", "t_points=10000000000000"),
        ("kms", "t_points=4097"),
        # kms's atom tables take 64 entries a time on grids under 64 nodes
        ("kms", "panels=4 points=8 t_points=65536"),
        ("scattering", "t_points=10000000000000"),
        ("scattering", "t_points=4097"),
        ("energy", "panels=10000000000000"),
        ("classify", "points=10000000000000"),
        # too few infrared shells for numeric_classification's slope fit
        ("classify", "r_min=0.01"),
        ("classify", "panels=9"),
        ("classify", "r_max=1e8"),
        # a source r^{10^4} e^{-r^2} that overflows on the grid, in every
        # sourced command
        ("classify", "gamma=-1e4"),
        ("energy", "gamma=-1e4"),
        ("evolve", "gamma=-1e4"),
        ("kms", "gamma=-1e4"),
        ("groundstate", "gamma=-1e4"),
        ("egorov", "gamma=-1e4"),
        ("equilibrium", "gamma=-1e4"),
        ("scattering", "gamma=-1e4"),
        ("soft-photons", "gamma=-1e4"),
        ("energy", "panels=4096 points=17"),
    ],
)
def test_bad_kms_and_evolve_parameters_exit_2_before_compute(
    tmp_path, capsys, monkeypatch, command, override
):
    def computed(*args, **kwargs):
        pytest.fail("computed before validating")

    monkeypatch.setattr(cli.dynamics, "make_system", computed)
    monkeypatch.setattr(cli.fock, "adequate_cutoff", computed)
    monkeypatch.setattr(cli.fock, "ground_state_analysis", computed)
    monkeypatch.setattr(cli.fock, "garding_probe", computed)
    code, csv, js = _run(tmp_path, command, *override.split())
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert csv == js == ""


@pytest.mark.parametrize("overrides", [["mass=10"], ["mass=1000", "t_max=30"]])
def test_scattering_takes_a_mass_while_omega_grows_on_every_filon_panel(tmp_path, overrides):
    # mass = 10 still separates hypot(r, mass) at the panel edges; mass = 1000
    # does not, which matters only once t_max needs the Filon rule
    code, _, js = _run(tmp_path, "scattering", *_CHEAP["scattering"], *overrides)
    assert code == 0
    assert json.loads(js)["failures"] == []


def test_groundstate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the window and correlation sums are BLAS-3 matmuls, and the other
    # commands here batch their rows through matmuls and row sums (kms writes
    # relative cross-term defects at the rounding level), and fock-spectrum at
    # N = 2048 solves its lowest pair alone; their bytes must not move with the
    # thread count
    runs = {
        "neg": ["groundstate", *_SMALL],
        "pos": ["groundstate", *_SMALL, "s_minus=1", "s_plus=3"],
        **{command: [command, *_CHEAP[command]]
           for command in ("egorov", "equilibrium", "scattering", "kms")},
        # 200 steps span four phase table chunks on the small grid
        "evolve": ["evolve", *_SMALL, "steps=200"],
        "fock": ["fock-spectrum", "cutoff=2048"],
    }
    script = (
        "import sys\n"
        "from vanhove.cli import main\n"
        "out = sys.argv[1]\n"
        f"for name, argv in {runs!r}.items():\n"
        "    main([argv[0], '--out', out + '_' + name, *argv[1:]])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        prefix = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-c", script, str(prefix)], env=env, check=True,
            capture_output=True, timeout=300,
        )
        outputs[threads] = [
            (tmp_path / f"threads{threads}_{name}{ext}").read_bytes()
            for name in runs for ext in (".csv", ".json")
        ]
    assert outputs["1"] == outputs["2"]


def test_benchmark_configs_and_the_ceilings_themselves_pass_the_rules():
    for command, overrides in [
        ("kms", ["pairs=400", "t_points=201"]),
        ("evolve", ["steps=2001", "t_max=1000"]),
        ("scattering", ["t_max=1e5", "t_points=30"]),
        ("evolve", [f"steps={cli._ROWS_MAX}"]),
        ("kms", ["t_points=4096"]),
        ("kms", ["pairs=10000", "t_points=209", "panels=4", "points=8"]),
        ("kms", ["t_points=32768", "panels=4", "points=8"]),
        ("groundstate", ["s_minus=-3", "s_plus=125"]),
        # kms holds one block's cross terms at a time: pairs meets only the row ceiling
        ("kms", ["pairs=20000", "t_points=201"]),
        ("energy", ["panels=2048", "points=32"]),
    ]:
        cfg = resolve_config(cli._defaults(command), None, overrides)
        _, keys, cross = cli._COMMANDS[command]
        cli._validate(cfg, keys, cross)


@pytest.mark.parametrize(
    "command", [name for name in _CHEAP if "r_max" in cli._defaults(name)]
)
def test_each_grid_command_builds_its_grid_once(tmp_path, monkeypatch, command):
    built = []

    def counted(**keys):
        built.append(keys)
        return make_grid(**keys)

    monkeypatch.setattr(cli, "make_grid", counted)
    # equilibrium flags its convergence on this short ladder (exit 1); egorov,
    # whose one check compares the flow with the dynamics, exits 0
    code, csv, _ = _run(tmp_path, command, *_CHEAP[command])
    assert code in (0, 1) and csv
    assert len(built) == 1


def test_energy_runs_a_grid_whose_measures_are_finite(tmp_path, capsys):
    # sigma w omega reaches ~1e308 only if one node carried the whole weight
    # r_max - r_min; the grid make_grid builds has every measure finite
    code, _, js = _run(tmp_path, "energy", "dim=1", "mass=1e300", "r_max=1e8")
    assert code == 0
    assert json.loads(js)["failures"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "window", ["hbar=1000 s_minus=1 s_plus=3", "hbar=1e4", "hbar=1e300"]
)
def test_groundstate_window_value_is_0_at_large_hbar(tmp_path, capsys, window):
    # the Gaussian factor alone underflows to 0 and exp(pi^2 hbar s) alone
    # overflows; formed in one exponent, whose real part is >= 0, the
    # correlation stays <= 1 and the window value underflows to 0
    code, _, js = _run(tmp_path, "groundstate", *_SMALL, *window.split())
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["window_value"] == 0.0
    assert payload["failures"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("window", ["s_plus=100", "s_minus=-3 s_plus=125"])
def test_groundstate_takes_windows_up_to_the_width_ceiling(tmp_path, window):
    # widths 103 and 128, the ceiling, on the default grid: the time step
    # follows the bandwidth, so the value is the doubled time rule's to the
    # rounding level (1.5e-15 and 2.2e-15 apart), each check in ~30 ms
    code, _, js = _run(tmp_path, "groundstate", *window.split())
    assert code == 0
    payload = json.loads(js)
    assert payload["failures"] == []
    cfg = resolve_config(cli._defaults("groundstate"), None, window.split())
    sys_ = cli.dynamics.make_system(cli._source_from(cfg))
    f = sample(sys_.grid, lambda r: np.exp(-(r**2)))
    g = sample(sys_.grid, lambda r: np.exp(-2.0 * r**2))
    rule = cli.dynamics.kms_window(cfg["s_minus"], cfg["s_plus"])
    fine = cli.dynamics.ground_state_check(sys_, f, g, rule, hbar=cfg["hbar"], resolution=2)
    assert payload["summary"]["window_value"] == pytest.approx(fine.value, abs=1e-12)


def test_groundstate_checks_every_window_value_is_finite(tmp_path):
    for window in ([], ["s_minus=1", "s_plus=3"]):
        code, _, js = _run(tmp_path, "groundstate", *_SMALL, *window)
        assert code == 0
        assert json.loads(js)["checks"]["window value finite"]["value"] == 0.0


def test_scattering_fits_the_filon_model_once(tmp_path, monkeypatch):
    # one free_overlap call over the whole time ladder: one t-free fit
    fits = []
    real_fit = cli.scattering._filon_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli.scattering, "_filon_fit", counted)
    for overrides in (_CHEAP["scattering"], []):
        fits.clear()
        code, _, _ = _run(tmp_path, "scattering", *overrides)
        assert code == 0
        assert len(fits) == 1


def test_classify_command_agrees_with_itself(tmp_path):
    code, csv, js = _run(tmp_path, "classify", "gamma=0.8")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["analytic_class"] == "type_i"
    assert payload["summary"]["numeric_class"] == "type_i"
    assert payload["summary"]["agreement"] is True


def test_classify_reports_out_of_scope_without_failing(tmp_path):
    code, csv, js = _run(tmp_path, "classify", "gamma=1.6")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["analytic_class"] == "out_of_scope"
    assert payload["summary"]["numeric_class"] == "not_applicable"
    assert "nan" in csv


def test_unknown_key_is_a_configuration_error(tmp_path, capsys):
    code, _, _ = _run(tmp_path, "energy", "nonsense=1")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_type_ii_source_is_an_invariant_failure(tmp_path, capsys):
    # the dressed system cannot be built, which surfaces as exit 1
    code, _, _ = _run(tmp_path, "energy", "gamma=1.2")
    assert code == 1
    assert "invariant failed" in capsys.readouterr().err


@pytest.mark.parametrize("hbar, failures", [("1", []), ("100", ["equilibrium invariance"])],
                         ids=["1", "100"])
def test_evolve_refuses_a_probe_too_small_to_show_a_drift(tmp_path, capsys, hbar, failures):
    # the drift is relative to the probe's Gibbs value: 9.6e-15 at hbar = 1 is
    # resolved, while at hbar = 100 it underflows to 0 and the nan drift fails
    code, _, js = _run(tmp_path, "evolve", *_CHEAP["evolve"], f"hbar={hbar}")
    assert code == (1 if failures else 0)
    payload = json.loads(js)
    assert payload["failures"] == failures
    check = payload["checks"]["equilibrium invariance"]
    if failures:
        assert math.isnan(check["value"]) and check["tol"] < math.inf
        assert capsys.readouterr().err == "invariant failed: equilibrium invariance\n"
    else:
        assert 0.0 < check["value"] <= check["tol"] / 10


@pytest.mark.parametrize(
    "overrides",
    [[], ["dim=8"], ["dim=9"], ["dim=16"], ["hbar=20"], ["gamma=0.45"],
     ["steps=2001", "t_max=1000"]],
    ids=["defaults", "dim=8", "dim=9", "dim=16", "hbar=20", "gamma=0.45", "t_max=1000"],
)
def test_equilibrium_invariance_stays_under_a_tenth_of_its_tolerance(tmp_path, overrides):
    # the drift reads the rounding of the value's exponent: 7.4e-15 against
    # 7.5e-13 at the defaults; dim >= 9 exited 1 under the absolute 1e-13
    code, _, js = _run(tmp_path, "evolve", *overrides)
    assert code == 0
    check = json.loads(js)["checks"]["equilibrium invariance"]
    assert 0.0 < check["value"] <= check["tol"] / 10


def _corrupt_the_gibbs_covariance(monkeypatch):
    # the covariance m_0 coth is formed in states; kms_check reads it back
    _coth_times(1.0 + 1e-8)(monkeypatch)


def test_kms_cross_terms_see_a_corrupted_coth_at_the_defaults(tmp_path, monkeypatch):
    # the characteristic values are ~1e-89 at the defaults: a defect taken as
    # a difference of values reads ~1e-35 whatever the coth, a relative one not
    _corrupt_the_gibbs_covariance(monkeypatch)
    code, _, js = _run(tmp_path, "kms")
    assert code == 1
    payload = json.loads(js)
    assert payload["failures"] == ["kms cross terms"]
    assert payload["summary"]["max_defect"] == pytest.approx(1e-8, rel=0.1)


@pytest.mark.parametrize("hbar", ["1e-8", "1e-300"])
def test_kms_cross_terms_see_a_corrupted_coth_as_hbar_vanishes(tmp_path, monkeypatch, hbar):
    # the values' exponent carries hbar (7.1e-14 at hbar = 1e-8, 7.1e-306 at
    # 1e-300); the cross-term defect has none and reads the 1e-8 at any hbar
    _corrupt_the_gibbs_covariance(monkeypatch)
    code, _, js = _run(tmp_path, "kms", f"hbar={hbar}")
    assert code == 1
    payload = json.loads(js)
    assert payload["failures"] == ["kms cross terms"]
    assert payload["checks"]["kms cross terms"]["value"] == pytest.approx(1e-8, rel=0.1)


@pytest.mark.parametrize("beta_h", ["1e-4", "1e-6", "1e-12", "1e-14"])
def test_kms_at_small_beta_h_passes_and_still_sees_a_corrupted_coth(
    tmp_path, monkeypatch, beta_h
):
    # coth(x) ~ 1/x puts the values' exponent at ~3e6 (1e-4) up to ~3e16
    # (1e-14), whose rounding alone reads 1e-9 up to 139 as |lhs/rhs - 1|; the
    # cross terms are relative to their own size, with no hbar
    code, _, js = _run(tmp_path, "kms", f"beta_h={beta_h}")
    assert code == 0
    check = json.loads(js)["checks"]["kms cross terms"]
    assert check["value"] <= check["tol"] / 10
    _corrupt_the_gibbs_covariance(monkeypatch)
    code, _, js = _run(tmp_path, "kms", f"beta_h={beta_h}")
    assert code == 1
    assert json.loads(js)["failures"] == ["kms cross terms"]


def test_kms_keeps_the_nodes_whose_measure_underflows(tmp_path):
    # r_min = 1e-300 in dim 4: m_0 ~ r^3 underflows to 0 at the smallest nodes,
    # so a covariance read as weight / m_0 would be nan there
    code, _, js = _run(tmp_path, "kms", "mass=1", "dim=4", "r_min=1e-300")
    assert code == 0
    assert json.loads(js)["failures"] == []


@pytest.mark.filterwarnings("error")
def test_kms_at_large_beta_h_warns_nothing(tmp_path):
    # expm1(beta_h omega) overflows past beta_h omega ~ 710; 2 m_0 / inf = 0 is
    # the limit wanted there, not a numpy warning
    code, _, js = _run(tmp_path, "kms", *_CHEAP["kms"], "beta_h=300")
    assert code == 0
    assert json.loads(js)["failures"] == []


@pytest.mark.filterwarnings("error")
def test_kms_passes_where_the_values_underflow(tmp_path, capsys):
    # hbar = 1e300: every characteristic value underflows to 0 on both sides,
    # and at hbar = 1e308 and at beta_h = 1e-300 their exponent overflows; the
    # cross terms carry no hbar and stay at the rounding level, with no numpy
    # warning
    for extreme in ("hbar=1e300", "hbar=1e308", "beta_h=1e-300"):
        code, _, js = _run(tmp_path, "kms", *_CHEAP["kms"], extreme)
        assert code == 0, extreme
        assert json.loads(js)["checks"]["kms cross terms"]["value"] <= 1e-12
        assert capsys.readouterr().err == ""


def test_fock_spectrum_refuses_a_non_finite_mode_matrix(tmp_path, capsys):
    # hbar omega = 1e400 overflows: FockMode refuses the product by name,
    # before any output (omega = 1e300 alone is solved, as H/(hbar omega))
    code, csv, js = _run(tmp_path, "fock-spectrum", "omega=1e200", "hbar=1e200")
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: hbar * omega must be finite, got 1e+200 * 1e+200\n"
    )
    assert csv == js == ""


def test_fock_spectrum_holds_no_square_matrix():
    # at N = 2048 the lowest pair of H and the closed-form coherent vector are
    # 2049-vectors: the traced peak stays near 0.2 MB, where one real 2049^2
    # matrix alone would take 34 MB
    import scipy.linalg.lapack  # noqa: F401  (loaded before tracing: not the command's memory)

    cfg = resolve_config(cli._defaults("fock-spectrum"), None, ["cutoff=2048"])
    tracemalloc.start()
    try:
        result = cli.cmd_fock_spectrum(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failures == []
    assert peak <= 2_000_000


def test_evolve_holds_one_phase_table_chunk_at_a_time():
    # the bench config: 2001 x 512 phase tables would be 16.4 MB; one chunk at
    # a time keeps the traced peak near 1 MB
    cfg = resolve_config(cli._defaults("evolve"), None, ["steps=2001", "t_max=1000"])
    tracemalloc.start()
    try:
        result = cli.cmd_evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failures == []
    assert peak <= 4_000_000


def test_garding_assembles_only_the_trusted_block():
    # at N = 486 the trusted block's two parity sectors (122^2 each) keep the
    # traced peak near 4.9 MB; the whole trusted 244^2 complex blocks take it
    # near 7.3 MB, the full 487^2 matrices near 29 MB
    import scipy.linalg  # noqa: F401  (loaded before tracing: not the probe's memory)

    cfg = resolve_config(cli._defaults("garding"), None, [])
    tracemalloc.start()
    try:
        result = cli.cmd_garding(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failures == []
    assert peak <= 8_000_000


def test_evolve_command_conserves_energy(tmp_path):
    code, csv, js = _run(
        tmp_path, "evolve", "gamma=0.3", "steps=5", "t_max=10", *_SMALL
    )
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["max_energy_drift"] <= 1e-10
    assert payload["summary"]["max_equilibrium_char_drift"] <= 1e-13


def test_groundstate_command_annihilates_negative_windows(tmp_path):
    code, _, js = _run(tmp_path, "groundstate", *_SMALL)
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["negative_support"] is True
    assert payload["summary"]["window_value"] <= 1e-6


def test_equilibrium_command_validates_the_regime(tmp_path, capsys):
    code, _, _ = _run(tmp_path, "equilibrium", "regime=warp")
    assert code == 2
    assert "regime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        # the key rule: coefficient finite
        (["regime=sublinear", "coefficient=inf"], "coefficient must be finite, got inf"),
        # the regime: 0 < coefficient < inf
        (["regime=sublinear", "coefficient=-1"],
         "sub-linear regime needs 0 < coefficient < inf, got -1.0"),
        (["regime=superlinear", "coefficient=0"],
         "super-linear regime needs 0 < coefficient < inf, got 0.0"),
    ],
)
def test_equilibrium_command_refuses_a_coefficient_by_name(tmp_path, capsys, overrides, message):
    code, csv, js = _run(tmp_path, "equilibrium", *overrides)
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert csv == js == ""


def test_equilibrium_command_linear_regime(tmp_path):
    code, _, js = _run(
        tmp_path, "equilibrium", "regime=linear", "k_max=10", *_SMALL
    )
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["fitted_order"] == pytest.approx(2.0, abs=0.1)


def test_egorov_command_converges(tmp_path):
    # one row and one check, the flow's gap to the Heisenberg route
    code, csv, js = _run(tmp_path, "egorov", *_SMALL)
    assert code == 0
    payload = json.loads(js)
    assert list(payload["checks"]) == ["flow vs dynamics"]
    gap = payload["checks"]["flow vs dynamics"]["value"]
    assert payload["summary"] == {"flow_gap": gap, "t": 1.0}
    rows = [line.split(",") for line in csv.splitlines() if not line.startswith("#")]
    assert rows == [["quantity", "value"], ["flow_gap", rows[1][1]]]
    assert float(rows[1][1]) == gap


@pytest.mark.parametrize(
    "overrides",
    [[], ["dim=2"], ["dim=7"], ["dim=16"], ["t=37.5"], ["t=1e4"], ["center_scale=100"],
     ["mass=1"], ["gamma=0.45"]],
    ids=["defaults", "dim=2", "dim=7", "dim=16", "t=37.5", "t=1e4", "center_scale=100",
         "mass=1", "gamma=0.45"],
)
def test_flow_vs_dynamics_stays_under_a_tenth_of_its_tolerance(tmp_path, overrides):
    # 4.5e-15 against 7.4e-13 at the defaults
    code, _, js = _run(tmp_path, "egorov", *overrides)
    assert code == 0
    payload = json.loads(js)
    assert payload["failures"] == []
    check = payload["checks"]["flow vs dynamics"]
    assert 0.0 < check["value"] <= check["tol"] / 10


def test_kms_and_egorov_raise_no_false_alarm_across_their_sweep(tmp_path):
    # each command has one check, of an identity correct code meets at round-off
    # whatever the temperature, hbar or dim: kms at beta_h and hbar from 1e-300
    # to 1e300 (cheap grid), egorov at every dim; only the type II source at
    # dim = 1 is refused
    extremes = ("1e-300", "1e-14", "1e-12", "1e-4", "1", "300")
    hbars = ("1e-300", "1e-8", "1", "1e10", "1e100", "1e300")
    sweep = [
        *(["kms", *_CHEAP["kms"], f"beta_h={b}", f"hbar={h}"] for b in extremes for h in hbars),
        *(["egorov", f"dim={dim}"] for dim in range(1, 17)),
    ]
    refusal = (
        "invariant failed: source classifies as type_ii: the dressing energy "
        "||J||_{-1}^2 diverges, so no dressed state exists\n"
    )
    alarms = []
    for argv in sweep:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main([argv[0], "--out", str(tmp_path / "out"), *argv[1:]])
        expected = (1, refusal) if argv == ["egorov", "dim=1"] else (0, "")
        if (code, err.getvalue()) != expected or escaped:
            alarms.append((" ".join(argv), code, err.getvalue()))
    assert alarms == []


def test_scattering_command_checks_transport_against_dynamics(tmp_path):
    # keep the default points=32: the long-time overlap rule needs deep nodes
    code, _, js = _run(tmp_path, "scattering", "t_points=5", "panels=8", "r_min=1e-4")
    assert code == 0
    payload = json.loads(js)
    assert sorted(payload["checks"]) == ["overlap decay", "transport vs dynamics"]
    assert sorted(payload["summary"]) == ["final_overlap"]
    assert payload["summary"]["final_overlap"] < 1e-2


@pytest.mark.parametrize(
    "overrides",
    [[], ["t_max=1e5", "t_points=30"], ["dim=4"], ["dim=16"], ["t_min=100"], ["mass=1"]],
    ids=["defaults", "t_max=1e5", "dim=4", "dim=16", "t_min=100", "mass=1"],
)
def test_transport_vs_dynamics_stays_under_a_tenth_of_its_tolerance(tmp_path, overrides):
    # the routes meet at round-off: 6.4e-15 against 2.4e-13 at the defaults,
    # 2.8e-14 against 2.1e-12 at dim=16; t_min=100 checks at t = 32 alone
    code, _, js = _run(tmp_path, "scattering", *overrides)
    assert code == 0
    check = json.loads(js)["checks"]["transport vs dynamics"]
    assert 0.0 < check["value"] <= check["tol"] / 10


def _wrapped(module, name, wrap):
    """A patch: module.name (a module's or a class's attribute) replaced by
    wrap(the original) for one test.
    Applied, it returns the list that each call of the replacement appends
    to, so a test can tell a patch that never ran from one no check sees."""

    def patch(monkeypatch):
        calls = []
        replacement = wrap(getattr(module, name))

        def counted(*args, **kwargs):
            calls.append(name)
            return replacement(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return patch


def _ground_report_scaled(field, factor):
    """A patch: one field of fock-spectrum's ground report times ``factor``."""
    return _wrapped(
        cli.fock, "ground_state_analysis",
        lambda real: lambda mode: (
            lambda r: replace(r, **{field: factor * getattr(r, field)}))(real(mode)),
    )


def _coth_times(factor):
    """A patch: the Gibbs covariance's coth times ``factor``."""
    return _wrapped(cli.states, "stable_coth", lambda real: lambda x: real(x) * factor)


def _rows_at_minus_t():
    """A patch: every e^{i t omega} row of ``_phase_rows`` conjugated, so at -t."""
    return _wrapped(
        cli.dynamics, "_phase_rows",
        lambda real: lambda *args: ((part, np.conj(rows)) for part, rows in real(*args)),
    )


# committed bugs as (command and overrides, patch, expected check): each is a
# bug the check's own statement rules out, run at the command's defaults unless
# overrides follow the command
_LEDGER = {
    "transport_by_3_j_over_omega": (
        "scattering",
        _wrapped(cli.scattering, "transport_state",
                 lambda real: lambda sys_, st: real(sys_, real(sys_, real(sys_, st)))),
        "transport vs dynamics",
    ),
    "transport_by_minus_j_over_omega": (
        "scattering",
        _wrapped(cli.scattering, "transport_state",
                 lambda real: lambda sys_, st: replace(st, center=st.center - sys_.j_over_omega)),
        "transport vs dynamics",
    ),
    "no_transport": (
        "scattering",
        _wrapped(cli.scattering, "transport_state", lambda real: lambda sys_, st: st),
        "transport vs dynamics",
    ),
    "free_overlap_times_1.01": (
        "scattering",
        _wrapped(cli.scattering, "free_overlap", lambda real: lambda *args: 1.01 * real(*args)),
        "transport vs dynamics",
    ),
    "evolve_weyl_to_1.001_t": (
        "scattering",
        _wrapped(cli.scattering, "evolve_weyl",
                 lambda real: lambda sys_, a, t: real(sys_, a, 1.001 * t)),
        "transport vs dynamics",
    ),
    "evolve_values_times_1+1e-7": (
        "evolve",
        _wrapped(cli.dynamics, "evolve_rows",
                 lambda real: lambda *args: (lambda e, c: (e, c * (1.0 + 1e-7)))(*real(*args))),
        "equilibrium invariance",
    ),
    "no_flow": (
        "egorov",
        _wrapped(cli.semiclassics, "evolve_state", lambda real: lambda sys_, st, t: st),
        "flow vs dynamics",
    ),
    "flow_by_minus_j_over_omega": (
        "egorov",
        _wrapped(cli.semiclassics, "evolve_state",
                 lambda real: lambda sys_, st, t: real(
                     replace(sys_, j_over_omega=-sys_.j_over_omega), st, t)),
        "flow vs dynamics",
    ),
    "flow_to_1.001_t": (
        "egorov",
        _wrapped(cli.semiclassics, "evolve_state",
                 lambda real: lambda sys_, st, t: real(sys_, st, 1.001 * t)),
        "flow vs dynamics",
    ),
    "coherent_vector_at_1.01_hbar": (
        "fock-spectrum",
        _wrapped(cli.fock, "_coherent_vector",
                 lambda real: lambda mode, z: real(replace(mode, hbar=1.01 * mode.hbar), z)),
        "coherent ground overlap",
    ),
    "ground_energy_times_1+1e-7": (
        "fock-spectrum", _ground_report_scaled("energy", 1.0 + 1e-7), "ground energy",
    ),
    "gap_times_1+1e-6": (
        "fock-spectrum", _ground_report_scaled("gap", 1.0 + 1e-6), "spectral gap",
    ),
    "photon_number_times_1+1e-6": (
        "fock-spectrum", _ground_report_scaled("photon_number", 1.0 + 1e-6), "photon number",
    ),
    "coth_times_1+1e-9": ("kms", _coth_times(1.0 + 1e-9), "kms cross terms"),
    "coth_times_1+1e-9_at_beta_h=1e-12": (
        "kms beta_h=1e-12", _coth_times(1.0 + 1e-9), "kms cross terms",
    ),
    "coth_times_1+1e-9_at_hbar=1e300": (
        "kms hbar=1e300", _coth_times(1.0 + 1e-9), "kms cross terms",
    ),
    "ground_energy_times_1+1e-9": (
        "energy",
        _wrapped(cli.dynamics, "ground_energy", lambda real: lambda sys_: real(sys_) * (1.0 + 1e-9)),
        "energy identity",
    ),
    "analytic_class_forced_regular": (
        "classify",
        _wrapped(cli.sources, "classify_analytic",
                 lambda real: lambda spec: cli.sources.InfraredClass.REGULAR),
        "classification agreement",
    ),
    "coth_times_1+1e-3_at_equilibrium": (
        "equilibrium", _coth_times(1.0 + 1e-3), "equilibrium convergence",
    ),
    "classical_limit_at_1.1_beta": (
        "equilibrium",
        _wrapped(cli.semiclassics, "gibbs_classical",
                 lambda real: lambda source, beta: real(source, 1.1 * beta)),
        "equilibrium convergence",
    ),
    "ground_limit_centred_at_1.01_c": (
        "equilibrium regime=ground",
        _wrapped(cli.semiclassics, "dirac", lambda real: lambda center: real(1.01 * center)),
        "equilibrium convergence",
    ),
    "evolve_energies_times_1+1e-9": (
        "evolve",
        _wrapped(cli.dynamics, "evolve_rows",
                 lambda real: lambda *args: (lambda e, c: (e * (1.0 + 1e-9), c))(*real(*args))),
        "energy conservation",
    ),
    "window_mirrored_to_positive_frequencies": (
        "groundstate",
        _wrapped(cli.dynamics, "kms_window",
                 lambda real: lambda s_minus, s_plus, *rest: real(-s_plus, -s_minus, *rest)),
        "ground-state annihilation",
    ),
    "window_value_inf": (
        "groundstate s_minus=1 s_plus=3",
        _wrapped(cli.dynamics, "ground_state_check",
                 lambda real: lambda *args, **kw: replace(real(*args, **kw), value=math.inf)),
        "window value finite",
    ),
    "soft_photon_last_number_inf": (
        "soft-photons",
        _wrapped(cli.fock, "soft_photon_sweep",
                 lambda real: lambda *args: (lambda r: replace(
                     r, numbers=(*r.numbers[:-1], math.inf)))(real(*args))),
        "soft-photon sweep finite",
    ),
    "antiwick_negated": (
        "garding",
        _wrapped(cli.fock, "antiwick",
                 lambda real: lambda a, hbar: cli.weyl.scale(real(a, hbar), -1.0)),
        "anti-Wick positivity",
    ),
}

#: checks no committed bug fails yet, each with the item that gives it one
_UNLEDGERED = {
    "overlap decay": "item 16",
    "garding linear fit": "item 5",
    "garding lower bound": "item 5",
}

# bugs no check sees yet, as (command and overrides, patch, the item that will
# refuse it): each exits 0 today; strict, so a row that starts to exit 1 must
# move to _LEDGER with the check that fails it
_BLIND = {
    "superlinear_beta_h_times_10": (
        "equilibrium regime=superlinear",
        _wrapped(cli.semiclassics.Regime, "beta_hbar",
                 lambda real: lambda regime, hbar: 10.0 * real(regime, hbar)),
        "item 2: the superlinear values vanish either way; a closed-form exponent sees it",
    ),
    "garding_exponentials_times_1+1e-3": (
        "garding",
        _wrapped(cli.fock, "_sector_blocks",
                 lambda real: lambda *args, **kwargs: (lambda blocks, defect: (
                     {z: tuple(b * (1.0 + 1e-3) for b in pieces) for z, pieces in blocks.items()},
                     defect))(*real(*args, **kwargs))),
        "item 5: the Fock bottoms have no second route (Schrodinger-lattice fibres)",
    ),
    "garding_antiwick_at_1.5_hbar": (
        "garding",
        _wrapped(cli.fock, "antiwick", lambda real: lambda a, hbar: real(a, 1.5 * hbar)),
        "item 5: the anti-Wick bottom has no second route (Schrodinger-lattice fibres)",
    ),
    "soft_photon_numbers_times_1.01": (
        "soft-photons",
        _wrapped(cli.fock, "soft_photon_sweep",
                 lambda real: lambda *args: (lambda r: replace(
                     r, numbers=tuple(1.01 * n for n in r.numbers)))(real(*args))),
        "item 15: the photon numbers have no closed-form route",
    ),
    "soft_photon_source_times_1.01": (
        "soft-photons",
        _wrapped(cli.fock, "realize", lambda real: lambda spec: 1.01 * real(spec)),
        "item 15: the photon numbers have no closed-form route",
    ),
    "filon_fit_times_10": (
        "scattering",
        _wrapped(cli.scattering, "_filon_fit", lambda real: lambda *args: 10.0 * real(*args)),
        "item 16: no check reads the Filon rows past t = 32, and overlap decay is absolute",
    ),
    "evolve_rows_at_minus_t": (
        "evolve steps=2001 t_max=1000", _rows_at_minus_t(),
        "item 22: evolve's checks read invariants; the Schrodinger flow at t is the second route",
    ),
    "kms_rows_at_minus_t": (
        "kms pairs=400 t_points=201", _rows_at_minus_t(),
        "item 22: the KMS condition holds at -t too; the Schrodinger flow at t is the second route",
    ),
}


@pytest.mark.parametrize("argv, patch, check", _LEDGER.values(), ids=list(_LEDGER))
def test_a_committed_bug_fails_its_check_by_name(
    tmp_path, capsys, monkeypatch, argv, patch, check
):
    patch(monkeypatch)
    code, _, js = _run(tmp_path, *argv.split())
    assert code == 1
    assert json.loads(js)["failures"] == [check]
    assert capsys.readouterr().err == f"invariant failed: {check}\n"


@pytest.mark.parametrize(
    "argv, patch",
    [pytest.param(argv, patch, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                      reason=item))
     for argv, patch, item in _BLIND.values()],
    ids=list(_BLIND),
)
def test_a_blind_bug_is_refused(tmp_path, monkeypatch, argv, patch):
    calls = patch(monkeypatch)
    code, _, _ = _run(tmp_path, *argv.split())
    if not calls:
        # not an AssertionError: a patch the run never reaches fails the
        # strict xfail instead of passing it vacuously
        raise RuntimeError("the patched function was never called")
    assert code == 1


# configurations that exit 1 for correct code, each at the defaults plus one
# or two keys, with the ROADMAP item whose mending is to clear it
_FALSE_ALARMS = {
    "egorov center_scale=1e9": "item 3: the two routes' angles of ~1e10 differ by their rounding",
    "evolve hbar=100": "item 3: the probe's Gibbs value underflows, a nan drift",
    "evolve beta_h=1e-2": "item 3: the probe's Gibbs value underflows, a nan drift",
    "equilibrium regime=sublinear": "item 2: the 1%-of-peak rule, not a fitted rate",
    "equilibrium k_min=12": "item 2: the 1%-of-peak rule, not a fitted rate",
    "equilibrium k_max=4": "item 2: the 1%-of-peak rule, not a fitted rate",
    "equilibrium regime=ground dim=16": "item 2: the 1%-of-peak rule, not a fitted rate",
    "equilibrium regime=sublinear epsilon=6e-17":
        "item 2: 1 - epsilon rounds to within an ulp of 1",
    "equilibrium regime=superlinear epsilon=1.2e-16":
        "item 2: 1 + epsilon rounds to within an ulp of 1",
    "garding k_max=7": "item 5: garding linear fit reads a residual past 0.1",
    "garding k_max=4": "item 5: garding linear fit reads a residual past 0.1",
    "garding k_min=1": "item 5: garding linear fit reads a residual past 0.1",
    "scattering t_max=3": "item 16: overlap decay is absolute, not a rate",
    "fock-spectrum hbar=1e100": "item 17: dstein misses the ground vector's tiny components",
    "classify mass=1e-8": "item 17: the fit shells lie above the mass and see type I",
    "classify mass=1e-4": "item 17: the fit shells lie above the mass and see type I",
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=item))
     for argv, item in _FALSE_ALARMS.items()],
    ids=list(_FALSE_ALARMS),
)
def test_a_known_false_alarm_does_not_exit_1(tmp_path, argv):
    code, _, _ = _run(tmp_path, *argv.split())
    assert code != 1


def test_every_check_at_the_defaults_has_a_ledger_row(tmp_path):
    names = set()
    for command in cli._COMMANDS:
        _, _, js = _run(tmp_path, command)
        names.update(json.loads(js)["checks"])
    assert names - {check for _, _, check in _LEDGER.values()} == set(_UNLEDGERED)


def test_fock_spectrum_command_matches_closed_forms(tmp_path):
    code, _, js = _run(tmp_path, "fock-spectrum", "hbar=0.25", "cutoff=64")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["ground_energy"] == pytest.approx(-0.25, abs=1e-10)
    assert payload["summary"]["overlap_sq"] == pytest.approx(1.0, abs=1e-8)


def test_fock_spectrum_scales_its_eigenvalue_tolerances_with_hbar_omega(tmp_path):
    # H's diagonal steps by hbar omega = 1e9: the eigenvalues' rounding is
    # ~1e-15 of that, far above an absolute 1e-8
    code, _, js = _run(tmp_path, "fock-spectrum", "omega=1e10")
    assert code == 0
    checks = json.loads(js)["checks"]
    for name in ("ground energy", "spectral gap"):
        assert checks[name]["tol"] == pytest.approx(1e-8 * 1e9)
    assert all(c["value"] <= c["tol"] / 10 for c in checks.values())


@pytest.mark.parametrize(
    "overrides",
    [[], ["coupling_re=10", "hbar=0.2"], ["cutoff=2048"], ["omega=1e10"], ["omega=1e300"],
     ["omega=1e300", "hbar=1e8"], ["hbar=0.25", "cutoff=64"]],
    ids=["defaults", "coupling_re=10", "cutoff=2048", "omega=1e10", "omega=1e300",
         "omega=1e300-hbar=1e8", "hbar=0.25"],
)
def test_fock_spectrum_checks_stay_under_a_tenth_of_their_tolerance(
    tmp_path, monkeypatch, overrides
):
    # H is solved as H/(hbar omega), whose diagonal is k at every scale (H's
    # own reaches 2e300 at omega = 1e300); no full spectrum is solved
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", None)
    code, _, js = _run(tmp_path, "fock-spectrum", *overrides)
    assert code == 0
    checks = json.loads(js)["checks"]
    assert all(c["value"] <= c["tol"] / 10 for c in checks.values())


def test_fock_spectrum_refuses_an_overlap_above_one(tmp_path, capsys, monkeypatch):
    # only a wrong coherent vector gives |<W e_0, ground>|^2 > 1: scaled by 1.2
    # it reads 1.44, as far above 1 as 0.56 is below, and must fail the same way
    coherent = cli.fock._coherent_vector
    monkeypatch.setattr(cli.fock, "_coherent_vector", lambda *args: 1.2 * coherent(*args))
    code, _, js = _run(tmp_path, "fock-spectrum")
    assert code == 1
    payload = json.loads(js)
    assert payload["summary"]["overlap_sq"] == pytest.approx(1.44, abs=1e-8)
    assert payload["failures"] == ["coherent ground overlap"]
    assert capsys.readouterr().err == "invariant failed: coherent ground overlap\n"


def test_soft_photons_command_flags_divergence(tmp_path):
    code, _, js = _run(tmp_path, "soft-photons", "gamma=0.8")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["diverging"] is True
    assert payload["summary"]["increment_slope"] == pytest.approx(0.6, abs=0.05)


def test_garding_command_reports_the_bound(tmp_path):
    code, _, js = _run(tmp_path, "garding")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["bound_margin"] >= -1e-9
    assert payload["summary"]["symbol_min"] == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= payload["summary"]["vacuum_defect"] <= 1e-9


def test_config_file_feeds_a_command(tmp_path):
    cfg = tmp_path / "energy.cfg"
    cfg.write_text("gamma=0.3\npanels=8\npoints=16\nr_min=1e-4\n")
    out = tmp_path / "filed"
    code = main(["energy", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "# gamma=0.29999999999999999" in out.with_suffix(".csv").read_text()


def test_csv_header_records_the_full_configuration(tmp_path):
    _, csv, js = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    payload = json.loads(js)
    for key, value in payload["config"].items():
        assert f"# {key}=" in csv
    assert payload["config_hash"] in csv


@pytest.mark.parametrize("count", [0, 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
def test_the_columnar_writer_writes_the_bytes_of_per_cell_fmt(tmp_path, count):
    # an all-float column (with nan, +-inf and -0.0) takes format(v, ".17g"),
    # every other column _fmt: bools, ints past 2^53, numpy scalars and strings
    floats = [0.1, math.nan, math.inf, -math.inf, -0.0, 1e-300, 2.5e300]
    mixed = [True, 7, np.int64(-3), 2**53 + 1, 0.1, np.float64(1 / 3), math.nan, -0.0, "abc"]
    rows = [
        (floats[i % 7] if i % 3 else i / 7, mixed[i % 9], np.float64(i) / 3, i % 2 == 0,
         2**60 + i, f"s{i}")
        for i in range(count)
    ]
    cfg = {"dim": 3, "gamma": 0.3, "name": "x"}
    cli._write_outputs(str(tmp_path / "out"), cfg, cli.CommandResult(list("abcdef"), rows, {}))
    expected = "".join(f"# {k}={cli._fmt(cfg[k])}\n" for k in sorted(cfg))
    expected += f"# config_hash={config_hash(cfg)}\na,b,c,d,e,f\n"
    expected += "".join(",".join(cli._fmt(x) for x in row) + "\n" for row in rows)
    assert (tmp_path / "out.csv").read_text() == expected
