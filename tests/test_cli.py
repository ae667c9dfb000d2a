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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vanhove import cli, gibbs_quantum, kms_check
from vanhove.cli import ConfigError, config_hash, main, resolve_config, splitmix64

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
    "egorov": [*_SMALL, "k_min=3", "k_max=6"],
    "equilibrium": [*_SMALL, "k_min=3", "k_max=6"],
    "scattering": ["panels=8", "r_min=1e-4", "k_min=3", "k_max=6", "t_points=5"],
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


def test_splitmix64_is_deterministic_and_spread():
    a = splitmix64(12345, 8)
    b = splitmix64(12345, 8)
    assert a == b
    assert len(set(a)) == 8
    assert splitmix64(12346, 8) != a
    assert all(0 <= x < 2**64 for x in a)


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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--out", str(out), *_CHEAP[command], f"{key}={value}"])
        written = out.with_suffix(".json")
        payload = json.loads(written.read_text()) if written.exists() else None
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("configuration error: ")
        assert payload is None
    if code == 1:
        assert re.search(r"^invariant failed: \S", err.getvalue(), re.MULTILINE)
    if code == 0:
        assert all(math.isfinite(c["value"]) for c in payload["checks"].values())


def test_outputs_are_byte_identical_across_runs(tmp_path):
    _, csv1, js1 = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    _, csv2, js2 = _run(tmp_path, "energy", "gamma=0.3", *_SMALL)
    assert csv1 == csv2
    assert js1 == js2


def test_kms_batch_rows_equal_one_pair_calls(tmp_path):
    """The kms command checks all its pairs in one batched kms_check; each
    batched row is bitwise equal to a one-pair call, and the command writes
    the row maxima."""
    overrides = ["pairs=6", "t_points=9", "seed=11", *_SMALL]
    code, csv, _ = _run(tmp_path, "kms", *overrides)
    assert code == 0
    cfg = resolve_config(cli._defaults("kms"), None, overrides)
    sys_ = cli._system_from(cfg)
    state = gibbs_quantum(sys_.source, cfg["beta_h"], cfg["hbar"])
    ts = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_points"])
    member = cli._random_panel_member
    pairs = [
        (member(sys_.grid, rng), member(sys_.grid, rng))  # f drawn before g
        for rng in map(np.random.default_rng, splitmix64(cfg["seed"], cfg["pairs"]))
    ]
    batch = kms_check(sys_, state, cfg["beta_h"], pairs, ts)
    assert batch.residuals.shape == (6, 9) and batch.defects.shape == (6,)
    written = [float(line.split(",")[1]) for line in csv.splitlines()[-6:]]
    for row, defect, pair, max_written in zip(batch.residuals, batch.defects, pairs, written):
        one = kms_check(sys_, state, cfg["beta_h"], [pair], ts)
        assert row.tobytes() == one.residuals[0].tobytes()
        assert defect == one.defects[0]
        assert max_written == one.residuals[0].max()
    with pytest.raises(ValueError, match="one time"):
        kms_check(sys_, state, cfg["beta_h"], [], ts)
    with pytest.raises(ValueError, match="one time"):
        kms_check(sys_, state, cfg["beta_h"], pairs, [])


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
        ("scattering", "hbar=-1"),
        ("equilibrium", "beta=0"),
        ("scattering", "t_min=5 t_max=1"),
        ("kms", "t_min=nan"),
        ("soft-photons", "hbar=0"),
        ("soft-photons", "n_min_log2=5 n_max_log2=3"),
        ("garding", "k_min=8 k_max=3"),
        ("fock-spectrum", "coupling_re=nan"),
        ("scattering", "hbar=nan"),
        ("scattering", "hbar=inf"),
        ("evolve", "hbar=inf"),
        ("egorov", "k_min=5 k_max=5"),
        ("equilibrium", "k_min=5 k_max=5"),
        ("scattering", "k_min=5 k_max=5"),
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
        ("evolve", "perturbation=nan"),
        ("egorov", "center_scale=inf"),
        ("equilibrium", "regime=sublinear epsilon=2"),
        ("scattering", "points=16"),
        ("garding", "k_min=0"),
        ("fock-spectrum", "cutoff=5"),
        # size ceilings: these would allocate gigabytes
        ("fock-spectrum", "coupling_re=30"),
        ("fock-spectrum", "coupling_im=1e300"),
        ("fock-spectrum", "omega=1e-300"),
        ("garding", "k_max=13"),
        ("groundstate", "s_plus=100"),
        ("groundstate", "s_plus=1000"),
        # grid measures that overflow to inf (nan photon numbers, nan windows)
        ("soft-photons", "r_max=1e300"),
        ("groundstate", "r_max=1e300"),
        # omega = hypot(r, mass) flat on the first panels: no Filon fit exists
        ("scattering", "mass=1000"),
        ("scattering", "mass=1e300"),
        # count ceilings: rows, grid nodes and (time x node) or (pair x time) tables
        ("evolve", "steps=10000000000000"),
        ("evolve", "steps=131073"),
        ("kms", "pairs=10000000000000"),
        ("kms", "t_points=10000000000000"),
        ("kms", "t_points=4097"),
        ("kms", "pairs=20000 t_points=201"),
        ("scattering", "t_points=10000000000000"),
        ("scattering", "t_points=4097"),
        ("energy", "panels=10000000000000"),
        ("classify", "points=10000000000000"),
        ("energy", "panels=4096 points=17"),
    ],
)
def test_bad_kms_and_evolve_parameters_exit_2_before_compute(
    tmp_path, capsys, monkeypatch, command, override
):
    def computed(*args, **kwargs):
        pytest.fail("computed before validating")

    monkeypatch.setattr(cli, "_system_from", computed)
    monkeypatch.setattr(cli.fock, "adequate_cutoff", computed)
    monkeypatch.setattr(cli.fock, "FockMode", computed)
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
    # relative residuals at the rounding level); their bytes must not move with
    # the thread count
    runs = {
        "neg": ["groundstate", *_SMALL],
        "pos": ["groundstate", *_SMALL, "s_minus=1", "s_plus=3"],
        **{command: [command, *_CHEAP[command]]
           for command in ("egorov", "equilibrium", "scattering", "kms")},
        # 200 steps span four phase table chunks on the small grid
        "evolve": ["evolve", *_SMALL, "steps=200"],
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
        ("energy", ["panels=2048", "points=32"]),
    ]:
        cfg = resolve_config(cli._defaults(command), None, overrides)
        _, keys, cross = cli._COMMANDS[command]
        cli._validate(cfg, keys, cross)


def test_groundstate_flags_a_window_value_that_is_not_finite(tmp_path, capsys):
    # hbar = 1000: the Gaussian factor underflows to 0 and exp(pi^2 hbar s)
    # overflows, so the window integral is 0 * inf
    code, _, js = _run(tmp_path, "groundstate", *_SMALL, "hbar=1000", "s_minus=1", "s_plus=3")
    assert code == 1
    payload = json.loads(js)
    assert math.isnan(payload["summary"]["window_value"])
    assert payload["failures"] == ["window value finite"]
    assert "invariant failed: window value finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("hbar", ["1", "100"])
def test_evolve_refuses_a_probe_too_small_to_show_a_drift(tmp_path, capsys, hbar):
    # the probe's Gibbs value is 9.6e-15 at hbar = 1 and 0.0 at hbar = 100,
    # under the 1e-13 drift tolerance, so invariance alone would pass vacuously
    code, _, js = _run(tmp_path, "evolve", *_CHEAP["evolve"], f"hbar={hbar}")
    assert code == 1
    payload = json.loads(js)
    assert payload["failures"] == ["equilibrium probe resolution"]
    check = payload["checks"]["equilibrium probe resolution"]
    assert check["value"] == 1e-13 and check["tol"] < 1e-13
    assert "invariant failed: equilibrium probe resolution" in capsys.readouterr().err


def _corrupt_the_gibbs_covariance(monkeypatch):
    # the covariance m_0 coth is formed in states; kms_check reads it back
    coth = cli.states.stable_coth
    monkeypatch.setattr(cli.states, "stable_coth", lambda x: coth(x) * (1.0 + 1e-8))


def test_kms_residual_sees_a_corrupted_coth_at_the_defaults(tmp_path, monkeypatch):
    # the characteristic values are ~1e-89 at the defaults: a residual taken as
    # a difference of values reads ~1e-35 whatever the coth, a relative one not
    _corrupt_the_gibbs_covariance(monkeypatch)
    code, _, js = _run(tmp_path, "kms")
    assert code == 1
    payload = json.loads(js)
    assert payload["failures"] == ["kms cross terms", "kms residual"]
    assert payload["summary"]["max_residual"] > 1e-10


@pytest.mark.parametrize("hbar", ["1e-8", "1e-300"])
def test_kms_cross_terms_see_a_corrupted_coth_as_hbar_vanishes(tmp_path, monkeypatch, hbar):
    # the residual's exponent carries hbar (7.1e-14 at hbar = 1e-8, 7.1e-306 at
    # 1e-300, both under 1e-10); the cross-term defect reads the 1e-8 at any hbar
    _corrupt_the_gibbs_covariance(monkeypatch)
    code, _, js = _run(tmp_path, "kms", f"hbar={hbar}")
    assert code == 1
    payload = json.loads(js)
    assert payload["failures"] == ["kms cross terms"]
    assert payload["checks"]["kms cross terms"]["value"] == pytest.approx(1e-8, rel=0.1)


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
def test_kms_refuses_values_that_underflow(tmp_path, capsys):
    # hbar = 1e300: every characteristic value underflows to 0 on both sides;
    # there and at beta_h = 1e-300 the residual's exponent overflows, and the
    # inf/nan residual fails by name without a numpy warning
    for extreme in ("hbar=1e300", "beta_h=1e-300"):
        code, _, js = _run(tmp_path, "kms", *_CHEAP["kms"], extreme)
        assert code == 1
        assert json.loads(js)["failures"] == ["kms residual"]
        assert capsys.readouterr().err == "invariant failed: kms residual\n"


def test_scattering_refuses_a_panel_too_small_to_show_a_round_trip(tmp_path, capsys):
    # hbar = 1e300: every panel value underflows, so round_trip reads 0
    code, _, js = _run(tmp_path, "scattering", *_CHEAP["scattering"], "hbar=1e300")
    assert code == 1
    payload = json.loads(js)
    assert payload["summary"]["round_trip"] == 0.0
    assert payload["failures"] == ["transport round trip resolution"]
    check = payload["checks"]["transport round trip resolution"]
    assert check["tol"] == 0.0 and check["value"] > 0.0
    assert "invariant failed: transport round trip resolution" in capsys.readouterr().err


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


def test_equilibrium_command_linear_regime(tmp_path):
    code, _, js = _run(
        tmp_path, "equilibrium", "regime=linear", "k_max=10", *_SMALL
    )
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["fitted_order"] == pytest.approx(2.0, abs=0.1)


def test_egorov_command_converges(tmp_path):
    # the full default ladder: convergence needs devs[-1] well under the peak
    code, _, js = _run(tmp_path, "egorov", *_SMALL)
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["verdict"] == "converged"
    assert payload["summary"]["fitted_order"] == pytest.approx(1.0, abs=0.05)


def test_scattering_command_reports_the_round_trip(tmp_path):
    # keep the default points=32: the long-time overlap rule needs deep nodes
    code, _, js = _run(
        tmp_path, "scattering", "k_max=10", "t_points=5", "panels=8", "r_min=1e-4"
    )
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["round_trip"] <= 1e-15
    assert payload["summary"]["transport_mismatch"] <= 1e-15
    assert payload["summary"]["final_overlap"] < 1e-2


def test_scattering_command_accepts_the_classical_limit(tmp_path):
    code, _, js = _run(tmp_path, "scattering", "hbar=0")
    assert code == 0
    assert json.loads(js)["summary"]["round_trip"] <= 1e-15


def test_classical_round_trip_is_held_to_its_round_off_bound(tmp_path):
    # on this grid the modulus-1 values round off to ~1.4e-15
    code, _, js = _run(
        tmp_path, "scattering", "hbar=0", "k_max=10", "t_points=5", "panels=8", "r_min=1e-4"
    )
    assert code == 0
    check = json.loads(js)["checks"]["transport round trip"]
    assert 1e-15 < check["value"] <= check["tol"] < 1e-13


def test_fock_spectrum_command_matches_closed_forms(tmp_path):
    code, _, js = _run(tmp_path, "fock-spectrum", "hbar=0.25", "cutoff=64")
    assert code == 0
    payload = json.loads(js)
    assert payload["summary"]["ground_energy"] == pytest.approx(-0.25, abs=1e-10)
    assert payload["summary"]["overlap_sq"] == pytest.approx(1.0, abs=1e-8)


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
