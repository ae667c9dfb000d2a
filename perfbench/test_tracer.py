"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py

Checks that tracing changes no output byte, that self times account for the
whole traced wall time, and that uninstalling restores every binding.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import vanhove  # noqa: E402
import vanhove.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        ["a.f", 0.0, 10.0, -1, 0],
        ["b.g", 1.0, 4.0, 0, 2],
        ["c.h", 2.0, 3.0, 1, 0],
        ["b.g", 5.0, 6.0, 0, 3],
        ["a.f", 20.0, 21.0, -1, 0],
    ]
    summary = tracer.summarize(spans)
    assert summary["a.f"] == pytest.approx([6.0 + 1.0, 2, 0])
    assert summary["b.g"] == pytest.approx([2.0 + 1.0, 2, 5])
    assert summary["c.h"] == pytest.approx([1.0, 1, 0])
    assert tracer.top_level_wall(spans) == pytest.approx(11.0)


def test_every_binding_is_wrapped_and_restored():
    original_main = vanhove.cli.main
    original_grid = vanhove.grid.make_grid
    original_char = vanhove.states.CharState.__dict__["char"]
    spans = tracer.Tracer(vanhove)
    spans.install()
    try:
        wrapped = vanhove.grid.make_grid
        assert wrapped is not original_grid
        assert vanhove.make_grid is wrapped
        assert vanhove.cli.make_grid is wrapped
        assert vanhove.cli.main is not original_main
        assert vanhove.states.CharState.__dict__["char"] is not original_char
    finally:
        spans.uninstall()
    assert vanhove.cli.main is original_main
    assert vanhove.make_grid is original_grid
    assert vanhove.cli.make_grid is original_grid
    assert vanhove.states.CharState.__dict__["char"] is original_char


# Quick CLI commands at their defaults, one or more per layer.
LIGHT_COMMANDS = (
    "classify",
    "energy",
    "evolve",
    "kms",
    "egorov",
    "equilibrium",
    "scattering",
    "fock-spectrum",
    "soft-photons",
)


def test_tracer_refuses_threaded_cli_loops(monkeypatch):
    original_main = vanhove.cli.main
    monkeypatch.setenv("VANHOVE_THREADS", "2")
    spans = tracer.Tracer(vanhove)
    with pytest.raises(RuntimeError, match="VANHOVE_THREADS"):
        spans.install()
    assert vanhove.cli.main is original_main


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    """An untraced then a traced pass over the light CLI commands and the
    fock API check (one op per layer family, all quick)."""
    system = vanhove.make_system(vanhove.power_law_gaussian(vanhove.make_grid(), 0.3))
    ops = [workloads.cli_op(cmd.replace("-", "_"), cmd) for cmd in LIGHT_COMMANDS]
    ops.append(workloads.multimode_op(vanhove, system))
    runner = worker.PassRunner(ops, tmp_path_factory.mktemp("scratch"))
    runner.run_pass()
    spans = tracer.Tracer(vanhove)
    spans.install()
    start = time.perf_counter()
    try:
        measured = runner.run_pass(wrap=spans.wrap)
    finally:
        spans.uninstall()
    outside = time.perf_counter() - start
    return runner, list(spans.spans), measured, outside


def test_tracing_leaves_outputs_byte_identical(traced_pass):
    runner, _, _, _ = traced_pass
    # every pass is compared byte for byte with the first, untraced one
    assert runner.attempted == 2 * len(runner.ops)
    assert runner.failed == 0, runner.failures


def test_self_times_add_up_to_the_traced_pass_wall(traced_pass):
    _, spans, measured, outside = traced_pass
    wall = tracer.top_level_wall(spans)
    total_self = sum(entry[0] for entry in tracer.summarize(spans).values())
    assert total_self == pytest.approx(wall, rel=1e-9)
    # the op spans sit inside the op timings, which sit inside the pass
    assert wall <= measured <= outside
    assert measured - wall <= 1e-3


def test_layer_metrics_attribute_the_pass_to_named_layers(traced_pass):
    _, spans, _, _ = traced_pass
    layer = worker.layer_metrics(spans)
    named = sum(layer[f"{name}.self_s"] for name in tracer.LAYERS)
    assert named == pytest.approx(layer["trace.attributed_share"] * layer["trace.pass_wall_s"])
    assert layer["trace.attributed_share"] >= 0.9
    assert layer["fock.ground_state_analysis.calls"] == 512 + 1
    # every light command but fock-spectrum builds one grid
    assert layer["grid.make_grid.calls"] == len(LIGHT_COMMANDS) - 1


def test_per_layer_table_matches_benchmark_json():
    import json

    import run

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == run.PER_LAYER_UNITS


def test_tail_is_the_median_until_resolved():
    import run

    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0
    samples = [float(i) for i in range(1, 31)]
    value, note = run.tail(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert note.startswith("p66.7 of 30 passes")
