"""One benchmark child: runs passes of one workload on request.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --scratch DIR

The child builds the workload's inputs and runs one warm-up pass, whose
outputs are the reference every later pass must reproduce byte for byte,
then prints ``{"ready": true}``.  Each line it then reads from standard
input is a number of seconds: it runs passes for that long (at least one)
and prints one JSON line with their times.  At end of input it prints its
final record (op counts, failures, peak memory, run environment) and exits.
So the caller can alternate turns between children and each one's samples
span the whole run.

Each op is timed from outside with ``time.perf_counter``; a pass time is the
sum of its op times.  With ``--trace 1`` every untraced pass is followed by
a traced one, which yields the per-layer figures.  The program must be
importable as ``vanhove`` (the caller puts the checkout's ``src`` first on
``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
MAX_FAILURE_MESSAGES = 20

# Per-layer figures taken from the traced spans: (metric, span name, field),
# field 0 = self seconds, 1 = calls, 2 = summed work.
SPAN_METRICS = (
    ("dynamics.kms_check.self_s", "dynamics.kms_check", 0),
    ("dynamics.kms_check.calls", "dynamics.kms_check", 1),
    ("states.char.calls", "states.char", 1),
    ("weyl.compose.self_s", "weyl.compose", 0),
    ("weyl.handle.calls", "weyl.handle", 1),
    ("dynamics.evolve_weyl.self_s", "dynamics.evolve_weyl", 0),
    ("states.gram_matrix.self_s", "states.gram_matrix", 0),
    ("grid.apply_free_phase.calls", "grid.apply_free_phase", 1),
    ("grid.inner_product.calls", "grid.inner_product", 1),
    ("fock.weyl_matrix.self_s", "fock.weyl_matrix", 0),
    ("fock.weyl_matrix.calls", "fock.weyl_matrix", 1),
    ("fock.weyl_matrix.dim3_sum", "fock.weyl_matrix", 2),
    ("fock.ground_state_analysis.calls", "fock.ground_state_analysis", 1),
    ("fock.mode_number_expectation.calls", "fock.mode_number_expectation", 1),
    ("dynamics.window_transform.self_s", "dynamics.window_transform", 0),
    ("dynamics.window_transform.points", "dynamics.window_transform", 2),
    ("dynamics.ground_state_check.self_s", "dynamics.ground_state_check", 0),
    ("scattering.free_overlap.self_s", "scattering.free_overlap", 0),
    ("scattering.free_overlap.t_points", "scattering.free_overlap", 2),
    ("grid.make_grid.calls", "grid.make_grid", 1),
    ("sources.realize.calls", "sources.realize", 1),
)


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    found: dict[str, int] = {}
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _blas_vendor(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas.get('version', '')}".strip()


def environment() -> dict:
    import scipy

    return {
        "blas_threads_requested": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "blas_threads_effective": blas_threads(),
        "vanhove_threads": os.environ.get("VANHOVE_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_vendor(np), "scipy": _blas_vendor(scipy)},
    }


class PassRunner:
    """Runs the ops of one workload and checks every result."""

    def __init__(self, ops: list[workloads.Op], scratch: Path):
        self.ops = ops
        self.scratch = scratch
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, wrap=None) -> float:
        """One pass; returns its time.  ``wrap`` turns each op's call into
        a traced top-level span."""
        times = []
        for op in self.ops:
            call = wrap(f"op.{op.label}", op.call) if wrap else op.call
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = call(self.scratch)
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            times.append(time.perf_counter() - start)
            names = self._check(op, result)
            if names:
                self.failed += 1
                self.failures.extend(f"{op.label}: {name}" for name in names)
        return sum(times)

    def _check(self, op: workloads.Op, result) -> list[str]:
        """Names of the failed checks of one op's result."""
        if isinstance(result, Exception):
            return [f"raised {type(result).__name__}: {result}"]
        try:
            names, output = op.check(self.scratch, result)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if output != self.reference.setdefault(op.label, output):
            names = [*names, "output bytes differ from the first pass"]
        return names


def digest_changes(ops: list[workloads.Op], scratch: Path) -> tuple[int, int]:
    """(changed, checked) CSV/JSON files against the recorded digests."""
    recorded = json.loads((HERE / "digests.json").read_text())
    changed = checked = 0
    for op in ops:
        expected = recorded.get(op.key)
        if expected is None:
            continue
        for suffix, digest in op.digests(scratch).items():
            checked += 1
            changed += digest != expected[suffix]
    return changed, checked


def output_bytes(ops: list[workloads.Op], scratch: Path) -> int:
    return sum(path.stat().st_size for op in ops for path in op.outputs(scratch).values())


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    summary = tracer.summarize(spans)
    wall = tracer.top_level_wall(spans)
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    unattributed = 0.0
    for name, (self_s, _, _) in summary.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
        else:
            unattributed += self_s
    out = {f"{layer}.self_s": value for layer, value in layer_self.items()}
    for metric, name, field in SPAN_METRICS:
        out[metric] = summary.get(name, (0.0, 0, 0))[field]
    out["trace.attributed_share"] = 1.0 - unattributed / wall
    out["trace.pass_wall_s"] = wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    import vanhove

    ops = workloads.build(args.workload, args.seed)
    runner = PassRunner(ops, args.scratch)
    spans = tracer.Tracer(vanhove) if args.trace else None
    runner.run_pass()  # warm-up; its outputs are the reference
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        budget = float(line)
        reply: dict = {"passes": [], "layers": []}
        start = time.perf_counter()
        while not reply["passes"] or time.perf_counter() - start < budget:
            reply["passes"].append(runner.run_pass())
            if spans:
                spans.install()
                try:
                    runner.run_pass(wrap=spans.wrap)
                finally:
                    spans.uninstall()
                reply["layers"].append(layer_metrics(spans.spans))
                spans.reset()
        print(json.dumps(reply), flush=True)

    record: dict = {}
    if spans:
        record["digest_changes"], record["digests_checked"] = digest_changes(ops, args.scratch)
        record["output_bytes"] = output_bytes(ops, args.scratch)
    record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures[:MAX_FAILURE_MESSAGES],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env=environment(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
