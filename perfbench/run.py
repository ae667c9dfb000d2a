"""Benchmark of the vanhove workbench: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src``.
Every measurement runs in a fresh child process and every CLI output goes to
a scratch directory under ``.bench_build``, which is removed at the end.

``--trace 0`` measures the end-to-end figures: the median time of several
fresh processes that import the package and build the standard system
(``setup_s``), then one child at the machine's default BLAS threads
(``wall_s``, ``wall_tail_s``, ``peak_rss_mb``) and one child pinned to one
BLAS thread (``wall_1t_s``).  ``--trace 1`` runs one default-thread child
whose passes alternate untraced and traced, and reports the per-layer
figures of the traced ones.  See ``perfbench/README.md`` for the workloads
and what each figure should move.

Every op of every pass is checked (exit code, named invariant failures,
exceptions, output bytes repeated across passes); the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

import tracer  # noqa: E402  (after the bytecode cache is redirected)
from worker import SPAN_METRICS  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_GROUP = 3
SETUP_CODE = (
    "from vanhove import make_grid, make_system, power_law_gaussian\n"
    "make_system(power_law_gaussian(make_grid(), 0.3))\n"
)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Children take turns of at least this long, so that the samples of each
# span the whole run: the speed of a shared machine drifts over seconds.
TURN_S = 1.0
MIN_PASSES = 3
TAIL_BEYOND = 10
CHILD_GRACE_S = 120.0  # start-up, warm-up pass, and a pass that overruns its turn

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    **{metric: "s" if field == 0 else "count" for metric, _, field in SPAN_METRICS},
    "cli.output_bytes": "bytes",
    "cli.output_digest_changes": "count",
    "trace.overhead_s": "s",
    "trace.attributed_share": "ratio",
}


class BenchError(Exception):
    pass


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of every child: the checkout's program first on the
    path and bytecode cached under ``.bench_build``, so imports are warm and
    the source tree is not written.  ``VANHOVE_THREADS`` is dropped: it
    would thread the CLI's loops, which times another code path and breaks
    the tracer's single span stack."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("VANHOVE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.update(extra or {})
    return env


def setup_times(count: int) -> tuple[list[float], int]:
    """Wall times of ``count`` fresh processes that import the package and
    build the standard system, and how many of them failed."""
    times, failed = [], 0
    for _ in range(count):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                env=child_env(), cwd=ROOT, capture_output=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            failed += 1
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode == 0:
            times.append(elapsed)
        else:
            failed += 1
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    return times, failed


class Worker:
    """One child process of ``worker.py``, driven a turn at a time."""

    def __init__(self, args, trace: int, scratch: Path, env: dict[str, str]):
        scratch.mkdir()
        self.stderr = open(scratch / "stderr.txt", "w+")
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--trace={trace}",
            f"--scratch={scratch}",
        ]
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True,
        )
        self.passes: list[float] = []
        self.layers: list[dict] = []
        self.errors = ""

    def _reply(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            errors = self.stop()
            raise BenchError(
                f"worker gave no reply within {timeout:.0f} s "
                f"(exit {self.proc.returncode}):\n{errors}"
            )
        return json.loads(line)

    def ready(self) -> None:
        self._reply(CHILD_GRACE_S)

    def turn(self, seconds: float) -> None:
        try:
            self.proc.stdin.write(f"{seconds}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the child is gone; reading its reply reports why
        reply = self._reply(seconds + CHILD_GRACE_S)
        self.passes += reply["passes"]
        self.layers += reply["layers"]

    def finish(self) -> dict:
        self.proc.stdin.close()
        record = self._reply(CHILD_GRACE_S)
        self.proc.wait(timeout=CHILD_GRACE_S)
        return record

    def stop(self) -> str:
        """Kill the child if it still runs; return the tail of its stderr."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.stderr.closed:
            self.stderr.seek(0)
            self.errors = self.stderr.read()[-4000:]
            self.stderr.close()
        return self.errors


def take_turns(workers: list[Worker], seconds: float, halfway=None) -> None:
    """Alternate turns until ``seconds`` are spent and every worker has
    MIN_PASSES passes; call ``halfway`` once when half the time is spent."""
    spent = 0.0
    while spent < seconds or min(len(w.passes) for w in workers) < MIN_PASSES:
        for worker in workers:
            start = time.perf_counter()
            worker.turn(TURN_S)
            spent += time.perf_counter() - start
        if halfway and spent >= seconds / 2:
            halfway()
            halfway = None


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, but not
    below the median (with fewer than 2 * TAIL_BEYOND + 1 samples the tail
    is unresolved and the median is reported)."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n <= 2 * TAIL_BEYOND:
        return median, f"median of {n} passes: tail unresolved below {2 * TAIL_BEYOND + 1}"
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], f"p{100 * (rank + 1) / n:.1f} of {n} passes, {TAIL_BEYOND} beyond"


def end_to_end(args, workers: list[Worker]) -> tuple[dict, list[dict]]:
    """Set-up samples are taken in three groups, before, halfway through and
    after the passes, so that they see the same machine phases as the
    passes do; one untimed set-up first fills the bytecode cache."""
    setup, setup_failed = [], 0

    def sample_setup() -> None:
        nonlocal setup_failed
        times, failed = setup_times(SETUP_PER_GROUP)
        setup.extend(times)
        setup_failed += failed

    default, single = workers
    for worker in workers:
        worker.ready()
    setup_failed += setup_times(1)[1]
    sample_setup()
    take_turns(workers, args.seconds, halfway=sample_setup)
    sample_setup()
    if not setup:
        raise BenchError("no set-up process succeeded")
    tail_s, tail_note = tail(default.passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (statistics.median(default.passes), "s", f"median of {len(default.passes)} passes"),
        "wall_tail_s": (tail_s, "s", tail_note),
        "wall_1t_s": (
            statistics.median(single.passes), "s",
            f"median of {len(single.passes)} passes at 1 BLAS thread",
        ),
    }
    records = [worker.finish() for worker in workers]
    metrics["peak_rss_mb"] = (
        records[0]["maxrss_kb"] / 1024.0, "MB", "ru_maxrss of the default-thread child"
    )
    records.append({"attempted": 3 * SETUP_PER_GROUP + 1, "failed": setup_failed, "failures": []})
    return metrics, records


def per_layer(args, workers: list[Worker]) -> tuple[dict, list[dict]]:
    (worker,) = workers
    worker.ready()
    take_turns(workers, args.seconds)
    record = worker.finish()
    layers = worker.layers
    # median_low reports a value some pass had, so counts stay whole
    metrics = {
        name: (statistics.median_low(pass_[name] for pass_ in layers), unit, "")
        for name, unit in PER_LAYER_UNITS.items()
        if name in layers[0]
    }
    traced = statistics.median(pass_["trace.pass_wall_s"] for pass_ in layers)
    untraced = statistics.median(worker.passes)
    metrics["trace.overhead_s"] = (
        traced - untraced, "s", f"traced {traced:.4f} s - untraced {untraced:.4f} s"
    )
    metrics["cli.output_bytes"] = (record["output_bytes"], "bytes", "")
    metrics["cli.output_digest_changes"] = (
        record["digest_changes"], "count",
        f"of {record['digests_checked']} files with recorded digests",
    )
    return metrics, [record]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that the children are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "vanhove" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'vanhove'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    BUILD.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as tmp:
            scratch = Path(tmp)
            if args.trace:
                workers = [Worker(args, 1, scratch / "traced", child_env())]
            else:
                workers = [
                    Worker(args, 0, scratch / "default", child_env()),
                    Worker(args, 0, scratch / "single", child_env(SINGLE_THREAD)),
                ]
            try:
                measure = per_layer if args.trace else end_to_end
                metrics, records = measure(args, workers)
            finally:
                for worker in workers:
                    worker.stop()
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    for record in records:
        if "env" in record:
            print("env " + json.dumps(record["env"], sort_keys=True))
        for message in record["failures"]:
            print(f"  FAILED {message}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<38} {value:<14.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<38} {failed / attempted:<14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} attempted")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
