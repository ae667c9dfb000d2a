"""The benchmark's workloads: the operations one pass runs, built from a seed.

A CLI op is one ``vanhove.cli.main`` call writing into a scratch directory;
an API op is one public-API check from the acceptance gate with the
invariant it states.  ``Op.call`` is the timed part.  ``Op.check`` runs
after it, untimed, and returns the names of failed invariants and the
output bytes that must repeat exactly from pass to pass.  Program functions
are looked up on their modules at call time, so a tracer that rebinds them
sees every call.

The seed drives the ``seed=`` key of every ``kms`` call and every random
panel or polynomial; workloads without either do not depend on it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("quasifree", "fock", "spectral")

GRAM_PANEL = 64
POLY_TERMS = 16
DUALITY_TIMES = 3
DUALITY_TOL = 1e-13
MULTIMODE_TOL = 1e-6


Check = tuple[list[str], bytes]


@dataclass
class Op:
    label: str
    call: Callable[[Path], object]
    check: Callable[[Path, object], Check]
    argv: tuple[str, ...] = ()  # the CLI arguments, empty for an API op

    @property
    def key(self) -> str:
        """What the recorded output digests are keyed by."""
        return " ".join(self.argv)

    def outputs(self, scratch: Path) -> dict[str, Path]:
        """The files a CLI op writes, keyed by suffix; none for an API op."""
        if not self.argv:
            return {}
        return {suffix: scratch / f"{self.label}.{suffix}" for suffix in ("csv", "json")}

    def digests(self, scratch: Path) -> dict[str, str]:
        """The sha256 of each output file, keyed by suffix."""
        return {
            suffix: hashlib.sha256(path.read_bytes()).hexdigest()
            for suffix, path in self.outputs(scratch).items()
        }


def cli_op(label: str, *argv: str) -> Op:
    def call(scratch: Path) -> tuple[int, str]:
        cli = importlib.import_module("vanhove.cli")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "--out", str(scratch / label), *argv[1:]])
        return code, err.getvalue()

    def check(scratch: Path, result: tuple[int, str]) -> Check:
        code, err = result
        if code != 0:
            return [f"exit {code}: " + err.strip().replace("\n", "; ")], b""
        files = op.outputs(scratch)
        table, summary = files["csv"].read_bytes(), files["json"].read_bytes()
        return list(json.loads(summary)["failures"]), table + summary

    op = Op(label, call, check, tuple(argv))
    return op


def _random_member(vh, grid, rng: np.random.Generator, scale: float):
    """Random complex combination of four Gaussians, infrared-regular."""
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vals = sum(c * np.exp(-s * grid.nodes**2) for c, s in zip(coeffs, (0.5, 1.0, 2.0, 4.0)))
    return vh.from_values(grid, scale * vals)


def gram_op(vh, system, rng: np.random.Generator) -> Op:
    """Bochner Gram matrix of a 64-function panel on the thermal state."""
    panel = [_random_member(vh, system.grid, rng, 1.0) for _ in range(GRAM_PANEL)]

    def call(scratch: Path):
        return vh.bochner_gram(vh.gibbs_quantum(system.source, 2.0, 0.5), panel)

    def check(scratch: Path, report) -> Check:
        failures = [] if report.is_psd else ["gram positive semidefinite"]
        return failures, repr((report.min_eigenvalue, report.hermitian_defect)).encode()

    return Op("bochner_gram", call, check)


def duality_op(vh, system, rng: np.random.Generator) -> Op:
    """Heisenberg against Schroedinger evolution of a 256-term product."""
    grid, hbar = system.grid, 0.5
    factors = []
    for _ in range(2):
        funcs = [_random_member(vh, grid, rng, 0.3) for _ in range(POLY_TERMS)]
        coeffs = (rng.standard_normal(POLY_TERMS) + 1j * rng.standard_normal(POLY_TERMS)) / 4
        factors.append(list(zip(funcs, coeffs)))
    center = _random_member(vh, grid, rng, 0.5)
    times = rng.uniform(-50.0, 50.0, DUALITY_TIMES)

    def call(scratch: Path):
        w = vh.weyl
        a, b = (
            functools.reduce(w.add, (w.weyl(f, hbar, c) for f, c in terms))
            for terms in factors
        )
        product = w.compose(a, b)
        state = vh.coherent(center, hbar)
        pairs = [
            (
                vh.evaluate(state, vh.evolve_weyl(system, product, t)),
                vh.evaluate(vh.evolve_state(system, state, t), product),
            )
            for t in times
        ]
        return len(product.terms), pairs

    def check(scratch: Path, result) -> Check:
        terms, pairs = result
        worst = max(abs(h - s) / max(1.0, abs(h)) for h, s in pairs)
        failures = [] if worst <= DUALITY_TOL else [f"duality deviation {worst:.3e}"]
        return failures, repr(result).encode()

    return Op("weyl_duality", call, check)


def multimode_op(vh, system) -> Op:
    """Summed single-mode matrix ground energies against -||J||_{-1}^2."""

    def call(scratch: Path):
        return vh.fock.multimode_ground_scan(system, 0.1)

    def check(scratch: Path, report) -> Check:
        gap = abs(report.energy_matrix_sum - report.energy_closed_form)
        failures = []
        if gap > MULTIMODE_TOL * abs(report.energy_closed_form):
            failures.append(f"multimode energy gap {gap:.3e}")
        if report.overlap_sq_product < 1.0 - MULTIMODE_TOL:
            failures.append("multimode coherent fidelity")
        return failures, repr((report.energy_matrix_sum, report.overlap_sq_product)).encode()

    return Op("multimode_ground_scan", call, check)


def build(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload``, with inputs drawn from ``seed``."""
    vh = importlib.import_module("vanhove")
    importlib.import_module("vanhove.fock")
    system = vh.make_system(vh.power_law_gaussian(vh.make_grid(), 0.3))
    if workload == "quasifree":
        return [
            cli_op("kms", "kms", "pairs=400", "t_points=201", f"seed={seed}"),
            cli_op("evolve", "evolve", "steps=2001", "t_max=1000"),
            cli_op("egorov", "egorov"),
            cli_op("equilibrium", "equilibrium"),
            gram_op(vh, system, np.random.default_rng([seed, 1])),
            duality_op(vh, system, np.random.default_rng([seed, 2])),
        ]
    if workload == "fock":
        return [
            cli_op("garding", "garding"),
            cli_op("fock_spectrum", "fock-spectrum"),
            cli_op("soft_photons", "soft-photons"),
            multimode_op(vh, system),
        ]
    if workload == "spectral":
        return [
            cli_op("groundstate", "groundstate"),
            cli_op("scattering", "scattering", "t_max=1e5", "t_points=30"),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
