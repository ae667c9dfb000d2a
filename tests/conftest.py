"""Shared fixtures: one standard grid and sourced system per session.

Grids are immutable and identity-compared, so session scope is safe and
keeps the suite fast; anything that needs a different resolution builds its
own grid locally.

Hypothesis runs under one profile, loaded here for every run: derandomized
(each test draws the same examples every time) and without an example
database, so no run stores examples.  Hypothesis still caches the constants
it collects from the source under ``.hypothesis/constants/`` in the working
directory (``.hypothesis/`` is in ``.gitignore``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from vanhove import (
    CharState,
    coherent,
    dirac,
    gibbs_classical,
    gibbs_quantum,
    make_grid,
    make_system,
    power_law_gaussian,
    sample,
)
from vanhove.grid import MomentumGrid, RadialFunction, from_values
from vanhove.semiclassics import default_panel

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grid() -> MomentumGrid:
    return make_grid()


@pytest.fixture(scope="session")
def system_g03(grid):
    """Dressed system with the regular source r^{-0.3} e^{-r^2}."""
    return make_system(power_law_gaussian(grid, 0.3))


@pytest.fixture(scope="session")
def f_gauss(grid) -> RadialFunction:
    return sample(grid, lambda r: np.exp(-(r**2)))


@pytest.fixture(scope="session")
def g_gauss(grid) -> RadialFunction:
    return sample(grid, lambda r: np.exp(-2.0 * r**2))


@pytest.fixture(scope="session")
def panel(grid) -> list[RadialFunction]:
    return default_panel(grid)


def random_member(grid: MomentumGrid, rng: np.random.Generator) -> RadialFunction:
    """Random complex combination of four Gaussians; infrared-regular."""
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vals = sum(
        c * np.exp(-s * grid.nodes**2) for c, s in zip(coeffs, (0.5, 1.0, 2.0, 4.0))
    )
    return from_values(grid, vals)


#: One state per constructor.
STATE_KINDS = ("coherent", "dirac", "gibbs_quantum", "gibbs_classical")


def every_state(center: RadialFunction, source) -> dict[str, CharState]:
    """The states of ``STATE_KINDS``, keyed by kind, at hbar = 0.4 where
    quantum and beta = 1.5 where thermal."""
    return {
        "coherent": coherent(center, 0.4),
        "dirac": dirac(center),
        "gibbs_quantum": gibbs_quantum(source, 1.5, 0.4),
        "gibbs_classical": gibbs_classical(source, 1.5),
    }
