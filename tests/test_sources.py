"""Sources: realization, analytic trichotomy, numeric slope agreement."""

from __future__ import annotations

import numpy as np
import pytest

from vanhove import (
    InfraredClass,
    SourceSpec,
    classify_analytic,
    make_grid,
    power_law_gaussian,
    realize,
)
from vanhove.sources import numeric_classification

# d = 3 thresholds: regular below 0.5, type I in [0.5, 1), type II in
# [1, 1.5), out of scope at or above 1.5.
_EXPECTED = {
    0.0: InfraredClass.REGULAR,
    0.3: InfraredClass.REGULAR,
    0.49: InfraredClass.REGULAR,
    0.5: InfraredClass.TYPE_I,
    0.51: InfraredClass.TYPE_I,
    0.8: InfraredClass.TYPE_I,
    0.99: InfraredClass.TYPE_I,
    1.0: InfraredClass.TYPE_II,
    1.01: InfraredClass.TYPE_II,
    1.2: InfraredClass.TYPE_II,
    1.49: InfraredClass.TYPE_II,
    1.5: InfraredClass.OUT_OF_SCOPE,
    1.6: InfraredClass.OUT_OF_SCOPE,
}


@pytest.mark.parametrize("gamma,expected", sorted(_EXPECTED.items()))
def test_analytic_trichotomy_thresholds(grid, gamma, expected):
    assert classify_analytic(power_law_gaussian(grid, gamma)) is expected


@pytest.mark.parametrize(
    "gamma", [0.3, 0.49, 0.51, 0.8, 0.99, 1.01, 1.2, 1.49]
)
def test_numeric_classification_agrees_with_analytic(grid, gamma):
    spec = power_law_gaussian(grid, gamma)
    assert numeric_classification(spec).infrared_class is classify_analytic(spec)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 1.2])
def test_shell_slopes_match_the_power_counting(grid, gamma):
    # The infrared mass with weight omega^{-alpha} grows like eps^{-(alpha
    # + 2 gamma - 3)} as the cutoff eps shrinks (d = 3).
    report = numeric_classification(power_law_gaussian(grid, gamma))
    for alpha in (0, 1, 2):
        expected = alpha + 2.0 * gamma - 3.0
        assert report.divergence_slopes[alpha] == pytest.approx(
            expected, abs=2e-3
        ), f"alpha={alpha}"


def test_infrared_cutoff_masks_below_one_over_n(grid):
    spec = power_law_gaussian(grid, 0.8, ir_cutoff=4)
    j = realize(spec)
    below = grid.nodes < 0.25
    assert np.all(j.values[below] == 0.0)
    assert np.all(j.values[~below] != 0.0)


def test_cutoff_source_classifies_as_regular(grid):
    spec = power_law_gaussian(grid, 1.2, ir_cutoff=8)
    assert classify_analytic(spec) is InfraredClass.REGULAR
    assert numeric_classification(spec).infrared_class is InfraredClass.REGULAR


def test_massive_dispersion_collapses_the_trichotomy():
    g = make_grid(mass=1.0)
    with pytest.warns(UserWarning, match="massive dispersion"):
        got = classify_analytic(power_law_gaussian(g, 0.8))
    assert got is InfraredClass.REGULAR


def test_out_of_scope_source_has_no_realization(grid):
    with pytest.raises(ValueError, match="not.*square-integrable"):
        realize(power_law_gaussian(grid, 1.6))
    # but a cutoff restores square-integrability
    realize(power_law_gaussian(grid, 1.6, ir_cutoff=4))


def test_spec_validation():
    g = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="ir_cutoff"):
        power_law_gaussian(g, 0.3, ir_cutoff=0)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_spec_refuses_a_non_finite_gamma(gamma):
    # every threshold comparison is False at nan, so classify_analytic would
    # call such a source regular; the spec refuses it by name instead
    g = make_grid(panels=4, points=8)
    with pytest.raises(ValueError, match="gamma must be finite"):
        power_law_gaussian(g, gamma)
    with pytest.raises(ValueError, match="gamma must be finite"):
        SourceSpec(g, gamma, ir_cutoff=4)


def test_slope_fit_needs_enough_infrared_shells():
    shallow = make_grid(r_min=0.5, r_max=12.0, panels=6, points=8)
    with pytest.raises(ValueError, match="too few infrared shells"):
        numeric_classification(power_law_gaussian(shallow, 0.3))
