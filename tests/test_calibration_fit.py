"""The delay-model fits: a pure-Python NNLS pinned to SciPy's answers.

``repro.delay.calibration.fit_nonnegative`` solves three 3x3 rename
fits and three 5x6 wakeup fits.  The coefficients below were recorded
from ``scipy.optimize.nnls`` (SciPy 1.17.1) on the same weighted
problems; the pure-Python Lawson--Hanson solver must reproduce every
coefficient SciPy leaves clearly positive to 1e-12 relative, and keep
the ones SciPy puts at (or within rounding of) zero non-negative and
below 1e-9.
"""

import math

import pytest

from repro.delay.calibration import (
    fit_nonnegative,
    rename_coefficients,
    wakeup_coefficients,
)
from repro.technology import TECHNOLOGIES

#: (technology, model) -> coefficients from ``scipy.optimize.nnls``.
SCIPY_COEFFICIENTS = {
    ("0.8um", "rename"): (1445.3000000000006, 33.149999999999956, 0.0),
    ("0.35um", "rename"): (527.8000000000003, 24.849999999999877,
                           1.2079879998571622e-14),
    ("0.18um", "rename"): (274.10000000000014, 19.224999999999977, 0.0),
    ("0.8um", "wakeup"): (608.0501363299621, 70.60869114708326, 0.0, 0.0,
                          0.0, 0.0007492037067984239),
    ("0.35um", "wakeup"): (350.46174573631345, 33.540165024903985, 0.0,
                           0.0, 0.0, 0.00041931060610111054),
    ("0.18um", "wakeup"): (163.5361719931595, 9.817840986485503, 0.0, 0.0,
                           0.07760969770127833, 0.00031351064640770717),
}

#: SciPy coefficients above this are matched to RELATIVE; the rest
#: are rounding-level zeros and must only stay in [0, ZERO].
ZERO = 1e-9
RELATIVE = 1e-12

_FITS = {"rename": rename_coefficients, "wakeup": wakeup_coefficients}
_TECHS = {tech.name: tech for tech in TECHNOLOGIES}


@pytest.mark.parametrize("tech, model", sorted(SCIPY_COEFFICIENTS))
def test_fit_matches_scipy(tech, model):
    expected_all = SCIPY_COEFFICIENTS[tech, model]
    fitted = _FITS[model](_TECHS[tech])
    got = [getattr(fitted, f"c{index}") for index in range(len(expected_all))]
    for index, (value, expected) in enumerate(zip(got, expected_all)):
        assert type(value) is float
        if expected > ZERO:
            assert math.isclose(value, expected, rel_tol=RELATIVE, abs_tol=0.0), (
                f"{tech} {model} c{index}: {value!r} vs SciPy {expected!r}")
        else:
            assert 0.0 <= value <= ZERO, f"{tech} {model} c{index}: {value!r}"


def test_unconstrained_optimum_inside_the_orthant():
    # Two observations of x0 (2 and 1) and one of x1 (1): the plain
    # least-squares answer is already non-negative.
    rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert fit_nonnegative(rows, [2.0, 1.0, 1.0], [1.0] * 3) == pytest.approx(
        [1.5, 1.0], rel=1e-15)


def test_negative_targets_clamp_to_zero():
    rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert fit_nonnegative(rows, [-1.0] * 3, [1.0] * 3) == [0.0, 0.0]


def test_bound_coefficient_leaves_the_rest_optimal():
    # The unconstrained fit of y = a + b*x through (0, 3), (1, 2), (2, 1)
    # has b = -1; clamping b to 0 leaves a at the mean of the targets.
    rows = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
    a, b = fit_nonnegative(rows, [3.0, 2.0, 1.0], [1.0] * 3)
    assert b == 0.0
    assert a == pytest.approx(2.0, rel=1e-15)


def test_weights_scale_the_residuals():
    # One coefficient, two disagreeing observations: the weighted mean.
    a, = fit_nonnegative([[1.0], [1.0]], [1.0, 4.0], [2.0, 1.0])
    assert a == pytest.approx(2.0, rel=1e-15)
