"""Special-function accuracy against high-precision references.

The reference tables were computed with a 40-digit arbitrary-precision
library in a separate session and frozen here, so these tests are
independent of the implementation under test.  The property tests
compare with mpmath at 40 digits over the battery's domain.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosbits
from chaosbits import battery
from chaosbits.battery import _cusum_p, erfc, gammainc_upper

# (x, erfc(x)) computed at 40 decimal digits, rounded to binary64.
ERFC_REFERENCE = [
    (-3.0, 1.9999779095030015),
    (-1.25, 1.9229001282564582),
    (-0.5, 1.5204998778130465),
    (0.0, 1.0),
    (0.001, 0.9988716212090307),
    (0.1, 0.887537083981715),
    (0.447213595499958, 0.5270892568655381),
    (1.0, 0.15729920705028513),
    (2.0, 0.004677734981047266),
    (3.5, 7.430983723414128e-07),
    (5.0, 1.537459794428035e-12),
    (8.0, 1.1224297172982926e-29),
    (12.5, 6.231942781979911e-70),
]

# (a, x, Q(a, x)) computed at 40 decimal digits, rounded to binary64.
QGAMMA_REFERENCE = [
    (0.5, 0.25, 0.4795001221869535),
    (1.0, 1.0, 0.36787944117144233),
    (1.5, 0.5, 0.8012519569012008),
    (2.5, 9.0, 0.0029464045878802906),
    (4.5, 0.0078125, 0.9999999999937493),
    (4.5, 16.25, 0.00016313507345035272),
    (4.5, 45.0, 1.6280704719656212e-15),
    (9.5, 3.2, 0.9967902215553671),
    (128.0, 110.0, 0.9497595223323918),
    (512.0, 470.5, 0.9693455251049969),
    (256.0, 300.25, 0.004130808015544535),
    (0.9, 2.2, 0.09269554905750489),
]


@pytest.mark.parametrize("x,expected", ERFC_REFERENCE)
def test_erfc_reference_values(x, expected):
    assert erfc(x) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("a,x,expected", QGAMMA_REFERENCE)
def test_gammainc_upper_reference_values(a, x, expected):
    assert gammainc_upper(a, x) == pytest.approx(expected, rel=1e-10)


def test_reference_tables_are_large_enough():
    # The accuracy contract demands at least 10 reference points each.
    assert len(ERFC_REFERENCE) >= 10
    assert len(QGAMMA_REFERENCE) >= 10


def test_erfc_basic_identities():
    assert erfc(0.0) == 1.0
    # erfc(-x) + erfc(x) = 2
    for x in (0.3, 1.7, 4.2):
        assert erfc(-x) + erfc(x) == pytest.approx(2.0, rel=1e-14)


def test_gammainc_upper_boundaries():
    assert gammainc_upper(4.5, 0.0) == 1.0
    assert gammainc_upper(1.0, 0.0) == 1.0
    assert gammainc_upper(2.0, math.inf) == 0.0
    # Q(1, x) = exp(-x)
    assert gammainc_upper(1.0, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-14)


def test_gammainc_upper_rejects_bad_domain():
    with pytest.raises(ValueError):
        gammainc_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -0.5)
    with pytest.raises(ValueError):
        gammainc_upper(29.5, -3.552713678800501e-15)


def test_gammainc_upper_rejects_nan():
    with pytest.raises(ValueError, match="x must be non-negative"):
        gammainc_upper(1.0, math.nan)
    with pytest.raises(ValueError, match="a must be positive"):
        gammainc_upper(math.nan, 1.0)


def test_gammainc_upper_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(battery, "_EPS", 0.0)  # no term is ever small enough
    for x in (0.5, 5.0):  # the series, then the continued fraction
        with pytest.raises(ArithmeticError, match="no convergence"):
            gammainc_upper(1.0, x)


def q_reference(a, x):
    """Q(a, x) at 40 digits; below a it is 1 - P, which mpmath evaluates faster."""
    with mpmath.workdps(40):
        if x < a:
            return 1 - mpmath.gammainc(a, 0, x, regularized=True)
        return mpmath.gammainc(a, x, mpmath.inf, regularized=True)


@st.composite
def gamma_points(draw):
    # a: the battery's shapes k/2 (block frequency, longest run, P_T) and
    # the serial/ApEn shapes 2^j; x: both sides of the switch at a + 1,
    # within 40 standard deviations, and far below it.  At d's lower
    # bound a + 1 + d*spread can round below zero, where mpmath's Q may
    # not return; Q(a, 0) = 1 on both sides, so x is clamped to 0.
    a = draw(st.one_of(st.integers(1, 64).map(lambda k: k / 2), st.integers(0, 20).map(lambda j: 2.0 ** j)))
    spread = max(math.sqrt(a), 1.0)
    near = st.floats(max(-40.0, -(a + 1.0) / spread), 40.0).map(lambda d: max(0.0, a + 1.0 + d * spread))
    far = st.floats(1e-6, 1.0).map(lambda f: f * a)
    return a, draw(st.one_of(near, far))


@settings(max_examples=400, deadline=None)
@given(gamma_points())
def test_gammainc_upper_matches_mpmath(point):
    a, x = point
    assert x >= 0.0
    expected = q_reference(a, x)
    if expected >= 1e-300:
        assert abs(gammainc_upper(a, x) - expected) <= 1e-11 * expected


@pytest.mark.parametrize("a", [2.0 ** 20, 16384.0, 4.5, 0.5])
@pytest.mark.parametrize("d", [-3.0, -1e-9, 0.0, 1.0, 30.0])
def test_gammainc_upper_at_the_switch_and_far_tail(a, d):
    # x = a + 1 + d*sqrt(a): the two sides of the series/fraction switch,
    # and a tail where the prefactor's cancellation used to grow with a.
    x = max(a + 1.0 + d * math.sqrt(a), 0.0)
    expected = q_reference(a, x)
    assert abs(gammainc_upper(a, x) - expected) <= 1e-11 * expected


def cusum_reference(z, n):
    """The cumulative-sums tail series with mpmath's normal CDF at 40 digits."""
    with mpmath.workdps(40):
        sn = mpmath.sqrt(n)
        k_hi = (n - z) // (4 * z)
        s1 = sum(mpmath.ncdf((4 * k + 1) * z / sn) - mpmath.ncdf((4 * k - 1) * z / sn)
                 for k in range((z - n) // (4 * z), k_hi + 1))
        s2 = sum(mpmath.ncdf((4 * k + 3) * z / sn) - mpmath.ncdf((4 * k + 1) * z / sn)
                 for k in range((-n - 3 * z) // (4 * z), k_hi + 1))
        return 1 - s1 + s2


@pytest.mark.parametrize("z,n", [(16, 100), (1687, 200000), (540, 200000), (30, 10 ** 4)])
def test_cusum_p_matches_mpmath_series(z, n):
    # (16, 100) is the standard's worked example, P = 0.219194.
    expected = cusum_reference(z, n)
    assert abs(_cusum_p(z, n) - expected) <= 1e-12 * expected


def test_cli_import_leaves_scipy_out():
    src = str(Path(chaosbits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, chaosbits.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
