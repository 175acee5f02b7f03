"""Special-function accuracy against frozen high-precision references.

The reference values were computed with a 40-digit arbitrary-precision
library in a separate session and frozen here, so these tests are
independent of the implementation under test.
"""

import math

import pytest

from chaosbits.battery import erfc, gammainc_upper

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
    # Q(1, x) = exp(-x)
    assert gammainc_upper(1.0, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-14)


def test_gammainc_upper_rejects_bad_domain():
    with pytest.raises(ValueError):
        gammainc_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -0.5)

