import math

import numpy as np
import pytest

from fracrd.errors import InvalidParameter, as_int, as_real


@pytest.mark.parametrize("read", [as_int, as_real])
def test_readers_reject_bool(read):
    with pytest.raises(InvalidParameter) as exc:
        read(True, "seed")
    assert exc.value.name == "seed"


def test_as_real_reads_numbers_and_inf():
    for x, want in ((np.float64(0.25), 0.25), (3, 3.0), (-1.5, -1.5), ("inf", math.inf),
                    ("Infinity", math.inf), (math.inf, math.inf)):
        got = as_real(x)
        assert got == want and type(got) is float


@pytest.mark.parametrize("x", ["inf", math.inf, -math.inf, math.nan, "2", None, [1.0]])
def test_as_real_finite_rejects(x):
    with pytest.raises(InvalidParameter) as exc:
        as_real(x, "dt", finite=True)
    assert exc.value.name == "dt"
    assert str(exc.value) == f"dt must be a finite number, got {x!r}"


def test_as_real_rejects_non_numbers():
    for x in ("2", "x", None, [1.0], np.int64(2)):
        with pytest.raises(InvalidParameter, match="must be a number"):
            as_real(x)


def test_as_int():
    assert as_int(0) == 0 and as_int(3, "modes", lo=3) == 3
    for x in (2.0, "2", None, 2, -1):
        with pytest.raises(InvalidParameter) as exc:
            as_int(x, "modes", lo=3)
        assert exc.value.requirement == f"must be an integer >= 3, got {x!r}"
