import pytest

from pptoggle.halfint import HALF, ONE, ZERO, HalfInt
from pptoggle.oracle import WeightCensus


def test_construction():
    assert HalfInt.of(3).doubled == 6
    assert HalfInt.halves(5).doubled == 5
    assert HalfInt.of(HALF) == HALF
    with pytest.raises(TypeError):
        HalfInt.of(1.5)


def test_arithmetic():
    assert HALF + HALF == ONE
    assert ONE - HALF == HALF
    assert HALF * 3 == HalfInt.halves(3)
    assert -HALF == HalfInt(-1)
    assert abs(HalfInt(-7)) == HalfInt(7)
    assert 1 + HALF == HalfInt.halves(3)


def test_ordering():
    assert ZERO < HALF < ONE < HalfInt.of(2)
    assert HALF <= HALF
    assert max(HALF, ONE) == ONE


def test_parse_and_str():
    assert HalfInt.parse("7") == HalfInt.of(7)
    assert HalfInt.parse("7/2") == HalfInt.halves(7)
    assert str(HalfInt.halves(9)) == "9/2"
    assert str(HalfInt.of(4)) == "4"
    with pytest.raises(ValueError):
        HalfInt.parse("7/3")


def test_a_whole_half_integer_hashes_like_its_int():
    # equal values must hash alike, so a whole HalfInt finds its int in a
    # set or dict and the other way round
    for k in range(-40, 41):
        assert HalfInt(2 * k) == k
        assert hash(HalfInt(2 * k)) == hash(k)
        assert hash(HalfInt(2 * k + 1)) != hash(HalfInt(2 * k))
    assert HalfInt(4) in {2}
    assert 2 in {HalfInt(4)}
    counts = WeightCensus.take("plane", None, 3).counts
    assert counts.get(2) == counts.get(HalfInt.of(2)) == 3
