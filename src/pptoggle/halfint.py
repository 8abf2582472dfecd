"""Exact arithmetic on half-integers.

Every weight and series exponent in this package is a multiple of 1/2, so we
store the doubled value as a plain int. That keeps bucketing by exponent exact
(no floats, no rationals).
"""

from __future__ import annotations

from .errors import FrozenRecord, set_field


class HalfInt(FrozenRecord):
    """The number ``doubled / 2``."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: int):
        set_field(self, "doubled", doubled)

    def __reduce__(self):  # pickle and copy: a frozen slot takes no setattr
        return HalfInt, (self.doubled,)

    @staticmethod
    def of(value) -> "HalfInt":
        """Coerce an int (meaning itself) or HalfInt into a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        raise TypeError(f"cannot read {value!r} as a half-integer")

    @staticmethod
    def halves(n: int) -> "HalfInt":
        """The half-integer n/2."""
        return HalfInt(n)

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Parse '7' or '7/2' (CLI degree syntax)."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            if den.strip() != "2":
                raise ValueError(f"half-integer denominator must be 2: {text!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(text))

    def __add__(self, other):
        return HalfInt(self.doubled + HalfInt.of(other).doubled)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.doubled - HalfInt.of(other).doubled)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).doubled - self.doubled)

    def __mul__(self, other: int):
        if not isinstance(other, int):
            raise TypeError("HalfInt multiplies by plain ints only")
        return HalfInt(self.doubled * other)

    __rmul__ = __mul__

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __abs__(self):
        return HalfInt(abs(self.doubled))

    def __lt__(self, other) -> bool:
        return self.doubled < HalfInt.of(other).doubled

    def __le__(self, other) -> bool:
        return self.doubled <= HalfInt.of(other).doubled

    def __gt__(self, other) -> bool:
        return self.doubled > HalfInt.of(other).doubled

    def __ge__(self, other) -> bool:
        return self.doubled >= HalfInt.of(other).doubled

    def __eq__(self, other) -> bool:
        try:
            return self.doubled == HalfInt.of(other).doubled
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a whole value hashes like its int, which it equals
        d = self.doubled
        return hash(("HalfInt", d)) if d & 1 else hash(d >> 1)

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled})"


ZERO = HalfInt(0)
HALF = HalfInt(1)
ONE = HalfInt(2)
