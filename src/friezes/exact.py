"""Exact arithmetic in the quadratic fields Q(√m) for m ∈ {1, 2, 3}.

Every value is a + b·√m with exact rational coefficients, so grid entries
like 3√2 or 5/2 never see floating point.  For m = 1 the radical collapses
(√1 = 1) and the radical coefficient is folded into the rational part at
construction; equality is then a plain componentwise comparison everywhere.

Only square-free radicands whose square root is a rational multiple of
2cos(π/p) for the supported polygon face sizes are admitted: m = 1 (p = 3),
m = 2 (p = 4) and m = 3 (p = 6).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

VALID_RADICANDS = (1, 2, 3)

#: radicand m with 2cos(π/p) ∈ Q(√m), per supported face size p
LAMBDA_RADICAND = {3: 1, 4: 2, 6: 3}


class RadicandMismatchError(ValueError):
    """Two values from different quadratic fields were combined."""


def _sgn(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class QuadNum:
    """An element a + b·√m of Q(√m), held exactly.

    Instances are immutable; arithmetic returns new values.  ints and
    Fractions coerce into the operand's field, but two QuadNum with
    different radicands never mix (RadicandMismatchError).  Equality stays
    transitive across fields: rational values (b = 0) compare by value
    whatever their radicand, irrational ones only within one field.
    """

    __slots__ = ("_m", "_rat", "_rad")

    def __init__(self, m: int, rat: RationalLike | str = 0, rad: RationalLike | str = 0):
        if m not in VALID_RADICANDS:
            raise ValueError(f"radicand must be one of {VALID_RADICANDS}, got {m!r}")
        rat = Fraction(rat)
        rad = Fraction(rad)
        if m == 1:
            # √1 = 1, so the radical coefficient folds into the rational part.
            rat, rad = rat + rad, Fraction(0)
        self._m = m
        self._rat = rat
        self._rad = rad

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "QuadNum":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "QuadNum":
        return cls(m, 1)

    @classmethod
    def sqrt(cls, m: int) -> "QuadNum":
        """The value √m itself."""
        return cls(m, 0, 1)

    @property
    def m(self) -> int:
        return self._m

    @property
    def rat(self) -> Fraction:
        return self._rat

    @property
    def rad(self) -> Fraction:
        return self._rad

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other: object) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            if other._m != self._m:
                raise RadicandMismatchError(
                    f"cannot combine values from Q(√{self._m}) and Q(√{other._m})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(self._m, other)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(self._m, self._rat + o._rat, self._rad + o._rad)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return QuadNum(self._m, -self._rat, -self._rad)

    def __sub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadNum(self._m, self._rat - o._rat, self._rad - o._rad)

    def __rsub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, m = self._rat, self._rad, o._rat, o._rad, self._m
        return QuadNum(m, a * c + b * d * m, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError(f"division by zero in Q(√{self._m})")
        # Multiply by the conjugate c - d√m and divide by the norm c² - d²m.
        a, b, c, d, m = self._rat, self._rad, o._rat, o._rad, self._m
        norm = c * c - d * d * m
        return QuadNum(m, (a * c - b * d * m) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNum):
            return (
                self._rat == other._rat
                and self._rad == other._rad
                and (self._m == other._m or self._rad == 0)
            )
        if isinstance(other, (int, Fraction)):
            return self._rad == 0 and self._rat == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._rad == 0:
            return hash(self._rat)  # agrees with int/Fraction hashing
        return hash((self._m, self._rat, self._rad))

    def is_zero(self) -> bool:
        return self._rat == 0 and self._rad == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, decided without floating point.

        With mixed-sign coefficients the sign of a + b√m follows from
        comparing a² against b²m (√m is irrational for m ∈ {2, 3}, so the
        two squares are never equal unless both coefficients vanish).
        """
        a, b, m = self._rat, self._rad, self._m
        sa, sb = _sgn(a), _sgn(b)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # opposite signs: |a| vs |b|√m  decided by squares
        return sa * _sgn(a * a - b * b * m)

    def is_positive(self) -> bool:
        return self.sign() > 0

    # -- views ---------------------------------------------------------------

    def as_integer(self) -> int | None:
        """The value as a plain int when it is one, else None."""
        if self._rad == 0 and self._rat.denominator == 1:
            return self._rat.numerator
        return None

    def as_radical_multiple(self) -> int | None:
        """c when the value is exactly c·√m with c ∈ Z, else None.

        Zero qualifies (c = 0).  For m = 1 nothing but zero ever qualifies,
        since the radical part is always folded away.
        """
        if self._rat == 0 and self._rad.denominator == 1:
            return self._rad.numerator
        return None

    # -- presentation --------------------------------------------------------

    def render(self) -> str:
        """Compact human form: "0", "1", "5/2", "3√2", "1+√2", "1-√2", ..."""
        a, b, m = self._rat, self._rad, self._m
        if b == 0:
            return str(a)
        coeff = "" if b == 1 else ("-" if b == -1 else str(b))
        radical = f"{coeff}√{m}"
        if a == 0:
            return radical
        joiner = "+" if b > 0 else ""
        return f"{a}{joiner}{radical}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QuadNum({self._m}, {str(self._rat)!r}, {str(self._rad)!r})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self._m, "rat": str(self._rat), "rad": str(self._rad)}

    @classmethod
    def from_json(cls, data: dict) -> "QuadNum":
        try:
            return cls(int(data["m"]), Fraction(data["rat"]), Fraction(data["rad"]))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed quadratic value: {data!r}") from exc


def lambda_value(p: int) -> QuadNum:
    """2cos(π/p) as an exact value, for p ∈ {3, 4, 6}: 1, √2 or √3."""
    if p not in LAMBDA_RADICAND:
        raise ValueError(f"no exact radical form for face size {p}")
    m = LAMBDA_RADICAND[p]
    return QuadNum(m, 1) if p == 3 else QuadNum(m, 0, 1)
