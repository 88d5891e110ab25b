"""Arithmetic on numbers represented as mantissa * exp(exponent).

Everything downstream (Struve/Bessel kernels, integrals, bound margins) has
to survive factors like exp(x) at x = 1000, far beyond double range.  A
``ScaledReal`` keeps the overall magnitude in a separate exponent field so
mantissas stay well conditioned.  Normalized form uses an integer-valued
exponent with ``1 <= |mantissa| < e`` (or exactly zero), which keeps the
exponent field exact in floating point and the represented value accurate to
a few ulps through long chains of multiplies and adds.
"""

from __future__ import annotations

import math

__all__ = ["ScaledReal"]

_LN_MAX = 709.78  # log of the largest finite double, with a little headroom


def _normalize(mantissa: float, exponent: float) -> tuple[float, float]:
    if mantissa == 0.0:
        return 0.0, 0.0
    if not math.isfinite(mantissa) or not math.isfinite(exponent):
        raise OverflowError("non-finite scaled value")
    k = math.floor(math.log(abs(mantissa)))
    m = mantissa * math.exp(-float(k))
    # floor(log) can land one off at representation boundaries
    while abs(m) >= math.e:
        m /= math.e
        k += 1
    while abs(m) < 1.0:
        m *= math.e
        k -= 1
    return m, exponent + k


class ScaledReal:
    """A real number stored as ``mantissa * exp(exponent)``.

    Frozen, with two slots.  ``ScaledReal(m, e)`` is the one constructor.
    Equal and hashed by ``(mantissa, exponent)``, and only to another
    ``ScaledReal``.
    """

    __slots__ = ("mantissa", "exponent")
    __match_args__ = ("mantissa", "exponent")
    mantissa: float
    exponent: float

    def __init__(self, mantissa: float, exponent: float) -> None:
        # the slots' member descriptors write past the frozen __setattr__
        _set_mantissa(self, mantissa)
        _set_exponent(self, exponent)

    def __setattr__(self, name: str, value: object) -> None:
        # imported on this error path alone: dataclasses costs ~10 ms to import
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.mantissa, self.exponent) == (other.mantissa, other.exponent)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mantissa, self.exponent))

    def __reduce__(self):
        return ScaledReal, (self.mantissa, self.exponent)

    @classmethod
    def zero(cls) -> "ScaledReal":
        return cls(0.0, 0.0)

    @classmethod
    def one(cls) -> "ScaledReal":
        return cls(1.0, 0.0)

    @classmethod
    def from_float(cls, value: float) -> "ScaledReal":
        return cls(*_normalize(value, 0.0))

    @classmethod
    def from_log(cls, log_value: float, sign: float = 1.0) -> "ScaledReal":
        """Build exp(log_value), optionally negated.  -inf maps to zero."""
        if log_value == _NEG_INF:
            return cls(0.0, 0.0)
        k = _floor(log_value)  # raises for +inf and nan
        m = _exp(log_value - k)  # in [1, e]: the fraction lies in [0, 1)
        if m >= _E:  # a fraction within an ulp of 1 rounds up to e
            m /= _E
            k += 1
        # the slots written here, as __init__ would: one Python frame fewer
        # on the sweep's hottest constructor
        self = _new(cls)
        _set_mantissa(self, _copysign(m, sign))
        _set_exponent(self, float(k))
        return self

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    @property
    def sign(self) -> float:
        if self.mantissa > 0.0:
            return 1.0
        if self.mantissa < 0.0:
            return -1.0
        return 0.0

    def log_abs(self) -> float:
        """ln|value|; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.exponent

    # -- conversions --------------------------------------------------------

    def to_float(self) -> float:
        """Plain double value; raises OverflowError when unrepresentable."""
        if self.is_zero:
            return 0.0
        if self.exponent > _LN_MAX:
            raise OverflowError(
                f"scaled value exp({self.exponent:.6g}) exceeds double range"
            )
        if self.exponent < -746.0:
            return math.copysign(0.0, self.mantissa)
        value = self.mantissa * math.exp(self.exponent)
        if math.isinf(value):  # exponent 709 with a mantissa above e^0.78
            raise OverflowError(
                f"scaled value exp({self.log_abs():.6g}) exceeds double range"
            )
        return value

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "ScaledReal") -> "ScaledReal":
        return ScaledReal(
            *_normalize(self.mantissa * other.mantissa, self.exponent + other.exponent)
        )

    def __truediv__(self, other: "ScaledReal") -> "ScaledReal":
        if other.is_zero:
            raise ZeroDivisionError("division by scaled zero")
        return ScaledReal(
            *_normalize(self.mantissa / other.mantissa, self.exponent - other.exponent)
        )

    def __add__(self, other: "ScaledReal") -> "ScaledReal":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.exponent >= other.exponent:
            hi, lo = self, other
        else:
            hi, lo = other, self
        shift = lo.exponent - hi.exponent
        if shift < -746.0:
            return hi
        m = hi.mantissa + lo.mantissa * math.exp(shift)
        return ScaledReal(*_normalize(m, hi.exponent))

    def __sub__(self, other: "ScaledReal") -> "ScaledReal":
        return self + (-other)

    def __neg__(self) -> "ScaledReal":
        if self.is_zero:
            return self
        return ScaledReal(-self.mantissa, self.exponent)

    def scale(self, factor: float) -> "ScaledReal":
        """Multiply by a plain float (exact zero gives exact zero)."""
        if factor == 0.0 or self.is_zero:
            return ScaledReal.zero()
        return ScaledReal(*_normalize(self.mantissa * factor, self.exponent))

    def ratio_to(self, other: "ScaledReal") -> float:
        """self / other as a plain float; the usual route to margins."""
        if other.is_zero:
            raise ZeroDivisionError("reference value is zero")
        if self.is_zero:
            return 0.0
        d = self.exponent - other.exponent
        if d > _LN_MAX:
            raise OverflowError("ratio exceeds double range")
        if d < -746.0:
            return math.copysign(0.0, self.mantissa * other.mantissa)
        value = (self.mantissa / other.mantissa) * math.exp(d)
        if math.isinf(value):  # gap 709 with a mantissa ratio above e^0.78
            raise OverflowError("ratio exceeds double range")
        return value

    # -- ordering (by value) ------------------------------------------------

    def __lt__(self, other: "ScaledReal") -> bool:
        return (self - other).sign < 0.0

    def __le__(self, other: "ScaledReal") -> bool:
        return (self - other).sign <= 0.0

    def __gt__(self, other: "ScaledReal") -> bool:
        return (self - other).sign > 0.0

    def __ge__(self, other: "ScaledReal") -> bool:
        return (self - other).sign >= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledReal({self.mantissa!r} * e^{self.exponent!r})"


_new = object.__new__
_set_mantissa = ScaledReal.mantissa.__set__
_set_exponent = ScaledReal.exponent.__set__
# from_log's math, read as module names on the sweep's hottest constructor
_NEG_INF = -math.inf
_E = math.e
_floor = math.floor
_exp = math.exp
_copysign = math.copysign
