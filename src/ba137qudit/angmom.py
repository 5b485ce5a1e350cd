"""Clebsch-Gordan coefficients, from an internal 3j symbol, in exact arithmetic.

Quantum numbers are carried as doubled integers (``HalfInt``), so every
factorial argument in the Racah sum is an exact integer and the only
floating-point operation is a single final square root.  This removes any
rounding ambiguity from the coefficients that feed the hyperfine structure
and transition-strength tables downstream.

Phase convention is Condon-Shortley.  The implementation is valid for any
j, but is exercised and tested up to j = 9/2, which is more headroom than
the I = 3/2, J <= 5/2, k = 2 couplings used in this package require.
6j/9j symbols are out of scope.  Everything here is pure; the memo table
behind the evaluator is an lru_cache, which is safe to read concurrently.

``HalfInt`` is an interned value object: there is one instance per value,
so equality and hashing are by identity and run in C, and ``copy``,
``deepcopy`` and ``pickle`` return that same instance.  State keys built
from it (``atomstruct.StateRef``) therefore hash without Python code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, total_ordering

__all__ = ["HalfInt", "clebsch_gordan"]


# the one instance of each value, by twice the value
_INSTANCES: dict[int, "HalfInt"] = {}


@total_ordering
class HalfInt:
    """A half-integer stored exactly as twice its value.

    Interned: ``HalfInt(t)`` returns the one instance for ``int(t)``, so
    equal values are the same object, and equality and hashing are by
    identity and run in C.  ``copy``, ``deepcopy`` and ``pickle`` return
    that instance too.  Instances are immutable and order by ``twice``.
    """

    __slots__ = ("twice",)

    def __new__(cls, twice: int) -> "HalfInt":
        try:
            return _INSTANCES[twice]
        except KeyError:
            twice = int(twice)
        self = object.__new__(cls)
        object.__setattr__(self, "twice", twice)
        return _INSTANCES.setdefault(twice, self)  # one atomic step: one instance per value

    @classmethod
    def coerce(cls, x) -> "HalfInt":
        """Accept a HalfInt, an int, or a float that is an exact multiple of 1/2."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return cls(2 * x)
        doubled = 2 * float(x)
        if not math.isfinite(doubled) or doubled != round(doubled):
            raise ValueError(f"{x!r} is not a half-integer")
        return cls(int(round(doubled)))

    def __setattr__(self, name, *value):
        raise AttributeError(f"HalfInt is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return HalfInt, (self.twice,)

    def __lt__(self, other):
        return self.twice < other.twice if other.__class__ is HalfInt else NotImplemented

    def __float__(self) -> float:
        return self.twice / 2.0

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def _fact2(twice: int) -> int:
    # factorial of a doubled-integer argument; caller guarantees evenness
    if twice < 0 or twice % 2 != 0:
        raise ValueError(f"factorial argument {twice}/2 is not a nonnegative integer")
    return math.factorial(twice // 2)


def _sqrt_fraction(fr: Fraction) -> float:
    if fr == 0:
        return 0.0
    # exact integer square roots where possible keep e.g. stretched states at 1.0
    num, den = fr.numerator, fr.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rn / rd
    return math.sqrt(num / den)


@lru_cache(maxsize=None)
def _wigner3j_signed_square(
    tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int
) -> tuple[int, Fraction]:
    """(sign, square) with 3j = sign * sqrt(square), both exact."""
    zero = (0, Fraction(0))
    if tm1 + tm2 + tm3 != 0:
        return zero
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return zero
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2:
        return zero
    # j+m must be an integer for each column, and j1+j2+j3 an integer overall
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return zero
    if (tj1 + tj2 + tj3) % 2:
        return zero

    pre = Fraction(
        _fact2(tj1 + tj2 - tj3) * _fact2(tj1 - tj2 + tj3) * _fact2(-tj1 + tj2 + tj3),
        _fact2(tj1 + tj2 + tj3 + 2),
    )
    pre *= (
        _fact2(tj1 - tm1) * _fact2(tj1 + tm1)
        * _fact2(tj2 - tm2) * _fact2(tj2 + tm2)
        * _fact2(tj3 - tm3) * _fact2(tj3 + tm3)
    )

    tmin = max(0, tj2 - tj3 - tm1, tj1 - tj3 + tm2)
    tmax = min(tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2)
    total = Fraction(0)
    for tt in range(tmin, tmax + 1, 2):
        den = (
            _fact2(tt)
            * _fact2(tj1 + tj2 - tj3 - tt)
            * _fact2(tj1 - tm1 - tt)
            * _fact2(tj2 + tm2 - tt)
            * _fact2(tj3 - tj2 + tm1 + tt)
            * _fact2(tj3 - tj1 - tm2 + tt)
        )
        term = Fraction(1, den)
        total += -term if (tt // 2) % 2 else term
    if total == 0:
        return zero

    sign = 1 if total > 0 else -1
    if ((tj1 - tj2 - tm3) // 2) % 2:
        sign = -sign
    return sign, pre * total * total


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    Related to the 3j symbol by
    <j1 m1; j2 m2 | J M> = (-1)^(j1-j2+M) sqrt(2J+1) (j1 j2 J; m1 m2 -M),
    which holds exactly: the (2J+1) factor is folded into the exact square
    root so that e.g. stretched-state coefficients come out as exactly 1.0.
    """
    tj1 = HalfInt.coerce(j1).twice
    tj2 = HalfInt.coerce(j2).twice
    tJ = HalfInt.coerce(J).twice
    tm1 = HalfInt.coerce(m1).twice
    tm2 = HalfInt.coerce(m2).twice
    tM = HalfInt.coerce(M).twice
    sign, square = _wigner3j_signed_square(tj1, tj2, tJ, tm1, tm2, -tM)
    if sign == 0:
        return 0.0
    if ((tj1 - tj2 + tM) // 2) % 2:
        sign = -sign
    return sign * _sqrt_fraction(square * (tJ + 1))
