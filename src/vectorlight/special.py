"""Exact small-quantum-number angular momentum algebra and orthogonal polynomials.

Clebsch-Gordan coefficients are evaluated from Racah's closed-form factorial
sum with exact integer arithmetic (Fractions), so the results are correct to
floating-point rounding for the small j used here.  The last 4096 distinct
coefficients are cached, so a repeated call costs a lookup.  Condon-Shortley
phase conventions throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "HalfInt",
    "halfint",
    "laguerre",
    "hermite",
    "clebsch_gordan",
    "rotation_matrix",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer stored exactly as twice its value."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError("twice must be an int")

    @staticmethod
    def coerce(value) -> "HalfInt":
        """Accept HalfInt, int, Fraction, float or strings like '3/2'."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)):
            return HalfInt(2 * int(value))
        if isinstance(value, Fraction):
            doubled = 2 * value
            if doubled.denominator != 1:
                raise ValueError(f"{value} is not an integer or half-integer")
            return HalfInt(int(doubled))
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                num, den = map(int, text.split("/"))
                if den == 0:
                    raise ValueError(f"{text} has a zero denominator")
                return HalfInt.coerce(Fraction(num, den))
            return HalfInt.coerce(Fraction(text))
        if isinstance(value, (float, np.floating)):
            doubled = 2.0 * float(value)
            rounded = round(doubled)
            if abs(doubled - rounded) > 1e-9:
                raise ValueError(f"{value} is not an integer or half-integer")
            return HalfInt(int(rounded))
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __float__(self):
        return self.twice / 2.0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"

    def is_projection_of(self, j: "HalfInt") -> bool:
        """True if self is a valid magnetic quantum number for total j."""
        return abs(self.twice) <= j.twice and (j.twice - self.twice) % 2 == 0


def halfint(value) -> HalfInt:
    return HalfInt.coerce(value)


def laguerre(p: int, alpha: int, x):
    """Generalized Laguerre polynomial L_p^alpha(x) by the three-term recurrence.

    Vectorized over x; p < 0 returns 0 (convenient for derivative ladders).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    x = np.asarray(x)
    if p < 0:
        return np.zeros_like(x, dtype=x.dtype)
    prev = np.ones_like(x)
    if p == 0:
        return prev
    cur = 1 + alpha - x
    for n in range(1, p):
        prev, cur = cur, ((2 * n + 1 + alpha - x) * cur - (n + alpha) * prev) / (n + 1)
    return cur


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by recurrence, vectorized over x."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = np.asarray(x)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 2 * x
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


def _check_jm(tj: int, tm: int, label: str):
    if tj < 0:
        raise ValueError(f"{label}: j must be non-negative")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"{label}: m and j must both be integer or both half-integer")
    if abs(tm) > tj:
        raise ValueError(f"{label}: |m| cannot exceed j")


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m> (Condon-Shortley).

    Returns exactly 0.0 when m != m1 + m2 or the triangle rule fails.
    Invalid (j, m) pairings raise ValueError.
    """
    tj1, tm1 = halfint(j1).twice, halfint(m1).twice
    tj2, tm2 = halfint(j2).twice, halfint(m2).twice
    tj, tm = halfint(j).twice, halfint(m).twice
    return _clebsch_gordan_twice(tj1, tm1, tj2, tm2, tj, tm)


@functools.lru_cache(maxsize=4096)
def _clebsch_gordan_twice(tj1: int, tm1: int, tj2: int, tm2: int, tj: int,
                          tm: int) -> float:
    """The coefficient from doubled quantum numbers, checked and computed
    once; an invalid pairing raises on every call, as no error is cached."""
    _check_jm(tj1, tm1, "(j1, m1)")
    _check_jm(tj2, tm2, "(j2, m2)")
    _check_jm(tj, tm, "(j, m)")
    if tm1 + tm2 != tm:
        return 0.0
    # Triangle rule, including the requirement that j1 + j2 + j is an integer.
    if (tj1 + tj2 + tj) % 2 != 0:
        return 0.0
    if tj < abs(tj1 - tj2) or tj > tj1 + tj2:
        return 0.0

    # Racah's closed form with exact integer factorials.
    a = (tj1 + tj2 - tj) // 2
    b = (tj1 - tj2 + tj) // 2
    c = (-tj1 + tj2 + tj) // 2
    pref2 = Fraction(tj + 1)
    pref2 *= Fraction(math.factorial(a) * math.factorial(b) * math.factorial(c),
                      math.factorial((tj1 + tj2 + tj) // 2 + 1))
    for tjj, tmm in ((tj, tm), (tj1, tm1), (tj2, tm2)):
        pref2 *= (math.factorial((tjj + tmm) // 2)
                  * math.factorial((tjj - tmm) // 2))

    k_min = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    k_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        den = (
            math.factorial(k)
            * math.factorial(a - k)
            * math.factorial((tj1 - tm1) // 2 - k)
            * math.factorial((tj2 + tm2) // 2 - k)
            * math.factorial((tj - tj2 + tm1) // 2 + k)
            * math.factorial((tj - tj1 - tm2) // 2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    if total == 0:
        return 0.0
    # the coefficient's square is exact and at most 1, while pref2 alone
    # overflows a float from 2J = 115 on; int / int rounds correctly
    square = (total.numerator ** 2 * pref2.numerator) / \
        (total.denominator ** 2 * pref2.denominator)
    return math.copysign(math.sqrt(square), total)


def rotation_matrix(theta: float, axis) -> np.ndarray:
    """Active 3x3 rotation by angle theta about a (unit) axis, via Rodrigues."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if not norm > 0:
        raise ValueError("rotation axis must be a nonzero vector")
    a = axis / norm
    cross = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return (
        math.cos(theta) * np.eye(3)
        + math.sin(theta) * cross
        + (1.0 - math.cos(theta)) * np.outer(a, a)
    )
