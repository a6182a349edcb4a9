"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Cover spectra involve eigenvalues of the form a + b*sqrt(D) (the icosahedron
has tau = -sqrt(5)); storing them as (a, b, D) with rational a, b and
squarefree D keeps every spectral identity exact, with no floating point.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .numtheory import prime_powers

Rat = Union[int, Fraction]


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m >= 0 as s*s*d with d squarefree; return (s, d)."""
    if m < 0:
        raise ValueError("negative argument")
    if m == 0:
        return 0, 1
    s, d = 1, 1
    for p, e, _ in prime_powers(m):
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


class QuadExt:
    """An element a + b*sqrt(D), a and b rational, D a squarefree integer >= 1.

    Rational values are normalised to b == 0, D == 1.  Arithmetic between two
    irrational elements requires the same D (all covers live in a single
    quadratic field at a time).
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a: Rat = 0, b: Rat = 0, D: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if D < 1:
            raise ValueError("D must be a positive integer")
        if b != 0:
            s, d = squarefree_decompose(D)
            b *= s
            D = d
            if D == 1:  # radicand was a perfect square
                a, b = a + b, Fraction(0)
        else:
            D = 1
        self.a, self.b, self.D = a, b, D

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sqrt(value: Rat) -> "QuadExt":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("square root of a negative rational")
        s, d = squarefree_decompose(value.numerator * value.denominator)
        return QuadExt(0, Fraction(s, value.denominator), d)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented  # type: ignore[return-value]

    def _common_D(self, other: "QuadExt") -> int:
        if self.b == 0:
            return other.D
        if other.b == 0:
            return self.D
        if self.D != other.D:
            raise ValueError(f"incompatible radicands {self.D} and {other.D}")
        return self.D

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return int(self.a)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.D) ** 0.5

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._common_D(o)
        return QuadExt(self.a + o.a, self.b + o.b, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._common_D(o)
        return QuadExt(self.a * o.a + self.b * o.b * D,
                       self.a * o.b + self.b * o.a, D)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.D)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.D

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        nrm = o.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by zero element")
        conj = o.conjugate()
        num = self * conj
        return QuadExt(num.a / nrm, num.b / nrm, num.D)

    def __rtruediv__(self, other):
        return QuadExt(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return QuadExt(1) / self ** (-k)
        out = QuadExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        return self.a == o.a and self.b == o.b and self.D == o.D

    def __hash__(self):
        return hash((self.a, self.b, self.D))

    def sign(self) -> int:
        """Exact sign, no floating point."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 * D
        lhs, rhs = a * a, b * b * self.D
        if a > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    # -- io ------------------------------------------------------------------

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.D})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        bpart = f"sqrt({self.D})"
        if self.b == 1:
            parts.append(bpart)
        elif self.b == -1:
            parts.append("-" + bpart)
        else:
            parts.append(f"{self.b}*{bpart}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def to_json(self) -> dict:
        return {"a": _rat_json(self.a), "b": _rat_json(self.b), "D": self.D}

    @staticmethod
    def from_json(obj: dict) -> "QuadExt":
        return QuadExt(_rat_parse(obj["a"]), _rat_parse(obj["b"]), obj["D"])


def _rat_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat_parse(x) -> Fraction:
    return Fraction(x)


def rational_json(x) -> object:
    """Canonical JSON form for an exact rational or QuadExt value."""
    if isinstance(x, QuadExt):
        if x.is_rational:
            return _rat_json(x.a)
        return x.to_json()
    return _rat_json(Fraction(x))
