"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Cover spectra involve eigenvalues of the form a + b*sqrt(D) (the icosahedron
has tau = -sqrt(5)); storing them as (a, b, D) with rational a, b and
squarefree D keeps every spectral identity exact, with no floating point.

Most values are rational (b == 0, D == 1).  Building one from a rational
costs a single Fraction and no factorization, and a rational QuadExt hashes
as its Fraction (so it hashes like the int or Fraction it equals).  The
integer-t feasibility tables in params build no QuadExt at all: their
closed-form spectra are plain ints, which is_integral and quad_json read
alongside QuadExt values.

QuadExt adds, multiplies, takes nonnegative powers and compares by exact
sign; it does not divide.  Nothing needs it to: the cover spectrum is
rational in sqrt(Delta) (params.derive_params), and the absolute-bound
endpoints are decided by squared identities (frames.verify_etf).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .numtheory import prime_powers

Rat = Union[int, Fraction]

_ZERO = Fraction(0)  # the b of every rational element


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
        if D < 1:
            raise ValueError("D must be a positive integer")
        if b == 0:  # rational: nothing to normalise
            self.a, self.b, self.D = Fraction(a), _ZERO, 1
            return
        a = Fraction(a)
        b = Fraction(b)
        s, d = squarefree_decompose(D)
        b *= s
        D = d
        if D == 1:  # radicand was a perfect square
            a, b = a + b, _ZERO
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

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k}: QuadExt has no division")
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
        # equal values hash alike: a rational element equals its Fraction
        if self.b == 0:
            return hash(self.a)
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
        if o is NotImplemented:
            return o
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
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


def is_integral(x) -> bool:
    """Whether an int, Fraction or QuadExt value is an integer.

    Reads no is_integer off an int or a Fraction: Python 3.11 has none,
    and from 3.12 it is a method, so reading it as a flag is always true.
    """
    if isinstance(x, QuadExt):
        return x.is_integer
    return x.denominator == 1


def quad_json(x) -> dict:
    """QuadExt's JSON form {"a", "b", "D"}, written for an int x too."""
    if isinstance(x, int):
        return {"a": x, "b": 0, "D": 1}
    return x.to_json()


def rational_json(x) -> object:
    """Canonical JSON form for an exact rational or QuadExt value."""
    if isinstance(x, int):
        return x
    if isinstance(x, QuadExt):
        if x.is_rational:
            return _rat_json(x.a)
        return x.to_json()
    return _rat_json(Fraction(x))
