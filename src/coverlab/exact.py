"""Exact arithmetic in real quadratic extensions Q(sqrt(D)).

Cover spectra involve eigenvalues of the form a + b*sqrt(D) (the icosahedron
has tau = -sqrt(5)); storing them as (p + q*sqrt(D))/c, with Python ints
p, q, c in lowest terms and D squarefree, keeps every spectral identity
exact, with no floating point and no Fraction in the arithmetic: a sum or
product is a few integer products and one gcd.  The rational coordinates
a = p/c and b = q/c are read as Fractions only for output.

Most values are rational (q == 0, D == 1).  Building one from an int or a
Fraction needs no factorization, and a rational QuadExt hashes as the int
or Fraction it equals.  The integer-t feasibility tables in params build no
QuadExt at all: their closed-form spectra are plain ints, which is_integral
and quad_json read alongside QuadExt values.

QuadExt adds, multiplies, takes nonnegative powers and compares by exact
sign; it does not divide.  Nothing needs it to: the cover spectrum is
rational in sqrt(Delta) (params.derive_params), the absolute-bound
endpoints are decided by squared identities (frames._tau_endpoint), and the
relative bound by n(other^2 - d) = d(other^2 - 1) (frames.verify_etf).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

from .numtheory import prime_powers

Rat = Union[int, Fraction]


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m >= 0 as s*s*d with d squarefree; return (s, d).

    A perfect square is read off isqrt with no factorization, so every
    integer spectrum derives at any size; any other m goes through
    prime_powers and its TRIAL_DIVISION_MAX."""
    if m < 0:
        raise ValueError("negative argument")
    s = isqrt(m)
    if s * s == m:
        return s, 1
    s, d = 1, 1
    for p, e, _ in prime_powers(m):
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


class QuadExt:
    """An element (p + q*sqrt(D))/c: p, q, c Python ints with c >= 1 and
    gcd(p, q, c) = 1, D a squarefree integer >= 1.

    The lowest-terms triple makes each value's representation unique, so
    equality compares it and arithmetic is integer arithmetic with one gcd
    per result.  a = p/c and b = q/c, the rational coordinates of
    a + b*sqrt(D), are read-only Fraction properties.  Rational values are
    normalised to q == 0, D == 1.  Arithmetic between two irrational
    elements requires the same D (all covers live in a single quadratic
    field at a time).
    """

    __slots__ = ("p", "q", "c", "D")

    def __init__(self, a: Rat = 0, b: Rat = 0, D: int = 1):
        if D < 1:
            raise ValueError("D must be a positive integer")
        if type(a) is int and type(b) is int:
            p, q, c = a, b, 1
        else:  # over the common denominator
            a, b = Fraction(a), Fraction(b)
            c = lcm(a.denominator, b.denominator)
            p = a.numerator * (c // a.denominator)
            q = b.numerator * (c // b.denominator)
        if q:
            s, D = squarefree_decompose(D)
            q *= s
            if D == 1:  # radicand was a perfect square
                p, q = p + q, 0
        self._set(p, q, c, D if q else 1)

    def _set(self, p: int, q: int, c: int, D: int) -> None:
        g = gcd(p, q, c)
        if g != 1:
            p, q, c = p // g, q // g, c // g
        self.p, self.q, self.c, self.D = p, q, c, D

    @classmethod
    def _of(cls, p: int, q: int, c: int, D: int) -> "QuadExt":
        """(p + q*sqrt(D))/c, c >= 1 and D squarefree, in lowest terms; a
        rational result (q == 0) gets D = 1."""
        out = object.__new__(cls)
        out._set(p, q, c, D if q else 1)
        return out

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.c)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sqrt(value: Rat) -> "QuadExt":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("square root of a negative rational")
        s, d = squarefree_decompose(value.numerator * value.denominator)
        if d == 1:
            return QuadExt._of(s, 0, value.denominator, 1)
        return QuadExt._of(0, s, value.denominator, d)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, int):
            return QuadExt._of(other, 0, 1, 1)
        if isinstance(other, Fraction):
            return QuadExt._of(other.numerator, 0, other.denominator, 1)
        return NotImplemented  # type: ignore[return-value]

    def _common_D(self, other: "QuadExt") -> int:
        if self.q == 0:
            return other.D
        if other.q == 0:
            return self.D
        if self.D != other.D:
            raise ValueError(f"incompatible radicands {self.D} and {other.D}")
        return self.D

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 0 and self.c == 1

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.p

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.D) ** 0.5

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        D = self._common_D(o)
        c1, c2 = self.c, o.c
        if c1 == c2:
            return QuadExt._of(self.p + o.p, self.q + o.q, c1, D)
        return QuadExt._of(self.p * c2 + o.p * c1, self.q * c2 + o.q * c1,
                           c1 * c2, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._of(-self.p, -self.q, self.c, self.D)

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
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        return QuadExt._of(p1 * p2 + q1 * q2 * D, p1 * q2 + q1 * p2,
                           self.c * o.c, D)

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
        return (self.p == o.p and self.q == o.q and self.c == o.c
                and self.D == o.D)

    def __hash__(self):
        # equal values hash alike: a rational element hashes as its int or
        # Fraction, an irrational one as its (a, b, D) with Fraction a, b
        if self.q == 0:
            return hash(self.p) if self.c == 1 else hash(self.a)
        return hash((self.a, self.b, self.D))

    def sign(self) -> int:
        """Exact sign, no floating point: the sign of p + q*sqrt(D)."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        # opposite signs: compare p^2 with q^2 * D
        lhs, rhs = p * p, q * q * self.D
        if p > 0:  # q < 0
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
        return QuadExt(Fraction(obj["a"]), Fraction(obj["b"]), obj["D"])


def _rat_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
