"""Small finite fields GF(q) for q <= 16 via fixed Conway polynomials.

Elements are integers 0..q-1 encoding base-p digit vectors (lowest digit
first), so 0 and 1 are the field's zero and one.  Multiplication uses
log/antilog tables built from the Conway generator; everything is
deterministic.  q is split as p^e by numtheory.prime_power_decompose.
"""
from __future__ import annotations

from .numtheory import prime_power_decompose

# Conway polynomials, coefficient list of x^e in ascending degree order,
# omitting the leading 1: p(x) = x^e + sum(c_i x^i).
_CONWAY = {
    (2, 2): (1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0),    # x^4 + x + 1
    (3, 2): (2, 2),          # x^2 + 2x + 2
}


class GF:
    """Arithmetic in GF(q), q = p^e <= 16."""

    def __init__(self, q: int):
        pp = prime_power_decompose(q)
        if pp is None:
            raise ValueError(f"{q} is not a prime power")
        p, e = pp
        if q > 16:
            raise ValueError(f"q = {q} exceeds the supported bound 16")
        self.q, self.p, self.e = q, p, e
        if e == 1:
            self._mul_table = None
        else:
            if (p, e) not in _CONWAY:
                raise ValueError(f"no Conway polynomial stored for {p}^{e}")
            self._build_tables(_CONWAY[(p, e)])

    # digit-vector encoding: n = sum(d_i p^i)

    def _vec(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def _num(self, v) -> int:
        return sum(d * self.p**i for i, d in enumerate(v)) % self.q

    def _build_tables(self, conway):
        p, e = self.p, self.e
        # powers of the generator x, reduced mod the Conway polynomial
        cur = [0] * e
        cur[1 if e > 1 else 0] = 1  # the element x
        x_elt = self._num(cur)
        log = {1: 0}
        antilog = [1]
        elt = 1
        for k in range(1, self.q - 1):
            elt = self._poly_mul(elt, x_elt, conway)
            antilog.append(elt)
            log[elt] = k
        if len(log) != self.q - 1:
            raise AssertionError("Conway polynomial did not generate the field")
        self._log, self._antilog = log, antilog

    def _poly_mul(self, a: int, b: int, conway) -> int:
        p, e = self.p, self.e
        va, vb = self._vec(a), self._vec(b)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(va):
            if ca:
                for j, cb in enumerate(vb):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce: x^e = -conway coefficients
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, cc in enumerate(conway):
                    prod[i - e + j] = (prod[i - e + j] - c * cc) % p
        return self._num(prod[:e])

    # -- field operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        return self._num([(x + y) % p for x, y in zip(self._vec(a), self._vec(b))])

    def neg(self, a: int) -> int:
        p = self.p
        if self.e == 1:
            return (-a) % p
        return self._num([(-x) % p for x in self._vec(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        return self._antilog[(self._log[a] + self._log[b]) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)
