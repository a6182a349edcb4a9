"""Small finite fields GF(q) for q <= 16 via fixed Conway polynomials.

Elements are integers 0..q-1 encoding base-p digit vectors (lowest digit
first), so 0 and 1 are the field's zero and one.  The addition,
negation and multiplication tables are built once per field, as numpy
arrays that vectorised callers index directly; multiplication comes from
log/antilog tables of the Conway generator.  Everything is
deterministic.  q is split as p^e by numtheory.prime_power_decompose.
"""
from __future__ import annotations

import numpy as np

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
    """Arithmetic in GF(q), q = p^e <= 16.

    add_table[a, b], neg_table[a] and mul_table[a, b] hold a + b, -a and
    a * b; the scalar operations read them.
    """

    def __init__(self, q: int):
        if q > 16:
            raise ValueError(f"q = {q} exceeds the supported bound 16")
        pp = prime_power_decompose(q)
        if pp is None:
            raise ValueError(f"{q} is not a prime power")
        p, e = pp
        if e > 1 and (p, e) not in _CONWAY:
            raise ValueError(f"no Conway polynomial stored for {p}^{e}")
        self.q, self.p, self.e = q, p, e
        # digits[a, i] is the coefficient of x^i in a; addition is digitwise
        weights = p ** np.arange(e)
        digits = np.arange(q)[:, None] // weights % p
        self.add_table = (digits[:, None, :] + digits) % p @ weights
        self.neg_table = -digits % p @ weights
        if e == 1:
            self.mul_table = np.outer(np.arange(q), np.arange(q)) % p
        else:
            antilog = _powers_of_x(p, e, _CONWAY[(p, e)])
            if len(set(antilog)) != q - 1:
                raise AssertionError("Conway polynomial did not generate the field")
            log = np.zeros(q, dtype=np.intp)
            log[antilog] = np.arange(q - 1)
            mul = np.array(antilog)[(log[:, None] + log) % (q - 1)]
            mul[0, :] = mul[:, 0] = 0
            self.mul_table = mul

    # -- field operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def elements(self) -> range:
        return range(self.q)


def _powers_of_x(p: int, e: int, conway) -> list[int]:
    """x^0, ..., x^(p^e - 2) reduced mod the Conway polynomial, encoded."""
    coeffs = [1] + [0] * (e - 1)
    out = []
    for _ in range(p ** e - 1):
        out.append(sum(c * p ** i for i, c in enumerate(coeffs)))
        # times x: shift up, then x^e = -sum(c_i x^i)
        top = coeffs[-1]
        coeffs = [(lo - top * c) % p
                  for lo, c in zip([0] + coeffs[:-1], conway)]
    return out
