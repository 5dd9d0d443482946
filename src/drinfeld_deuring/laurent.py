"""Laurent polynomials in T: values num / T^k with num a polynomial in T.

Normal form keeps T from dividing the numerator (and k = 0 when num = 0), so
equality is structural.  k may be negative, which just means a plain
polynomial multiple of a T-power.  U_sequence returns its U_i with these
coefficients; the ring operations are those of the U-recurrence written over
Laurent values (universal.py runs it on term maps, and tests check the two
against each other).  There is no general division.
"""

from __future__ import annotations

from . import poly as poly_mod
from .errors import DomainError
from .fields import _coerced, _Keyed
from .poly import Poly, _Value


class LaurentRing(_Keyed):
    def __init__(self, tring):
        self.tring = tring
        self.zero = LaurentT(self, tring.zero, 0)
        self.one = LaurentT(self, tring.one, 0)
        self._key = (tring,)
        self._hash = hash(self._key)

    def coerce(self, v):
        if isinstance(v, LaurentT):
            if v.ring == self:
                return v
            raise DomainError("Laurent value from a different ring")
        if isinstance(v, Poly) and v.ring == self.tring:
            return LaurentT(self, v, 0)
        return LaurentT(self, self.tring.coerce(v), 0)

    def shift(self, num, k):
        """The value num / T^k."""
        return LaurentT(self, self.tring.coerce(num), k)

    def __repr__(self):
        return f"{self.tring!r}[1/{self.tring.var}]"


class LaurentT(_Value):
    __slots__ = ("ring", "num", "k")

    def __init__(self, ring, num, k):
        if not num:
            num, k = ring.tring.zero, 0
        else:
            # num lies in F_q[T], on the index path
            val = 0
            cs = poly_mod._indices(num)
            while not cs[val]:
                val += 1
            if val:
                num = poly_mod._from_indices(num.ring, cs[val:])
                k -= val
        self.ring = ring
        self.num = num
        self.k = k

    @_coerced
    def __add__(self, o):
        k = max(self.k, o.k)
        a = self.num.shifted(k - self.k)
        b = o.num.shifted(k - o.k)
        return LaurentT(self.ring, a + b, k)

    __radd__ = __add__

    def __neg__(self):
        return LaurentT(self.ring, -self.num, self.k)

    @_coerced
    def __mul__(self, o):
        return LaurentT(self.ring, self.num * o.num, self.k + o.k)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e >= 0:
            return LaurentT(self.ring, self.num ** e, self.k * e)
        if self.num.degree != 0:
            raise DomainError("negative power of a non-unit Laurent value")
        c = self.num.constant_coeff() ** e
        return LaurentT(self.ring, Poly(self.num.ring, (c,)), self.k * e)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.k == 0 and self.num == other
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.k == o.k and self.num == o.num

    def __hash__(self):
        # a value with k <= 0 equals a polynomial, so it hashes as one
        if self.k <= 0:
            return hash(self.num.shifted(-self.k))
        return hash((self.ring._hash, self.num, self.k))

    def __bool__(self):
        return bool(self.num)
