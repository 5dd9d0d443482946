"""Sparse multivariate polynomials and fractions over a finite field.

A polynomial is the term map {key: F_q index} of its nonzero terms, the key
packing the exponent tuple (one slot per variable, in the ring's fixed name
order) as sum(e_i * _STRIDE^(n-1-i)), so key order is tuple order.  A term
times a term adds keys, so +, negation and x are each one
`IndexKernel.sum_copies`; the constructor and `terms` speak exponent tuples
and elements.  Exponents stay below 2^31, half the stride, so no product
carries into the next variable: one outside [0, 2^31) in the constructor,
or one that a product or a power would take to 2^31, raises DomainError.
Over a field above 2^8 elements `sum_copies` builds no table of sums, which
over F_(2^16) would have 2^32 entries.  Term order for rendering is graded
lexicographic, comparing total degree first and then the exponent tuple
left to right.  Fractions compare by cross-multiplication and never reduce,
which is fine at the desk scales of the tower identities.
"""

from __future__ import annotations

import operator

from .errors import DomainError
from .fields import FieldElement, _coerced, _Keyed, _power
from .poly import _Value

_STRIDE = 1 << 32


class MultiRing(_Keyed):
    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        if not self.names:
            raise DomainError("a polynomial ring needs at least one variable")
        self.nvars = len(self.names)
        # the key of a unit exponent per variable, and of 2^31 in every slot
        self._units = [_STRIDE ** (self.nvars - 1 - i)
                       for i in range(self.nvars)]
        self._high = sum(self._units) << 31
        self.zero = MultiPoly(self, {})
        zero_exp = (0,) * self.nvars
        self.one = MultiPoly(self, {zero_exp: field.one})
        self._key = (field, self.names)
        self._hash = hash(self._key)

    def gens(self):
        out = []
        for i in range(self.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            out.append(MultiPoly(self, {e: self.field.one}))
        return tuple(out)

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero
        return MultiPoly(self, {(0,) * self.nvars: c})

    def coerce(self, v):
        if isinstance(v, MultiPoly):
            if v.ring == self:
                return v
            raise DomainError("multivariate value from a different ring")
        return self.const(v)

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"


class MultiPoly(_Value):
    __slots__ = ("ring", "packed")

    def __init__(self, ring, terms):
        if any(len(e) != ring.nvars or not all(0 <= x < 1 << 31 for x in e)
               for e in terms):
            raise DomainError("multivariate exponents lie in [0, 2^31)")
        self.ring = ring
        self.packed = {sum(x * u for x, u in zip(e, ring._units)):
                       ring.field.coerce(c).index
                       for e, c in terms.items() if c}

    @property
    def terms(self):
        """{exponent tuple: element} over the nonzero terms."""
        units, elt = self.ring._units, self.ring.field.from_index
        return {tuple(k // u % _STRIDE for u in units): elt(x)
                for k, x in self.packed.items()}

    def _sum(self, copies):
        f = MultiPoly(self.ring, {})
        f.packed = self.ring.field._kernel.sum_copies(copies)
        return f

    @_coerced
    def __add__(self, o):
        return self._sum(((self.packed, 1, 0), (o.packed, 1, 0)))

    __radd__ = __add__

    def __neg__(self):
        return self._sum(((self.packed, self.ring.field._neg(1), 0),))

    @_coerced
    def __sub__(self, o):
        return self._sum(((self.packed, 1, 0),
                          (o.packed, self.ring.field._neg(1), 0)))

    @_coerced
    def __mul__(self, o):
        a, b = self.packed, o.packed
        if len(a) < len(b):
            a, b = b, a
        # one copy of the longer operand per term of the shorter
        out = self._sum([(a, c, key) for key, c in b.items()])
        if any(key & self.ring._high for key in out.packed):
            raise DomainError("a product exponent reaches 2^31")
        return out

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("multivariate powers must be non-negative integers")
        return _power(self, e, self.ring.one, operator.mul)

    def degree(self, var=None):
        """Total degree, or degree in one named variable; -1 for zero."""
        if not self.packed:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = self.ring.names.index(var)
        return max(e[i] for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def evaluate(self, values):
        """Substitute a value (element, MultiPoly or Frac) for every variable."""
        missing = [n for n in self.ring.names if n not in values]
        if missing:
            raise DomainError(f"no value supplied for {missing}")
        acc = None
        for e, c in self.terms.items():
            term = None
            for name, exp in zip(self.ring.names, e):
                if exp:
                    f = values[name] ** exp
                    term = f if term is None else term * f
            term = c if term is None else term * c
            acc = term if acc is None else acc + term
        if acc is None:
            first = next(iter(values.values()))
            return first * 0
        return acc

    @_coerced
    def __eq__(self, o):
        return self.packed == o.packed

    def __bool__(self):
        return bool(self.packed)


class Frac(_Value):
    """num/den over a MultiRing, with cross-multiplication equality."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.ring.one
        if not den:
            raise ZeroDivisionError("fraction with zero denominator")
        self.num = num
        self.den = den

    def _coerce_other(self, other):
        if isinstance(other, Frac):
            return other
        if isinstance(other, (MultiPoly, FieldElement, int)):
            try:
                return Frac(self.num.ring.coerce(other))
            except DomainError:
                return None
        return None

    @_coerced
    def __add__(self, o):
        return Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den)

    @_coerced
    def __mul__(self, o):
        return Frac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        if not o.num:
            raise ZeroDivisionError("division by the zero fraction")
        return Frac(self.num * o.den, self.den * o.num)

    @_coerced
    def __rtruediv__(self, o):
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e >= 0:
            return Frac(self.num ** e, self.den ** e)
        if not self.num:
            raise ZeroDivisionError("negative power of the zero fraction")
        return Frac(self.den ** (-e), self.num ** (-e))

    @_coerced
    def __eq__(self, o):
        return self.num * o.den == o.num * self.den

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"
