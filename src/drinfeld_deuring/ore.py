"""Twisted polynomials in tau over a commutative coefficient ring.

The defining relation is tau * c = c^q * tau, so multiplication is
(f*g)_k = sum over i+j=k of f_i * (g_j)^(q^i).  The q-power twist is the
literal q-th power map of the coefficient ring; for polynomial and Laurent
coefficients in characteristic p it acts coefficient-wise and stretches
exponents by q, which `qpow` exploits instead of repeated multiplication.
"""

from __future__ import annotations

from .errors import DomainError
from .fields import FieldElement
from .laurent import LaurentT
from .poly import Poly


def qpow(v, q, k):
    """v^(q^k) computed structurally (freshman's dream in characteristic p)."""
    if k == 0:
        return v
    if isinstance(v, FieldElement):
        return v ** (q ** k)
    if isinstance(v, Poly):
        if not v:
            return v
        step = q ** k
        zero = v.ring.base.zero
        out = [zero] * (v.degree * step + 1)
        for i, c in enumerate(v.coeffs):
            if c:
                out[i * step] = qpow(c, q, k)
        return Poly(v.ring, out)
    if isinstance(v, LaurentT):
        return LaurentT(v.ring, qpow(v.num, q, k), v.k * q ** k)
    raise DomainError(f"no q-power twist for {type(v).__name__}")


class OreContext:
    def __init__(self, ring, q):
        self.ring = ring
        self.q = q
        self.zero = OrePoly(self, ())
        self.one = OrePoly(self, (ring.coerce(1),))
        self.tau = OrePoly(self, (ring.coerce(0), ring.coerce(1)))

    def coerce(self, v):
        if isinstance(v, OrePoly):
            if v.ctx is self or (v.ctx.q == self.q and v.ctx.ring == self.ring):
                return v
            raise DomainError("twisted polynomial from a different context")
        return OrePoly(self, (self.ring.coerce(v),))

    def op(self, coeffs):
        """Build a twisted polynomial from ascending tau-coefficients."""
        return OrePoly(self, tuple(self.ring.coerce(c) for c in coeffs))

    def __eq__(self, other):
        if not isinstance(other, OreContext):
            return NotImplemented
        return self.q == other.q and self.ring == other.ring

    def __hash__(self):
        return hash(("OreContext", hash(self.ring), self.q))


class OrePoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.ctx = ctx
        self.coeffs = coeffs[:n]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.ring.coerce(0)

    def _coerce_other(self, other):
        if isinstance(other, OrePoly):
            # a context mismatch is always an error, never a reflected-op case
            return self.ctx.coerce(other)
        try:
            return self.ctx.coerce(other)
        except DomainError:
            return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return OrePoly(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return self.ctx.zero
        q = self.ctx.q
        zero = self.ctx.ring.coerce(0)
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * qpow(y, q, i)
        return OrePoly(self.ctx, out)

    def __rmul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("twisted powers must be non-negative integers")
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            # compared as a constant, so that equal values hash alike
            return len(self.coeffs) <= 1 and self.coeff(0) == other
        try:
            o = self.ctx.coerce(other)
        except DomainError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash((hash(self.ctx), self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        from . import grammar

        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c:
                terms.append(grammar._term(grammar.render(c), "tau", i))
        return " + ".join(terms)


def ore_apply(f, x):
    """Evaluate f at a point: sum of f_i * x^(q^i)."""
    q = f.ctx.q
    acc = x * 0
    for i, c in enumerate(f.coeffs):
        if c:
            acc = acc + c * x ** (q ** i)
    return acc


def drinfeld_image(ctx, psi_T, a, scalar=None):
    """Image of a(T) under the module map T -> psi_T, by Horner evaluation.

    `a` is a polynomial over F_q; `scalar` lifts its coefficients into the
    context's coefficient ring (defaults to the ring's own coercion).
    """
    if scalar is None:
        scalar = ctx.ring.coerce
    if not a:
        return ctx.zero
    acc = ctx.coerce(scalar(a.lead))
    for i in range(a.degree - 1, -1, -1):
        acc = acc * psi_T
        c = a.coeffs[i]
        if c:
            acc = acc + ctx.coerce(scalar(c))
    return acc
