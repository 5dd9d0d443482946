"""Twisted polynomials in tau over a commutative coefficient ring.

The defining relation is tau * c = c^q * tau, so multiplication is
(f*g)_k = sum over i+j=k of f_i * (g_j)^(q^i).  The q-power twist is the
literal q-th power map of the coefficient ring; for polynomial and Laurent
coefficients in characteristic p it acts coefficient-wise and stretches
exponents by q, which `qpow` exploits instead of repeated multiplication.
No other module of the package takes the image of p(T) (`drinfeld_image`):
it is public API, and the tests' oracle for `drinfeld.is_supersingular`.
"""

from __future__ import annotations

from .errors import DomainError
from .fields import FieldElement, _coerced, _Keyed
from .laurent import LaurentT
from .poly import Poly, _Dense


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


class OreContext(_Keyed):
    """The twisted ring base{tau}; the coefficient ring is `base`."""

    var = "tau"
    # twisted polynomials keep the element path (`poly._Dense`)
    _kernel = None

    def __init__(self, base, q):
        self.base = base
        self.q = q
        self.zero = OrePoly(self, ())
        self.one = OrePoly(self, (base.coerce(1),))
        self.tau = OrePoly(self, (base.coerce(0), base.coerce(1)))
        self._key = (base, q)
        self._hash = hash(self._key)

    def coerce(self, v):
        if isinstance(v, OrePoly):
            if v.ring == self:
                return v
            raise DomainError("twisted polynomial from a different context")
        return OrePoly(self, (self.base.coerce(v),))

    def op(self, coeffs):
        """Build a twisted polynomial from ascending tau-coefficients."""
        return OrePoly(self, tuple(self.base.coerce(c) for c in coeffs))


class OrePoly(_Dense):
    """A twisted polynomial: `Poly`'s container with the product
    tau * c = c^q * tau."""

    __slots__ = ()

    def _coerce_other(self, other):
        if isinstance(other, OrePoly):
            # a context mismatch is always an error, never a reflected-op case
            return self.ring.coerce(other)
        return super()._coerce_other(other)

    @_coerced
    def __mul__(self, o):
        a, b = self.coeffs, o.coeffs
        ring = self.ring
        if not a or not b:
            return ring.zero
        q = ring.q
        out = [ring.base.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * qpow(y, q, i)
        return OrePoly(ring, out)

    @_coerced
    def __rmul__(self, o):
        return o * self


def ore_apply(f, x):
    """Evaluate f at a point: sum of f_i * x^(q^i)."""
    q = f.ring.q
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
        scalar = ctx.base.coerce
    if not a:
        return ctx.zero
    acc = ctx.coerce(scalar(a.lead))
    for i in range(a.degree - 1, -1, -1):
        acc = acc * psi_T
        c = a.coeffs[i]
        if c:
            acc = acc + ctx.coerce(scalar(c))
    return acc
