"""Dense univariate polynomials over an arbitrary coefficient ring.

Coefficients are stored as a normalized ascending tuple (no trailing zeros).
The coefficient ring is described by a small object with `zero`, `one` and
`coerce`.  Over a finite field, products, division, `powmod`, `poly_gcd`,
`is_irreducible` and root finding run in the field's index kernel
(`fields.IndexKernel`): the coefficients become ascending lists of element
indices once on the way in, and elements once on the way out.  Over any
other coefficient ring (F_q[T], Laurent polynomials, `MultiPoly`) the
product loops over the coefficients, which do their own arithmetic through
operators; division needs field coefficients.  The container, sums, powers,
equality and rendering live in `_Dense`, which twisted polynomials
(`ore.OrePoly`) share; `Poly` adds the commutative product, division and
evaluation.
"""

from __future__ import annotations

from .errors import AmbientTooSmallError, CapExceededError, DomainError
from .fields import CARD_CAP, FiniteField, _digits, embed


class PolyRing:
    def __init__(self, base, var):
        self.base = base
        self.var = var
        self.zero = Poly(self, ())
        self.one = Poly(self, (base.coerce(1),))
        self.gen = Poly(self, (base.coerce(0), base.coerce(1)))
        self._hash = hash(("PolyRing", hash(base), var))
        # the index kernel of a finite-field base, else None
        self._kernel = base._kernel if isinstance(base, FiniteField) else None

    def const(self, c):
        return Poly(self, (self.base.coerce(c),))

    def coerce(self, v):
        if isinstance(v, Poly):
            if v.ring == self:
                return v
            # allow a polynomial from the base ring as a constant
            c = self.base.coerce(v)
            return Poly(self, (c,))
        return Poly(self, (self.base.coerce(v),))

    def poly(self, coeffs):
        """Build a polynomial from ascending coefficients, coercing each."""
        return Poly(self, tuple(self.base.coerce(c) for c in coeffs))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.var == other.var and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


class _Dense:
    """Dense ascending coefficients over `ring`: the container, sums, powers,
    equality and rendering shared by plain and twisted polynomials.

    `ring` supplies `base` (the coefficient ring), `zero`, `one`, `var`,
    `_hash` and `coerce`; results keep the operand's class.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.ring = ring
        self.coeffs = coeffs[:n]

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coeff(self):
        return self.coeffs[0] if self.coeffs else self.ring.base.zero

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.base.zero

    def _coerce_other(self, other):
        if isinstance(other, type(self)) and (other.ring is self.ring
                                              or other.ring == self.ring):
            return other
        try:
            return self.ring.coerce(other)
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
            if c:
                out[i] = out[i] + c
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.ring, tuple(-c if c else c for c in self.coeffs))

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

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("polynomial powers must be non-negative integers")
        result = self.ring.one
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
            return len(self.coeffs) <= 1 and self.constant_coeff() == other
        try:
            o = self.ring.coerce(other)
        except DomainError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if len(self.coeffs) <= 1:
            return hash(self.constant_coeff())
        return hash((self.ring._hash, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        from . import grammar

        return grammar.render(self)


class Poly(_Dense):
    __slots__ = ()

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return self.ring.zero
        ring = self.ring
        K = ring._kernel
        if K is not None:
            return _from_indices(ring, K.mul_polys([c.index for c in a],
                                                   [c.index for c in b]))
        if len(b) == 1:
            c = b[0]
            return Poly(self.ring, tuple(x * c if x else x for x in a))
        if len(a) == 1:
            c = a[0]
            return Poly(self.ring, tuple(c * x if x else x for x in b))
        zero = self.ring.base.zero
        out = [zero] * (len(a) + len(b) - 1)
        # only the nonzero terms of either operand meet
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] = out[i + j] + x * y
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        K = _field_kernel(ring)
        if len(self.coeffs) < len(o.coeffs):
            return ring.zero, self
        quot, rem = K.divmod_polys(_indices(self), _indices(o))
        return _from_indices(ring, quot), _from_indices(ring, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        # start from the zero of x's structure so mixed coefficient/argument
        # rings coerce through the accumulator's __add__
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, ring):
        return Poly(ring, tuple(fn(c) for c in self.coeffs))

    def monic(self):
        if not self.coeffs:
            raise DomainError("zero polynomial cannot be made monic")
        lc = self.lead
        if lc == self.ring.base.one:
            return self
        inv = lc.inverse()
        return Poly(self.ring, tuple(c * inv for c in self.coeffs))

    def derivative(self):
        return Poly(self.ring,
                    tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def shifted(self, k):
        """Multiply by var^k."""
        if not self.coeffs:
            return self
        zero = self.ring.base.zero
        return Poly(self.ring, (zero,) * k + self.coeffs)


def _field_kernel(ring):
    if ring._kernel is None:
        raise DomainError("division needs field coefficients")
    return ring._kernel


def _indices(f):
    return [c.index for c in f.coeffs]


def _from_indices(ring, idx):
    """The polynomial over the finite field of `ring` whose coefficient
    indices are idx, which the kernel leaves without trailing zeros."""
    f = Poly.__new__(Poly)
    f.ring = ring
    f.coeffs = tuple(ring.base._elements(idx))
    return f


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm (field coefficients)."""
    if not f and not g:
        raise DomainError("gcd(0, 0) is undefined")
    ring = f.ring
    return _from_indices(ring, _field_kernel(ring).gcd(_indices(f),
                                                       _indices(g)))


def exact_div(f, g, exc=DomainError):
    q, r = divmod(f, g)
    if r:
        raise exc(f"division of {f!r} by {g!r} leaves remainder {r!r}")
    return q


def powmod(g, e, f):
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    ring = f.ring
    return _from_indices(ring, _field_kernel(ring).powmod(_indices(g), e,
                                                          _indices(f)))


def is_irreducible(f):
    """Gcd-with-Frobenius irreducibility test over a finite field."""
    if not isinstance(f.ring.base, FiniteField):
        raise DomainError("irreducibility test needs finite-field coefficients")
    n = f.degree
    if n < 1:
        raise DomainError("irreducibility is undefined for constants")
    if n == 1:
        return True
    return f.ring._kernel.is_irreducible(_indices(f))


def _monic_polys(ring, degree):
    """Every monic polynomial of the given degree over a finite field.

    Digit i of the running index is the degree-i coefficient, so the
    leading-end coefficients change slowest: the order is lexicographic on
    the coefficients read from the leading end down, comparing by index.
    """
    K = ring.base
    for idx in range(K.card ** degree):
        coeffs = [K.from_index(c) for c in _digits(idx, K.card, degree)]
        coeffs.append(K.one)
        yield Poly(ring, coeffs)


def roots_in_extension(f, m):
    """Roots of f in the degree-m extension, with multiplicity.

    Returns a list of elements of the extension (repeats indicate multiple
    roots), ordered by element index.  The roots come from gcds with
    Frobenius powers of x, not from evaluating f.  The extension must stay
    within the 2^16 cardinality cap: building it raises CapExceededError.
    """
    K = f.ring.base
    if not isinstance(K, FiniteField):
        raise DomainError("root search needs finite-field coefficients")
    if f.degree < 0:
        raise DomainError("root search of the zero polynomial")
    if m == 1:
        E = K
        g = _indices(f)
    else:
        E = K.extension(m)
        g = [embed(c, E).index for c in f.coeffs]
    k = E._kernel
    out = []
    for r in k.distinct_roots(g):
        lin = [k._neg(r), 1]
        mult = 0
        while True:
            q, rem = k.divmod_polys(g, lin)
            if rem:
                break
            g = q
            mult += 1
        out.extend([r] * mult)
    return E._elements(out)


def splitting_degree(f, max_m):
    """Smallest m <= max_m such that f splits completely in F_{q^m}."""
    n = f.degree
    for m in range(1, max_m + 1):
        try:
            if len(roots_in_extension(f, m)) == n:
                return m
        except CapExceededError:
            break
    raise AmbientTooSmallError(
        f"a polynomial of degree {n} does not split in any extension "
        f"within the {CARD_CAP}-element cap")
