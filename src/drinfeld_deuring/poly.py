"""Dense univariate polynomials over an arbitrary coefficient ring.

Every polynomial holds its value `_v`, a normalized ascending tuple (no
trailing zeros).  The coefficient ring is described by a small object with
`zero`, `one` and `coerce`.  Over a finite field the value is the field's
index tuple, the form its index kernel (`fields.IndexKernel`) computes on:
degree, equality, hashing, sums, products, division, `powmod`, `poly_gcd`,
`is_irreducible`, evaluation and root finding read and write indices, and
a result from the kernel becomes a polynomial with no element looked up
(`_from_indices`, which `modulus` shares).  `coeffs`, the tuple of
`FieldElement`s, is then a view, built on its first read and kept; a
polynomial built from elements keeps the elements it was given.  Over any
other coefficient ring (F_q[T], Laurent polynomials, `MultiPoly`) the
value is the coefficient tuple itself, and the product loops over the
coefficients, which do their own arithmetic through operators; division
needs field coefficients.  The container, sums, powers and equality live
in `_Dense`, which twisted polynomials (`ore.OrePoly`) share on the
element path; `Poly` adds the commutative product, division and
evaluation.  `_Value` is the one home of what every ring value class
shares (`_Dense`, `laurent.LaurentT`, `multipoly.MultiPoly`,
`multipoly.Frac`): coercion of the other operand through its ring,
subtraction as a sum with the negation, and rendering by the grammar.
"""

from __future__ import annotations

import operator

from .errors import AmbientTooSmallError, CapExceededError, DomainError
from .fields import CARD_CAP, FieldElement, FiniteField, _coerced, _Keyed, \
    _power, _rendered, _trim


class PolyRing(_Keyed):
    def __init__(self, base, var):
        self.base = base
        self.var = var
        # the index kernel of a finite-field base, else None: set before
        # the first polynomial, whose value it decides
        self._kernel = base._kernel if isinstance(base, FiniteField) else None
        self.zero = Poly(self, ())
        self.one = Poly(self, (base.coerce(1),))
        self.gen = Poly(self, (base.coerce(0), base.coerce(1)))
        self._key = (base, var)
        self._hash = hash(self._key)

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

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


class _Value:
    """A value of a ring: the other operand of a binary operator coerced by
    `ring.coerce` (None, so NotImplemented, where that raises DomainError),
    a - b as a + (-b), and the grammar text as `repr`."""

    __slots__ = ()

    def _coerce_other(self, other):
        try:
            return self.ring.coerce(other)
        except DomainError:
            return None

    @_coerced
    def __sub__(self, o):
        return self + (-o)

    @_coerced
    def __rsub__(self, o):
        return o + (-self)

    __repr__ = _rendered


class _Dense(_Value):
    """Dense ascending coefficients over `ring`: the container, sums, powers
    and equality shared by plain and twisted polynomials.

    `ring` supplies `base` (the coefficient ring), `zero`, `one`, `var`,
    `_hash`, `coerce` and `_kernel`, the index kernel of a finite-field
    base or None; results keep the operand's class.  `_v` is the value:
    the index tuple where `_kernel` is set, else `coeffs` itself.
    """

    __slots__ = ("ring", "_v", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.ring = ring
        self.coeffs = coeffs = coeffs[:n]
        self._v = coeffs if ring._kernel is None \
            else tuple([c.index for c in coeffs])

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self._v) - 1

    @property
    def lead(self):
        if not self._v:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._v) - 1)

    def constant_coeff(self):
        return self.coeff(0)

    def coeff(self, i):
        v, ring = self._v, self.ring
        if not 0 <= i < len(v):
            return ring.base.zero
        return v[i] if ring._kernel is None else ring.base.from_index(v[i])

    def _coerce_other(self, other):
        if isinstance(other, type(self)) and (other.ring is self.ring
                                              or other.ring == self.ring):
            return other
        return super()._coerce_other(other)

    @_coerced
    def __add__(self, o):
        K = self.ring._kernel
        if K is not None:
            return _from_indices(self.ring, K.add_polys(self._v, o._v))
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
        K = self.ring._kernel
        if K is not None:
            return _from_indices(self.ring, K.scale(K._neg(1), self._v))
        return type(self)(self.ring, tuple(-c if c else c for c in self.coeffs))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("polynomial powers must be non-negative integers")
        return _power(self, e, self.ring.one, operator.mul)

    def __eq__(self, other):
        if isinstance(other, int):
            # compared as a constant, so that equal values hash alike
            return len(self._v) <= 1 and self.constant_coeff() == other
        try:
            o = self.ring.coerce(other)
        except DomainError:
            return NotImplemented
        return self._v == o._v

    def __hash__(self):
        # a constant hashes as its coefficient, which it compares equal to
        if len(self._v) <= 1:
            return hash(self.constant_coeff())
        return hash((self.ring._hash, self._v))

    def __bool__(self):
        return bool(self._v)


class Poly(_Dense):
    __slots__ = ()

    def __getattr__(self, name):
        # only `coeffs` of a polynomial over a finite field is ever unset:
        # its elements, built on the first read and kept
        if name != "coeffs":
            raise AttributeError(name)
        self.coeffs = c = tuple(self.ring.base._elements(self._v))
        return c

    @_coerced
    def __mul__(self, o):
        a, b = self._v, o._v
        if not a or not b:
            return self.ring.zero
        K = self.ring._kernel
        if K is not None:
            return _from_indices(self.ring, K.mul_polys(a, b))
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

    @_coerced
    def __divmod__(self, o):
        if not o:
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        K = _field_kernel(ring)
        if len(self._v) < len(o._v):
            return ring.zero, self
        quot, rem = K.divmod_polys(self._v, o._v)
        return _from_indices(ring, quot), _from_indices(ring, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        K = self.ring._kernel
        if K is not None and isinstance(x, FieldElement) \
                and x.field == self.ring.base:
            # Horner's rule on indices
            add, mul, xi, acc = K._add, K._mul, x.index, 0
            for c in reversed(self._v):
                acc = add(mul(acc, xi), c)
            return x.field.from_index(acc)
        # start from the zero of x's structure so mixed coefficient/argument
        # rings coerce through the accumulator's __add__
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, ring):
        return Poly(ring, tuple(fn(c) for c in self.coeffs))

    def monic(self):
        if not self._v:
            raise DomainError("zero polynomial cannot be made monic")
        K = self.ring._kernel
        if K is not None:
            return self if self._v[-1] == 1 else \
                _from_indices(self.ring, K.monic(self._v))
        lc = self.lead
        if lc == self.ring.base.one:
            return self
        inv = lc.inverse()
        return Poly(self.ring, tuple(c * inv for c in self.coeffs))

    def derivative(self):
        K = self.ring._kernel
        if K is None:
            return Poly(self.ring,
                        tuple(c * i for i, c in enumerate(self.coeffs) if i))
        # the integer i is the F_p element of index i mod p
        p, mul = K.p, K._mul
        out = [mul(i % p, c) for i, c in enumerate(self._v) if i]
        if out and not out[-1]:
            _trim(out)
        return _from_indices(self.ring, out)

    def shifted(self, k):
        """Multiply by var^k."""
        if not self._v:
            return self
        if self.ring._kernel is not None:
            return _from_indices(self.ring, (0,) * k + self._v)
        zero = self.ring.base.zero
        return Poly(self.ring, (zero,) * k + self.coeffs)


def _field_kernel(ring):
    if ring._kernel is None:
        raise DomainError("division needs field coefficients")
    return ring._kernel


def _indices(f):
    """The ascending coefficient indices of f, over a finite field: its
    value, read with no element built."""
    return f._v


def _from_indices(ring, idx, step=1, exponents=None):
    """The polynomial over the finite field of `ring` whose coefficient
    indices are idx, which the kernel leaves without trailing zeros, idx[j]
    at the power j * step of the variable, or at exponents[j] for a given
    increasing sequence, and zeros between: indices placed, and no element
    looked up."""
    if exponents is not None and idx:
        out = [0] * (exponents[len(idx) - 1] + 1)
        for e, c in zip(exponents, idx):
            out[e] = c
        idx = out
    elif step > 1 and idx:
        out = [0] * (step * (len(idx) - 1) + 1)
        out[::step] = idx
        idx = out
    f = Poly.__new__(Poly)
    f.ring = ring
    f._v = tuple(idx)
    return f


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm (field coefficients)."""
    if not f and not g:
        raise DomainError("gcd(0, 0) is undefined")
    ring = f.ring
    return _from_indices(ring, _field_kernel(ring).gcd(f._v, g._v))


def powmod(g, e, f):
    if not isinstance(e, int) or e < 0:
        raise DomainError("polynomial powers must be non-negative integers")
    if not f:
        raise ZeroDivisionError("polynomial division by zero")
    ring = f.ring
    return _from_indices(ring, _field_kernel(ring).powmod(g._v, e, f._v))


def is_irreducible(f):
    """Gcd-with-Frobenius irreducibility test over a finite field."""
    if not isinstance(f.ring.base, FiniteField):
        raise DomainError("irreducibility test needs finite-field coefficients")
    n = f.degree
    if n < 1:
        raise DomainError("irreducibility is undefined for constants")
    if n == 1:
        return True
    return f.ring._kernel.is_irreducible(f._v)


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
        g = f._v
    else:
        E = K.extension(m)
        emb = E._base_emb
        g = [emb[c] for c in f._v]
    k = E._kernel
    roots = k.distinct_roots(g)
    if len(roots) == f.degree:
        # deg f distinct roots: each is simple
        return E._elements(roots)
    out = []
    for r in roots:
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
