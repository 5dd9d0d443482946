"""Prime ideals of F_q[T] and reduction to the residue field kappa.

A PrimeModulus wraps a monic irreducible p(T) != T over the designated base
field F_q.  Its residue field kappa = F_q[T]/(p) is built as a field extension
whose defining modulus is p itself, so the extension generator `a` is exactly
the image of T, and reduction mod p is evaluation at `a`.
"""

from __future__ import annotations

from . import fields
from . import poly as poly_mod
from .errors import DomainError
from .fields import FieldElement, FiniteField, _Keyed
from .laurent import LaurentRing
from .poly import Poly, PolyRing


class PrimeModulus(_Keyed):
    def __init__(self, p):
        if not isinstance(p, Poly) or not isinstance(p.ring.base, FiniteField):
            raise DomainError("a prime modulus must be a polynomial over F_q")
        base = p.ring.base
        if p.degree < 1:
            raise DomainError("a prime modulus must have positive degree")
        # before the irreducibility test, which is slow long before the cap
        check_residue_degree(base.card, p.degree)
        p = p.monic()
        if p.coeffs == p.ring.gen.coeffs:
            raise DomainError("the prime T is excluded (gamma(T) must be a unit)")
        if not poly_mod.is_irreducible(p):
            raise DomainError(f"{p!r} is not irreducible over F_{base.card}")
        self._setup(p)

    def _setup(self, p, _root=None):
        """Set up the prime of p, which is monic, irreducible and not T;
        _root, if given, is the index of p's designated root in kappa."""
        base = p.ring.base
        _check_designated(base)
        self.p_poly = p
        self.field_q = base
        self._key = (p, base)
        self._hash = hash(self._key)
        self.q = base.card
        self.d = p.degree
        self.kappa = base.extension_with_modulus(p.coeffs, gen_name="a",
                                                 _root=_root)
        self.alpha = self.kappa.gen
        # kappa[s], the ring of every h route's result, built once per prime
        self.s_ring = PolyRing(self.kappa, "s")

    def gamma(self, f):
        """Reduce a polynomial in T (or a base-field element) into kappa."""
        if isinstance(f, FieldElement):
            return self.kappa.embed_from_base(self.field_q.coerce(f))
        if not (isinstance(f, Poly) and f.ring == self.p_poly.ring):
            raise DomainError("gamma expects a polynomial over the same F_q[T]")
        terms = ((e, c.index) for e, c in enumerate(f.coeffs) if c)
        return self.kappa.from_index(self._reduce_terms([(0, terms)])[0])

    def _reduce_terms(self, rows):
        """{r: kappa index of sum(c * alpha^e)} by `IndexKernel.evaluate` of
        the (r, terms) rows, c the F_q index of a nonzero coefficient:
        reduction mod p of polynomials in T, over the given terms only."""
        return self.kappa._kernel.evaluate(rows, self.alpha.index,
                                           self.field_q.degree)

    def _kappa_poly(self, rows, var="s"):
        """The polynomial over kappa with coefficient indices rows[r]."""
        # U_d's map is sparse, one term per 64 slots at (64, 2)
        nonzero = {r: x for r, x in rows.items() if x}
        idx = [0] * (max(nonzero, default=-1) + 1)
        for r, x in nonzero.items():
            idx[r] = x
        ring = self.s_ring if var == "s" else PolyRing(self.kappa, var)
        return poly_mod._from_indices(ring, idx)

    def _poly_in_y(self, idx):
        """The polynomial over kappa in s whose coefficient indices in
        y = s^(q-1) are idx: elements only on that stride, where H and U_d
        can be nonzero."""
        step = self.q - 1
        coeffs = [self.kappa.zero] * (step * (len(idx) - 1) + 1)
        coeffs[::step] = self.kappa._elements(idx)
        return Poly(self.s_ring, coeffs)

    def _on_exponents(self, a, zero=0):
        """The list in s of the list a on digit masks, zero-filled: slot m
        of a goes to s^(sum_{j in m} q^j).  The map is increasing in m, so
        a's top slot stays on top; at q = 2 it is the identity."""
        q = self.q
        if q == 2 or len(a) <= 1:
            return a
        exps, qj = [0], 1
        while len(exps) < len(a):
            exps += [e + qj for e in exps]
            qj *= q
        out = [zero] * (exps[len(a) - 1] + 1)
        for e, c in zip(exps, a):
            out[e] = c
        return out

    def _poly_on_masks(self, idx):
        """The polynomial over kappa in s whose coefficient indices on digit
        masks are idx, with elements only on the masks' exponents."""
        kappa = self.kappa
        return Poly(self.s_ring,
                    self._on_exponents(kappa._elements(idx), kappa.zero))

    def __repr__(self):
        return f"({self.p_poly!r}) over F_{self.q}"


def _check_designated(field):
    if field.q != field.card:
        raise DomainError("prime moduli live over a designated base field F_q")


def check_residue_degree(q, d):
    """CapExceededError unless a residue field F_q[T]/(p) with deg p = d
    fits under the cap (`fields.check_cap`)."""
    fields.check_cap("residue field", q, d)


def reduce_mod_prime(f, p):
    """Reduce coefficients mod p: F_q[T] -> kappa and 1/T -> alpha^(-1).

    Accepts a polynomial whose coefficients are polynomials in T or Laurent
    values num/T^k, and returns the polynomial over kappa, reducing each term
    c*T^e of num to c*alpha^(e - k) in one _reduce_terms pass; a bare
    T-polynomial reduces to a kappa element.
    """
    if isinstance(f, Poly) and f.ring == p.p_poly.ring:
        return p.gamma(f)
    if not isinstance(f, Poly):
        raise DomainError("reduce_mod_prime expects a polynomial")
    base = f.ring.base
    if isinstance(base, PolyRing) and base == p.p_poly.ring:
        values = [(c, 0) for c in f.coeffs]
    elif isinstance(base, LaurentRing) and base.tring == p.p_poly.ring:
        values = [(c.num, c.k) for c in f.coeffs]
    else:
        raise DomainError(f"cannot reduce coefficients from {base!r} mod {p!r}")
    rows = p._reduce_terms(
        (r, [(e - k, c.index) for e, c in enumerate(num.coeffs) if c])
        for r, (num, k) in enumerate(values))
    return p._kappa_poly(rows, f.ring.var)


def t_poly_ring(field):
    """The polynomial ring F_q[T] over a designated base field."""
    return PolyRing(field, "T")


def primes_of_degree(field, d):
    """All monic irreducible p(T) != T of degree d, in deterministic order.

    Order is lexicographic on the coefficient tuple read from the leading end
    down, comparing base-field elements by index.  A degree d over the cap
    raises CapExceededError, and a base field that is not a designated F_q
    DomainError, before any table is built.

    The primes come from the Frobenius orbits of F_(q^d), the tables of
    every kappa of degree d: x -> x^q fixes exactly F_q, so the orbit of x
    has length d exactly when x lies in no proper subfield F_(q^e), e | d,
    e < d, and then its minimal polynomial over F_q is prod (T - x) over
    the orbit, irreducible of degree d.  Every such polynomial is reached,
    once per root, so once per orbit; no irreducibility test and no
    candidate is needed.  Read back into F_q through kappa's embedding of
    F_q, the orbit is the root set of p in kappa, so its least element is
    the designated root that kappa would find by splitting p: it is passed
    on, and kappa finds no root.  The polynomials are sorted into the order
    above, which is that of the candidates of `fields._least_irreducible`.
    The walk is eager: the first prime comes after all of degree d are found
    (a few tenths of a second at q^d = 2^16, the cap).
    """
    if d < 1:
        raise DomainError("prime degree must be positive")
    check_residue_degree(field.card, d)
    _check_designated(field)
    kernel = fields._abs_tables(field.p, field.degree * d)
    # the F_q index of each kappa index of F_q
    back = {e: c for c, e in enumerate(kernel.embedding(field.degree))}
    found = sorted((([back[c] for c in f], root) for f, root
                    in kernel.frobenius_orbits(field.q, d)),
                   key=lambda pair: pair[0][::-1])
    ring = t_poly_ring(field)
    for coeffs, root in found:
        prime = PrimeModulus.__new__(PrimeModulus)
        prime._setup(poly_mod._from_indices(ring, coeffs), _root=root)
        yield prime


def primes_up_to_degree(field, dmax):
    for d in range(1, dmax + 1):
        yield from primes_of_degree(field, d)
