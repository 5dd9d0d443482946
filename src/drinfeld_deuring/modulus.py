"""Prime ideals of F_q[T] and reduction to the residue field kappa.

A PrimeModulus wraps a monic irreducible p(T) != T over the designated base
field F_q.  Its residue field kappa = F_q[T]/(p) is built as a field extension
whose defining modulus is p itself, so the extension generator `a` is exactly
the image of T, and reduction mod p is evaluation at `a`.
"""

from __future__ import annotations

from . import poly as poly_mod
from .errors import CapExceededError, DomainError
from .fields import CARD_CAP, FieldElement, FiniteField, _cap_exponent
from .laurent import LaurentRing
from .poly import Poly, PolyRing


class PrimeModulus:
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

    def _setup(self, p):
        """Set up the prime of p, which is monic, irreducible and not T."""
        base = p.ring.base
        if base.q != base.card:
            raise DomainError("prime moduli live over a designated base field F_q")
        self.p_poly = p
        self.field_q = base
        self.q = base.card
        self.d = p.degree
        self.kappa = base.extension_with_modulus(p.coeffs, gen_name="a")
        self.alpha = self.kappa.gen
        # kappa log of each nonzero base-field element, by base index; built
        # lazily
        self._embed_log = None

    def gamma(self, f):
        """Reduce a polynomial in T (or a base-field element) into kappa."""
        if isinstance(f, FieldElement):
            return self.kappa.embed_from_base(self.field_q.coerce(f))
        if not (isinstance(f, Poly) and f.ring == self.p_poly.ring):
            raise DomainError("gamma expects a polynomial over the same F_q[T]")
        terms = ((e, c.index) for e, c in enumerate(f.coeffs) if c)
        return self.kappa.from_index(self._reduce_terms([(0, terms)])[0])

    def _reduce_terms(self, rows):
        """{r: kappa index of sum(c * alpha^e)} over the (r, terms) pairs of
        `rows`, each term an (e, c) pair with c the F_q index of a nonzero
        coefficient, and the sums of a repeated r added: reduction mod p of
        one or more polynomials in T, over the given terms only."""
        k = self.kappa._kernel
        log, exp, m1, add = k.log, k.exp, k.m1, k._add
        if self._embed_log is None:
            K, F = self.kappa, self.field_q
            self._embed_log = [log[K.embed_from_base(F.from_index(i)).index]
                               for i in range(self.q)]
        # c * alpha^e = exp[log emb(c) + e log alpha]; both logs are < m1
        emb, la = self._embed_log, log[self.alpha.index]
        out = {}
        for r, terms in rows:
            acc = out.get(r, 0)
            for e, c in terms:
                acc = add(acc, exp[emb[c] + e * la % m1])
            out[r] = acc
        return out

    def _kappa_poly(self, rows, var="s"):
        """The polynomial over kappa with coefficient indices rows[r]."""
        K = self.kappa
        return Poly(PolyRing(K, var), [K.from_index(rows.get(r, 0))
                                       for r in range(max(rows, default=-1) + 1)])

    def __eq__(self, other):
        if not isinstance(other, PrimeModulus):
            return NotImplemented
        return self.p_poly == other.p_poly and self.field_q == other.field_q

    def __hash__(self):
        return hash(("PrimeModulus", self.p_poly))

    def __repr__(self):
        return f"({self.p_poly!r}) over F_{self.q}"


def check_residue_degree(q, d):
    """CapExceededError unless a residue field F_q[T]/(p) with deg p = d
    fits under CARD_CAP.  q^d is never formed, so a huge d is refused at
    once."""
    if d > _cap_exponent(q):
        raise CapExceededError(f"residue field of cardinality {q}^{d} "
                               f"exceeds the {CARD_CAP} cap")


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
    raises CapExceededError before any candidate is built.
    """
    if d < 1:
        raise DomainError("prime degree must be positive")
    check_residue_degree(field.card, d)
    ring = t_poly_ring(field)
    for f in poly_mod._monic_polys(ring, d):
        if f.coeffs != ring.gen.coeffs and poly_mod.is_irreducible(f):
            prime = PrimeModulus.__new__(PrimeModulus)  # f is tested once
            prime._setup(f)
            yield prime


def primes_up_to_degree(field, dmax):
    for d in range(1, dmax + 1):
        yield from primes_of_degree(field, d)
