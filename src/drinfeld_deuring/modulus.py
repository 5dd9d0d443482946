"""Prime ideals of F_q[T] and reduction to the residue field kappa.

A PrimeModulus wraps a monic irreducible p(T) != T over the designated base
field F_q.  Its residue field kappa = F_q[T]/(p) is built as a field extension
whose defining modulus is p itself, so the extension generator `a` is exactly
the image of T, and reduction mod p is evaluation at `a`.
"""

from __future__ import annotations

import functools

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
        if p == p.ring.gen:
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
        terms = [(e, c) for e, c in enumerate(poly_mod._indices(f)) if c]
        return self.kappa.from_index(self._reduce_terms([terms])[0])

    def _reduce_terms(self, rows):
        """[kappa index of sum(c * alpha^e)] over the term lists `rows` by
        `IndexKernel.evaluate`, c the F_q index of a nonzero coefficient:
        reduction mod p of polynomials in T, over the given terms only."""
        return self.kappa._kernel.evaluate(rows, self.alpha.index,
                                           self.field_q.degree)

    def _poly_in_y(self, idx):
        """The polynomial over kappa in s whose coefficient indices in
        y = s^(q-1) are idx (no trailing zeros): nonzero only on that
        stride, where H and U_d can be nonzero."""
        return poly_mod._from_indices(self.s_ring, idx, self.q - 1)

    def _on_exponents(self, a):
        """The index list in s of the index list a on digit masks, as
        `_poly_on_masks` places it."""
        return list(poly_mod._indices(self._poly_on_masks(a)))

    def _poly_on_masks(self, idx):
        """The polynomial over kappa in s whose coefficient indices on digit
        masks are idx (no trailing zeros): slot m of idx goes to
        s^(sum_{j in m} q^j), and zeros between.  The map is increasing in
        m, so idx's top slot stays on top; at q = 2 it is the identity."""
        q = self.q
        if q == 2 or len(idx) <= 1:
            return poly_mod._from_indices(self.s_ring, idx)
        return poly_mod._from_indices(
            self.s_ring, idx,
            exponents=_mask_exponents(q, (len(idx) - 1).bit_length()))

    def __repr__(self):
        return f"({self.p_poly!r}) over F_{self.q}"


@functools.lru_cache(maxsize=64)
def _mask_exponents(q, k):
    """The exponents sum_{j in m} q^j of the k-bit digit masks m, in mask
    order, memoised per (q, k): every h and g_k of a degree places its
    masks by the same list."""
    exps = [0]
    for j in range(k):
        qj = q ** j
        exps += [e + qj for e in exps]
    return tuple(exps)


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
    c*T^e of num to c*alpha^(e - k) in one _reduce_terms pass, one term list
    per coefficient; a bare T-polynomial reduces to a kappa element.
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
    idx = p._reduce_terms(
        [(e - k, c) for e, c in enumerate(poly_mod._indices(num)) if c]
        for num, k in values)
    if idx and not idx[-1]:
        fields._trim(idx)
    var = f.ring.var
    return poly_mod._from_indices(
        p.s_ring if var == "s" else PolyRing(p.kappa, var), idx)


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
