"""Element-level references for tests: routines the package replaced with
faster ones, kept to check those against."""

from drinfeld_deuring.errors import DomainError
from drinfeld_deuring.poly import Poly, poly_gcd


def monic_polys(ring, degree):
    """Every monic polynomial of the given degree over a finite field: the
    candidates that the modulus search and the prime enumeration replaced.

    Digit i of the running index is the degree-i coefficient, so the
    leading-end coefficients change slowest: the order is lexicographic on
    the coefficients read from the leading end down, comparing by index.
    """
    K = ring.base
    for idx in range(K.card ** degree):
        coeffs = []
        for _ in range(degree):
            idx, c = divmod(idx, K.card)
            coeffs.append(K.from_index(c))
        coeffs.append(K.one)
        yield Poly(ring, coeffs)


def exact_div(f, g):
    """f / g, which must leave no remainder."""
    q, r = divmod(f, g)
    if r:
        raise DomainError(f"division of {f!r} by {g!r} leaves remainder {r!r}")
    return q


def coprime_over_fraction_field(f, g):
    """gcd(f, g) = 1 over the fraction field of A, for f and g over A[s]
    with A = F_q[T]: a primitive pseudo-remainder sequence, which the
    Casoratian certificate of `check_simple_roots_generic` replaced."""
    if not g:
        return f.degree == 0
    f, g = _primitive(f), _primitive(g)
    while True:
        if g.degree == 0:
            return True
        r = _pseudo_rem(f, g)
        if not r:
            return False
        f, g = g, _primitive(r)


def _content(f):
    cs = [c for c in f.coeffs if c]
    g = cs[0]
    for c in cs[1:]:
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    return g


def _primitive(f):
    c = _content(f)
    if c.degree == 0 and c.lead == c.ring.base.one:
        return f
    return f.map_coeffs(lambda x: exact_div(x, c), f.ring)


def _pseudo_rem(f, g):
    lc = g.lead
    while f and f.degree >= g.degree:
        f = f * lc - g.shifted(f.degree - g.degree) * f.lead
    return f
