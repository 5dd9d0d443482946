"""Universal supersingularity sequences over F_q[T] and F_q[T, 1/T].

u_{-1} = 0, u_0 = 1 and

    u_{i+1} = (s + T^q)^(q^i) * u_i - (T^(q^i) - T) * s^(q^i) * u_{i-1}

over A[s] with A = F_q[T].  The normalized variant runs over A[1/T][s]:
U_0 = 1 and

    U_{i+1} = ((s^q - s)^(q-1) + 1/T^(q-1))^(q^i) * U_i
              - (T^(q^i) - T)/T^(q^(i+1)) * (s^q - s)^((q-1)*q^(i-1)) * U_{i-1}

with the second term absent at i = 0.  Reducing u_d (resp. U_d) mod a prime
p(T) of degree d yields the Deuring polynomial h (resp. its companion H).

Both sequences are built and cached as term maps: one dict per u_i or U_i,
{t * _T_STRIDE + e: c} for each nonzero term c * T^t * s^e, c the F_q index
of the coefficient.  In U_i the exponent t may be negative (the powers of
1/T); divmod(key, _T_STRIDE) recovers (t, e) either way, since 0 <= e <
_T_STRIDE.  Multiplying by c * T^t * s^e then scales every coefficient by c
and adds the same offset to every key.  Each u-step is a signed sum of four
such copies.  With C = (s^q - s)^(q-1), which has exactly q nonzero terms
and coefficients in F_q (fixed by Frobenius), the q^i-th power of U_1 is
C(s^(q^i)) + T^(-(q-1)*q^i), so each U-step is a sum of 3q + 1 copies: no
products.  Reduction mod p visits the nonzero terms only; u_sequence and
U_sequence convert to polynomials over F_q[T] and F_q[T, 1/T] for their
callers.

The derivative sequence (d/ds u_i) satisfies the u-recursion for steps
i >= 1 only: the i = 0 step would force u_1' = 0, but u_1 = s + T^q has
u_1' = 1.  `check_derivative_recursion` therefore requires i >= 1.
"""

from __future__ import annotations

from .errors import DomainError
from .laurent import LaurentRing, LaurentT
from .modulus import t_poly_ring
from .poly import Poly, PolyRing, exact_div, poly_gcd

_u_cache = {}
_U_cache = {}
# the key stride of the term maps (module docstring): deg_s U_i < q^(i+1)
# stays far below it for every U_i small enough to compute
_T_STRIDE = 1 << 32


def _check_sequence_args(field, i_max):
    if field.q != field.card:
        raise DomainError("universal sequences live over a designated base F_q")
    if i_max < 0:
        raise DomainError("sequence index must be non-negative")


def u_sequence(field, i_max):
    """[u_0, ..., u_{i_max}] over F_q[T][s]."""
    S = PolyRing(t_poly_ring(field), "s")
    return [_terms_to_poly(u, S) for u in _u_terms(field, i_max)]


def _u_terms(field, i_max):
    """u_0, ..., u_{i_max} as term maps, memoised per field."""
    _check_sequence_args(field, i_max)
    q = field.card
    seq = _u_cache.setdefault(field, [])
    if not seq:
        one = field.one.index
        seq += [{0: one}, {1: one, q * _T_STRIDE: one}]
    while len(seq) <= i_max:
        i = len(seq) - 1
        seq.append(_u_step(field, seq[i - 1], seq[i], i))
    return seq[:i_max + 1]


def _u_step(field, u_prev, u_i, i):
    """u_{i+1} = u_i*s^(q^i) + u_i*T^(q^(i+1))
                 - (T^(q^i) - T)*s^(q^i)*u_{i-1}."""
    q = field.card
    qi = q ** i
    one = field.one.index
    return _sum_copies(field, ((u_i, one, qi),
                               (u_i, one, q * qi * _T_STRIDE),
                               (u_prev, field._neg(one), qi + qi * _T_STRIDE),
                               (u_prev, one, qi + _T_STRIDE)))


def _U_terms(field, i_max):
    """U_0, ..., U_{i_max} as term maps, memoised per field."""
    _check_sequence_args(field, i_max)
    seq = _U_cache.setdefault(field, [])
    if len(seq) <= i_max:
        q = field.card
        zero, one = field.zero, field.one
        C = Poly(PolyRing(field, "s"),
                 (zero, -one) + (zero,) * (q - 2) + (one,)) ** (q - 1)
        C = [(e, c.index) for e, c in enumerate(C.coeffs) if c]
        if not seq:
            U1 = dict(C)
            U1[-(q - 1) * _T_STRIDE] = one.index
            seq += [{0: one.index}, U1]
        while len(seq) <= i_max:
            i = len(seq) - 1
            seq.append(_U_step(field, C, seq[i - 1], seq[i], i))
    return seq[:i_max + 1]


def _U_step(field, C, U_prev, U_i, i):
    """For i >= 1, with C = (s^q - s)^(q-1) as (s exponent, F_q index) pairs
    and Q = q^(i+1):

    U_{i+1} = (C(s^(q^i)) + T^(-(q-1)q^i)) * U_i
              - (T^(q^i - Q) - T^(1 - Q)) * C(s^(q^(i-1))) * U_{i-1}
    """
    q = field.card
    qi = q ** i
    Q = q * qi
    copies = [(U_i, c, e * qi) for e, c in C]
    copies.append((U_i, field.one.index, -(q - 1) * qi * _T_STRIDE))
    for e, c in C:
        shift = e * (qi // q)
        copies.append((U_prev, field._neg(c), shift + (qi - Q) * _T_STRIDE))
        copies.append((U_prev, c, shift + (1 - Q) * _T_STRIDE))
    return _sum_copies(field, copies)


def _sum_copies(field, copies):
    """The term map of sum(c * m * u) over the (u, c, shift) triples, m the
    monomial whose key is `shift` and c an F_q index."""
    q = field.card
    add = field._kernel.sums()
    # the copies share a few scales, mostly 1 and -1
    scales = {field.one.index: list(range(q))}
    out = {}
    for u, c, shift in copies:
        scale = scales.get(c)
        if scale is None:
            scale = scales[c] = [field._mul(c, x) for x in range(q)]
        for key, x in u.items():
            k = key + shift
            out[k] = add[out.get(k, 0)][scale[x]]
    return {k: x for k, x in out.items() if x}


def _terms_to_poly(u, ring):
    """The polynomial in `ring` = R[s] of a term map, R = F_q[T] or
    F_q[T, 1/T]."""
    laurent = isinstance(ring.base, LaurentRing)
    A = ring.base.tring if laurent else ring.base
    F = A.base
    rows = {}
    for key, c in u.items():
        t, s = divmod(key, _T_STRIDE)
        rows.setdefault(s, {})[t] = c
    out = []
    for s in range(max(rows, default=-1) + 1):
        terms = rows.get(s, {})
        low = min(0, min(terms, default=0))
        cs = [F.zero] * (max(terms, default=-1) + 1 - low)
        for t, c in terms.items():
            cs[t - low] = F.from_index(c)
        num = Poly(A, cs)
        out.append(LaurentT(ring.base, num, -low) if laurent else num)
    return Poly(ring, out)


def _poly_to_terms(f):
    """The term map of a polynomial over F_q[T][s]."""
    return {t * _T_STRIDE + s: c.index
            for s, row in enumerate(f.coeffs)
            for t, c in enumerate(row.coeffs) if c}


def _terms_mod_prime(u, prime):
    """The polynomial in s over kappa of a term map reduced mod p, over its
    nonzero terms only."""
    return prime._kappa_poly(prime._reduce_terms(
        (key % _T_STRIDE, ((key // _T_STRIDE, c),)) for key, c in u.items()))


def u_mod_prime(prime):
    """u_d mod p for the prime p of degree d: h by the universal route."""
    return _terms_mod_prime(_u_terms(prime.field_q, prime.d)[prime.d], prime)


def U_mod_prime(prime):
    """U_d mod p for the prime p of degree d: the companion H."""
    return _terms_mod_prime(_U_terms(prime.field_q, prime.d)[prime.d], prime)


def U_sequence(field, i_max):
    """[U_0, ..., U_{i_max}] over F_q[T, 1/T][s]."""
    S = PolyRing(LaurentRing(t_poly_ring(field)), "s")
    return [_terms_to_poly(U, S) for U in _U_terms(field, i_max)]


def u_zero_value(field, i):
    """The closed form u_i(0) = T^(q*(q^i - 1)/(q - 1))."""
    q = field.card
    A = t_poly_ring(field)
    return A.gen ** (q * (q ** i - 1) // (q - 1))


def check_u_zero(field, i):
    u = u_sequence(field, i)[i]
    return u.constant_coeff() == u_zero_value(field, i)


def check_derivative_recursion(field, i):
    """The derivative sequence satisfies the unchanged recursion at step i >= 1."""
    if i < 1:
        raise DomainError("the derivative recursion only holds for steps i >= 1")
    d = [_poly_to_terms(u.derivative()) for u in u_sequence(field, i + 1)]
    return d[i + 1] == _u_step(field, d[i - 1], d[i], i)


def check_key_identity(field, i):
    """Substitution identity linking u_i at -T^q*s*(s+1)^(q-1) and -T*s^q/(s+1)^(q-1).

    With N = deg u_i, multiplying by (s+1)^((q-1)N) clears denominators.  The
    recurrence's u_i has (q-1)N = q^i - 1, so with that factor divided out of
    all three terms the identity reads

    P1 - T^(q^i - 1)*P2 = -(T^(q^i) - T) * T^(q^i - 1) * (s+1)^(q^i - q^(i-1)) * P2'

    where P1 is the plain substitution and P2 (resp. P2') is the cleared form
    sum_j c_j * (-T*s^q)^j * (s+1)^((q-1)(N-j)) of u_i (resp. u_{i-1}).  Only
    (s+1)^min((q-1)N, q^i - 1) is divided out, so for any pair the verdict is
    that of the cleared identity.
    """
    if i < 0:
        raise DomainError("the substitution identity needs i >= 0")
    if i == 0:
        # u_0 = 1, u_{-1} = 0: both sides collapse to 1 - 1 = 0 = -0
        return True
    q = field.card
    seq = u_sequence(field, i)
    ui, um = seq[i], seq[i - 1]
    S = ui.ring
    A = S.base
    T = A.gen
    s_plus_1 = Poly(S, (A.one, A.one))
    b = s_plus_1 ** (q - 1)

    def cleared(u):
        # sum_j c_j * a^j * b^(N-j) with a = -T*s^q, by Horner's rule in b
        acc = S.zero
        for j, c in enumerate(u.coeffs):
            acc = acc * b + Poly(S, (A.zero,) * (q * j) + (c * (-T) ** j,))
        return acc

    P1 = ui(Poly(S, (A.zero, -(T ** q))) * b)
    qi = q ** i
    cleared_exp = (q - 1) * ui.degree
    common = min(cleared_exp, qi - 1)
    lhs = P1 * s_plus_1 ** (cleared_exp - common) \
        - cleared(ui) * s_plus_1 ** (qi - 1 - common) * (T ** (qi - 1))
    rhs = -(cleared(um) * s_plus_1 ** (qi - 1 - common + qi - q ** (i - 1))
            * ((T ** qi - T) * T ** (qi - 1)))
    return lhs == rhs


def sequence_json(field, variant, i_max):
    """JSON payload for u_0..u_{i_max} ("u") or U_0..U_{i_max} ("U").

    Each entry is the descending list of s-coefficients as grammar strings;
    the identically-zero i = -1 seed is omitted.
    """
    from . import grammar

    if variant == "u":
        seq = u_sequence(field, i_max)
    elif variant == "U":
        seq = U_sequence(field, i_max)
    else:
        raise DomainError(f"unknown sequence variant {variant!r}")
    return {
        "q": field.card,
        "variant": variant,
        "i_max": i_max,
        "entries": [[grammar.render(c) for c in reversed(f.coeffs)]
                    for f in seq],
    }


def check_simple_roots(prime):
    """u_d mod p is separable and does not vanish at 0."""
    h = u_mod_prime(prime)
    if not h.constant_coeff():
        return False
    return poly_gcd(h, h.derivative()).degree == 0


def check_simple_roots_generic(field, i):
    """gcd(u_i, d/ds u_i) = 1 over F_q(T), via a primitive remainder sequence."""
    u = u_sequence(field, i)[i]
    return _coprime_over_fraction_field(u, u.derivative())


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


def _coprime_over_fraction_field(f, g):
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
