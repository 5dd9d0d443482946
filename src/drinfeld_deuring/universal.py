"""Universal supersingularity sequences over F_q[T] and F_q[T, 1/T].

u_{-1} = 0, u_0 = 1 and

    u_{i+1} = (s + T^q)^(q^i) * u_i - (T^(q^i) - T) * s^(q^i) * u_{i-1}

over A[s] with A = F_q[T].  The normalized variant runs over A[1/T][s]:
U_0 = 1 and

    U_{i+1} = ((s^q - s)^(q-1) + 1/T^(q-1))^(q^i) * U_i
              - (T^(q^i) - T)/T^(q^(i+1)) * (s^q - s)^((q-1)*q^(i-1)) * U_{i-1}

with the second term absent at i = 0.  Reducing u_d (resp. U_d) mod a prime
p(T) of degree d yields the Deuring polynomial h (resp. its companion H).

The derivative sequence (d/ds u_i) satisfies the u-recursion for steps
i >= 1 only: the i = 0 step would force u_1' = 0, but u_1 = s + T^q has
u_1' = 1.  `check_derivative_recursion` therefore requires i >= 1.
"""

from __future__ import annotations

from .errors import DomainError
from .laurent import LaurentRing, LaurentT
from .modulus import t_poly_ring
from .ore import qpow
from .poly import Poly, PolyRing, exact_div, poly_gcd

_u_cache = {}
_U_cache = {}
# u_i is held as one term map {T exponent * _T_STRIDE + s exponent: c}, c the
# F_q index of a nonzero coefficient, so that multiplying by s^a T^b adds
# a + b * _T_STRIDE to every key.  deg_s u_i = (q^i - 1)/(q - 1) stays far
# below the stride for every u_i small enough to compute.
_T_STRIDE = 1 << 32


def _require_base(field):
    if field.q != field.card:
        raise DomainError("universal sequences live over a designated base F_q")


def u_sequence(field, i_max):
    """[u_0, ..., u_{i_max}] over F_q[T][s]."""
    S = PolyRing(t_poly_ring(field), "s")
    return [_terms_to_poly(u, S) for u in _u_terms(field, i_max)]


def _u_terms(field, i_max):
    """u_0, ..., u_{i_max} as term maps (see _T_STRIDE), memoised per field."""
    _require_base(field)
    if i_max < 0:
        raise DomainError("sequence index must be non-negative")
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
    """u_{i+1} = u_i*s^(q^i) + u_i*T^(q^(i+1)) - (T^(q^i) - T)*s^(q^i)*u_{i-1}.

    Every factor is a monomial or a binomial in s and T, so on term maps the
    step is a signed sum of four shifted copies: no products.
    """
    q = field.card
    qi = q ** i
    add = [[field._add(a, b) for b in range(q)] for a in range(q)]
    same = list(range(q))
    neg = [field._neg(c) for c in range(q)]
    out = {}
    for u, sign, shift in ((u_i, same, qi),
                           (u_i, same, q * qi * _T_STRIDE),
                           (u_prev, neg, qi + qi * _T_STRIDE),
                           (u_prev, same, qi + _T_STRIDE)):
        for key, c in u.items():
            k = key + shift
            out[k] = add[out.get(k, 0)][sign[c]]
    return {k: c for k, c in out.items() if c}


def _terms_to_poly(u, ring):
    """The polynomial in `ring` = F_q[T][s] of a term map."""
    A = ring.base
    F = A.base
    rows = {}
    for key, c in u.items():
        t, s = divmod(key, _T_STRIDE)
        rows.setdefault(s, {})[t] = c
    out = []
    for s in range(max(rows, default=-1) + 1):
        terms = rows.get(s, {})
        cs = [F.zero] * (max(terms, default=-1) + 1)
        for t, c in terms.items():
            cs[t] = F.from_index(c)
        out.append(Poly(A, cs))
    return Poly(ring, out)


def _poly_to_terms(f):
    """The term map of a polynomial over F_q[T][s]."""
    return {t * _T_STRIDE + s: c.index
            for s, row in enumerate(f.coeffs)
            for t, c in enumerate(row.coeffs) if c}


def u_mod_prime(prime):
    """u_d mod p for the prime p of degree d: h by the universal route, as a
    polynomial in s over kappa.  Only the nonzero terms of u_d are reduced."""
    u = _u_terms(prime.field_q, prime.d)[prime.d]
    return prime._kappa_poly(prime._reduce_terms(
        (key % _T_STRIDE, ((key // _T_STRIDE, c),)) for key, c in u.items()))


def U_sequence(field, i_max):
    """[U_0, ..., U_{i_max}] over F_q[T, 1/T][s]."""
    _require_base(field)
    if i_max < 0:
        raise DomainError("sequence index must be non-negative")
    q = field.card
    seq = _U_cache.setdefault(field, [])
    if not seq:
        A = t_poly_ring(field)
        L = LaurentRing(A)
        SL = PolyRing(L, "s")
        sq_minus_s = Poly(SL, (L.zero, -L.one) + (L.zero,) * (q - 2) + (L.one,))
        seq.append(SL.one)
        seq.append(sq_minus_s ** (q - 1) + SL.coerce(L.shift(1, q - 1)))
    SL = seq[0].ring
    L = SL.base
    A = L.tring
    U1 = seq[1]
    C = U1 - SL.coerce(L.shift(1, q - 1))
    while len(seq) <= i_max:
        i = len(seq) - 1
        term1 = qpow(U1, q, i) * seq[i]
        fac = LaurentT(L, A.gen ** (q ** i) - A.gen, q ** (i + 1))
        term2 = SL.coerce(fac) * qpow(C, q, i - 1) * seq[i - 1]
        seq.append(term1 - term2)
    return seq[:i_max + 1]


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
