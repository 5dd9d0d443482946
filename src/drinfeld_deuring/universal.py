"""Universal supersingularity sequences over F_q[T] and F_q[T, 1/T].

u_{-1} = 0, u_0 = 1 and

    u_{i+1} = (s + T^q)^(q^i) * u_i - (T^(q^i) - T) * s^(q^i) * u_{i-1}

over A[s] with A = F_q[T].  The normalized variant runs over A[1/T][s]:
U_{-1} = 0, U_0 = 1 and

    U_{i+1} = ((s^q - s)^(q-1) + 1/T^(q-1))^(q^i) * U_i
              - (T^(q^i) - T)/T^(q^(i+1)) * (s^q - s)^((q-1)*q^(i-1)) * U_{i-1}

with the second term absent at i = 0.  Reducing u_d (resp. U_d) mod a prime
p(T) of degree d yields the Deuring polynomial h (resp. its companion H).

Both sequences are generic term maps on F_q's kernel, {t * _T_STRIDE + e:
c} over the nonzero terms c * T^t * s^e, c an F_q index (divmod(key,
_T_STRIDE) gives (t, e) also for the t < 0 of U_i), memoised per field.  A
step multiplies by monomials only, each a scaled, shifted copy for
`IndexKernel.sum_copies`: a u-step is four.  C = (s^q - s)^(q-1), the sum
of s^(k(q-1)) over k = 1..q, is fixed by Frobenius, so U_1^(q^i) =
C(s^(q^i)) + T^(-(q-1)q^i) and a U-step is 3q + 1 copies, with no product.
u_mod_prime, the universal h route, and the checks of u_i read these maps.

Over kappa = F_q[T]/(p), T -> alpha, both recurrences run on kappa's index
lists by the kernel's `scale`, `add_polys` and `mul_polys`: `U_mod_prime`
in y = s^(q-1), and the separability certificate's u on digit masks.
"""

from __future__ import annotations

from math import comb

from .errors import CapExceededError, DomainError
from .laurent import LaurentRing, LaurentT
from .modulus import t_poly_ring
from .poly import Poly, PolyRing

_u_cache = {}
_U_cache = {}
# the key stride of the term maps (module docstring); `_check_stride`
# refuses a map whose s-exponents would reach it
_T_STRIDE = 1 << 32


def _check_stride(what, q, i, s_degree):
    """CapExceededError, before any step, unless s_degree(q, i), the largest
    s-exponent that the term maps of `what` (formatted with i) hold, is
    below _T_STRIDE: a larger one would carry into the T part of its key.
    Every s_degree here is at least 2^i - 1, so i > 32 is refused before any
    power is formed."""
    if i > 32 or s_degree(q, i) >= _T_STRIDE:
        raise CapExceededError(
            f"{what.format(i=i)} over F_{q} would hold an s-exponent of 2^32 "
            "or more, past the key stride of its term map")


def _u_degree(q, i):
    """deg_s u_i = (q^i - 1)/(q - 1)."""
    return (q ** i - 1) // (q - 1)


def u_sequence(field, i_max):
    """[u_0, ..., u_{i_max}] over F_q[T][s]."""
    S = PolyRing(t_poly_ring(field), "s")
    return [_terms_to_poly(u, S) for u in _u_terms(field, i_max)]


def _u_terms(field, i_max):
    """u_0, ..., u_{i_max} as generic term maps, memoised per field."""
    return _generic_terms(field, i_max, _u_step, _u_cache, "u_{i}", _u_degree)


def _U_terms(field, i_max):
    """U_0, ..., U_{i_max} as generic term maps, memoised per field."""
    # deg_s U_i = q^(i+1) - q
    return _generic_terms(field, i_max, _U_step, _U_cache, "U_{i}",
                          lambda q, i: q ** (i + 1) - q)


def _generic_terms(field, i_max, step, cache, name, s_degree):
    """x_0, ..., x_{i_max} of the sequence `name` of `step` as generic term
    maps, memoised per field in `cache`, deg_s x_i being s_degree(q, i).
    The key stride is checked only when a step is to run: a cached map
    passed the check when it was built."""
    if field.q != field.card:
        raise DomainError("universal sequences live over a designated base F_q")
    if i_max < 0:
        raise DomainError("sequence index must be non-negative")
    # index 1 is the element 1 of every kernel
    seq = cache.get(field) or cache.setdefault(field, [{}, {0: 1}])
    if len(seq) < i_max + 2:
        _check_stride(name, field.card, i_max, s_degree)
    while len(seq) < i_max + 2:
        i = len(seq) - 2
        seq.append(step(field, seq[i], seq[i + 1], i))
    return seq[1:i_max + 2]


def _u_step(field, u_prev, u_i, i):
    """u_{i+1} = u_i*s^(q^i) + u_i*T^(q^(i+1))
                 - (T^(q^i) - T)*s^(q^i)*u_{i-1}, on generic term maps."""
    q = field.card
    qi = q ** i
    return field._kernel.sum_copies((
        (u_i, 1, qi), (u_i, 1, q * qi * _T_STRIDE),
        (u_prev, field._neg(1), qi * _T_STRIDE + qi),
        (u_prev, 1, _T_STRIDE + qi)))


def _U_step(field, U_prev, U_i, i):
    """With C = (s^q - s)^(q-1) and Q = q^(i+1), on generic term maps:

    U_{i+1} = (C(s^(q^i)) + T^(-(q-1)q^i)) * U_i
              - (T^(q^i - Q) - T^(1 - Q)) * C(s^(q^(i-1))) * U_{i-1}
    """
    q = field.card
    qi = q ** i
    Q = q * qi
    # C = s^(q-1) * sum_k binom(q-1, k) (-1)^(q-1-k) s^((q-1)k), each sign
    # (-1)^(q-1) = 1 as binom(q-1, k) = (-1)^k mod p: (1+x)^(q-1)(1+x) = 1+x^q
    copies = [(U_i, 1, -(q - 1) * qi * _T_STRIDE)]
    for e in range(q - 1, q * (q - 1) + 1, q - 1):
        copies += [(U_i, 1, e * qi),
                   (U_prev, field._neg(1), (qi - Q) * _T_STRIDE + e * qi // q),
                   (U_prev, 1, (1 - Q) * _T_STRIDE + e * qi // q)]
    return field._kernel.sum_copies(copies)


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


def u_mod_prime(prime):
    """u_d mod p for the prime p of degree d: h by the universal route, the
    generic u_d reduced over its nonzero terms."""
    u = _u_terms(prime.field_q, prime.d)[prime.d]
    return prime._kappa_poly(prime._reduce_terms(
        (key % _T_STRIDE, ((key // _T_STRIDE, c),)) for key, c in u.items()))


def U_mod_prime(prime):
    """U_d mod p for the prime p of degree d, the companion H: the
    U-recurrence over kappa on index lists in y = s^(q-1), where C = Y(y) =
    y + ... + y^q.  With Q = q^(i+1) and gamma_i = alpha^(1-Q) -
    alpha^(q^i-Q), which is not 0 for 0 < i < d,

    U_{i+1} = U_i*(Y(y^(q^i)) + alpha^(-(q-1)q^i))
              + gamma_i*Y(y^(q^(i-1)))*U_{i-1}:

    each U_i is multiplied by index lists of q + 1 and q terms, the second
    product for U_{i+2}, by one `mul_each` that builds U_i's row once."""
    K, a, q, d = prime.kappa._kernel, prime.alpha.index, prime.q, prime.d
    cur, carried = [1], []
    for i in range(d):
        qi = q ** i
        Q = q * qi
        # q ones at y^(q^i), ..., y^Q, and the constant alpha^(-(q-1)q^i)
        factor = [0] * (Q + 1)
        factor[qi::qi] = [1] * q
        factor[0] = K._pow(a, -(q - 1) * qi)
        # gamma_(i+1) at the same q places, U_i's term of U_(i+2)
        nxt_factor = []
        if i + 1 < d:
            gamma = K._add(K._pow(a, 1 - q * Q), K._neg(K._pow(a, Q - q * Q)))
            nxt_factor = [0] * (Q + 1)
            nxt_factor[qi::qi] = [gamma] * q
        nxt, carry = K.mul_each(cur, [factor, nxt_factor])
        cur, carried = K.add_polys(nxt, carried), carry
    return prime._poly_in_y(cur)


def U_sequence(field, i_max):
    """[U_0, ..., U_{i_max}] over F_q[T, 1/T][s]."""
    S = PolyRing(LaurentRing(t_poly_ring(field)), "s")
    return [_terms_to_poly(U, S) for U in _U_terms(field, i_max)]


def u_zero_value(field, i):
    """The closed form u_i(0) = T^(q*(q^i - 1)/(q - 1))."""
    q = field.card
    return t_poly_ring(field).gen ** (q * _u_degree(q, i))


def check_u_zero(field, i):
    """The s^0 part of u_i is T^(q*(q^i - 1)/(q - 1)), compared as one term
    of lead 1 (index 1): `u_zero_value` is dense in T."""
    u = _u_terms(field, i)[i]
    q = field.card
    return ({k: c for k, c in u.items() if not k % _T_STRIDE}
            == {q * _u_degree(q, i) * _T_STRIDE: 1})


def check_derivative_recursion(field, i):
    """The derivative sequence satisfies the unchanged recursion at step i >= 1
    (at i = 0 it would force u_1' = 0, but u_1 = s + T^q has u_1' = 1).

    Every s-exponent e of every u_j is 0 or 1 mod p: u_0 = 1, u_1 = s + T^q,
    and step j (`_u_step`) shifts exponents by 0 or q^j, a multiple of p for
    j >= 1.  So e mod p is 1 on each term the p | e filter keeps: dropping
    that factor is an equivalent mutant, which `Poly.derivative` (it too
    multiplies by e) cannot detect.  The row tests only the step's exponents
    and the p | e filter.
    """
    if i < 1:
        raise DomainError("the derivative recursion only holds for steps i >= 1")
    d = [_derivative(field, u) for u in _u_terms(field, i + 1)[i - 1:]]
    return d[2] == _u_step(field, d[0], d[1], i)


def _derivative(field, u):
    """d/ds of a generic term map: c * T^t * s^e -> (e mod p) * c * T^t *
    s^(e-1), e mod p read as an F_p index."""
    p = field.p
    return {k - 1: field._mul(k % _T_STRIDE % p, c) for k, c in u.items()
            if k % _T_STRIDE % p}


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
    q, p = field.card, field.p
    # with N = deg u_i, so that common = (q-1)N, the first two rows reach
    # s^(qN) at j = N and the third s^(qN - 1)
    _check_stride("the key identity at i = {i}", q, i,
                  lambda q, i: q * _u_degree(q, i))
    qi = q ** i
    um, ui = _u_terms(field, i)[i - 1:]
    N, M = (max((k % _T_STRIDE for k in u), default=-1) for u in (ui, um))
    common = min((q - 1) * N, qi - 1)
    # a term c*T^t*s^j of u brings (-1)^(j+n) * c * T^(t + a*j + t0) *
    # s^(b*j) * (s+1)^(e0 + (a-b)*j) to lhs - rhs, for each (t0, n) of its row
    rows = ((ui, q, 1, (q - 1) * N - common, ((0, 0),)),
            (ui, 1, q, (q - 1) * N + qi - 1 - common, ((qi - 1, 1),)),
            (um, 1, q, (q - 1) * M + 2 * qi - 1 - qi // q - common,
             ((2 * qi - 1, 0), (qi, 1))))
    copies = []
    binomials = {}
    for u, a, b, e0, factors in rows:
        for key, c in u.items():
            t, j = divmod(key, _T_STRIDE)
            e = e0 + (a - b) * j
            binomial = binomials.get(e)
            if binomial is None:
                binomial = binomials[e] = _binomial_row(e, p)
            copies += [(binomial, field._neg(c) if (j + n) % 2 else c,
                        (t + a * j + t0) * _T_STRIDE + b * j)
                       for t0, n in factors]
    return not field._kernel.sum_copies(copies)


def _binomial_row(e, p):
    """(s+1)^e over F_p as a term map {k: binom(e, k) mod p}, by Lucas's
    theorem: binom(e, k) = prod binom(e_i, k_i) mod p over the base-p digits
    of e and k, which is nonzero exactly when every k_i <= e_i.  An integer
    below p is its own F_p index."""
    row = {0: 1}
    weight = 1
    while e:
        e, digit = divmod(e, p)
        if digit:
            # binom(digit, j) for digit < p is a unit mod p
            factors = [(j * weight, comb(digit, j) % p)
                       for j in range(digit + 1)]
            row = {k + shift: x * y % p
                   for k, x in row.items() for shift, y in factors}
        weight *= p
    return row


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
    """u_d mod p, the universal route's h, is separable with h(0) != 0."""
    return _certified(prime, u_mod_prime(prime))


def _certified(prime, h):
    """A certificate, not a gcd, that h over kappa is separable with
    h(0) != 0: h is u_d built over kappa, h(0) != 0, and alpha^(q^j) !=
    alpha, 0 < j < d.

    Over kappa, u_{i+1} = A_i*u_i - B_i*u_{i-1} with A_i = s^(q^i) +
    alpha^(q^(i+1)) and B_i = (alpha^(q^i) - alpha)*s^(q^i).  For i >= 1,
    d/ds kills A_i and B_i, so the u_i' obey the same recurrence, and the
    Casoratian W_i = u_i*u_{i-1}' - u_{i-1}*u_i' has W_1 = -1, W_{i+1} =
    B_i*W_i.  So W_d = -prod_{0<j<d} (alpha^(q^j) - alpha) * s^(q + ... +
    q^(d-1)) != 0, a common factor of h and h' is a power of s, and h(0)
    != 0 leaves only 1."""
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    return (_u_on_masks(prime) == [c.index for c in h.coeffs]
            and bool(h.constant_coeff())
            and all(K._pow(a, q ** j) != a for j in range(1, prime.d)))


def _u_on_masks(prime):
    """u_d over kappa as an index list in s, run on digit masks: slot m of
    u_i holds the coefficient of s^(sum_{j in m} q^j), m an i-bit mask.
    Every s-exponent of u_i is such a sum, as u_0 = 1 and step i shifts u_i
    by 0 or q^i and u_{i-1}, on masks below 2^(i-1), by q^i.  Distinct masks
    are distinct exponents, so the step is u_{i+1}[m] =
    alpha^(q^(i+1))*u_i[m] and u_{i+1}[m + 2^i] = u_i[m] - (alpha^(q^i) -
    alpha)*u_{i-1}[m] for m < 2^i; the top slot stays 1, so `add_polys`
    trims nothing.  The masks become exponents once, at the end."""
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    prev, cur = [], [1]
    for i in range(prime.d):
        qi = q ** i
        shifted = K.add_polys(cur, K.scale(K._add(a, K._neg(K._pow(a, qi))),
                                           prev))
        prev, cur = cur, K.scale(K._pow(a, q * qi), cur) + shifted
    return prime._on_exponents(cur)


def check_simple_roots_generic(field, i):
    """gcd(u_i, d/ds u_i) = 1 over F_q(T), by a sufficient certificate:
    u_i(0) != 0 and W_i = -prod_{0<j<i} (T^(q^j) - T) * s^(q + ... +
    q^(i-1)), the Casoratian of `_certified`.  W_i is formed by products:
    read off the recurrence that built u_i, it would prove nothing."""
    # the products u_i * u_(i-1)' reach s^(deg u_i + deg u_(i-1) - 1)
    if i > 0:
        _check_stride("W_{i}", field.card, i,
                      lambda q, i: _u_degree(q, i) + _u_degree(q, i - 1) - 1)
    u = _u_terms(field, i)
    if i == 0:
        return True  # u_0 = 1
    um, ui = u[i - 1:]
    q, neg, kernel = field.card, field._neg, field._kernel
    # P = prod (T^(q^j) - T); the identity reads W_i + P * s^E = 0
    P = {0: 1}
    for j in range(1, i):
        P = kernel.sum_copies(((P, 1, q ** j * _T_STRIDE),
                               (P, neg(1), _T_STRIDE)))
    copies = [(ui, c, k) for k, c in _derivative(field, um).items()]
    copies += [(um, neg(c), k) for k, c in _derivative(field, ui).items()]
    copies.append((P, 1, sum(q ** j for j in range(1, i))))
    return (any(not k % _T_STRIDE for k in ui)
            and not kernel.sum_copies(copies))
