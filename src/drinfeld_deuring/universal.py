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

Both sequences have closed forms.  For a d-bit digit mask m, let E(m) =
sum_{j in m} q^j, and call bit i of m clear when it is not set (bit d of a
d-bit mask is clear).  Then

    u_d = sum_{m < 2^d} T^(t(m)) * s^(E(m)),
    t(m) = sum over the clear bits i < d of m of
           (1 if bit i+1 is set, else q^(i+1)):

2^d monomials, each of coefficient 1, on distinct s-exponents.  So h = u_d
mod p is sum_m alpha^(t(m)) * s^(E(m)), with exactly 2^d nonzero
coefficients, each a power of alpha; u_d(0) = T^(t(0)), t(0) = q + ... +
q^d (`check_u_zero`); and every s-exponent is 0 or 1 mod p.  In one
expression, t(m) = q * E(z) + |y|, z the bits i < d where m has neither bit
i nor bit i+1, y the clear bits i of m whose bit i+1 is set.

Proof, by induction on i.  As (s + T^q)^(q^i) = s^(q^i) + T^(q^(i+1)),
the recurrence on the coefficient u_i[m] of s^(E(m)) reads, for m < 2^i,

    u_{i+1}[m] = T^(q^(i+1)) * u_i[m],
    u_{i+1}[m + 2^i] = u_i[m] - (T^(q^i) - T) * u_{i-1}[m],

where u_{i-1}[m] = 0 for m >= 2^(i-1).  The first line adds a clear bit i
below the clear bit i+1: the term q^(i+1).  In the second, bit i becomes
set.  If bit i-1 of m is set, u_{i-1}[m] = 0 and no term of t changes.  If
it is clear, the first line one step down gives u_i[m] = T^(q^i) *
u_{i-1}[m], the T^(q^i) terms cancel, and u_{i+1}[m + 2^i] = T *
u_{i-1}[m]: the clear bit i-1, now below a set bit, adds 1.

With y = s^(q-1) and digit words w in {0, ..., q}^d,

    U_d = sum_w T^(tau(w)) * y^(sum_i w_i q^i),
    tau(w) = sum over the i < d with w_i = 0 of
             (1 - q^(i+1) if i > 0 and w_{i-1} != 0, else -(q-1)*q^i):

(q+1)^d monomials of coefficient 1, distinct wherever the tests reach.
The proof is the same induction, on words.  In y, C = Y(y) = y + ... + y^q,
so with Q = q^(i+1) a word of U_i gains w_i = k in 1..q at y^(k q^i), or
w_i = 0 at T^(-(q-1)q^i) = T^(q^i-Q); a word v of U_{i-1} gains w_{i-1} = k
in 1..q and w_i = 0 at (T^(1-Q) - T^(q^i-Q)) * y^(k q^(i-1)).  The word vk
of U_i has the tau of v, as its last digit is not 0, so its copy at
T^(q^i-Q) cancels v's second term and leaves T^(1-Q).

The universal route reads generic u_d once per (q, d) as its list t(m)
(`_u_t_exponents`), and reduces it by one table read per mask.  The
separability certificate compares that h with the closed form, whose t(m)
(`_t_closed_form`) comes from no recurrence, and the derivative row checks
the closed form's u_(i-1), u_i and u_(i+1) against the step.

Over kappa = F_q[T]/(p), T -> alpha, `U_mod_prime` runs the U-recurrence
on kappa's index lists in y = s^(q-1), by one `IndexKernel.times_Y` per
step: its product P_i = U_i*Y(y^(q^i)) feeds U_(i+1) and, scaled,
U_(i+2).  At a point, u_d(gamma, x) = 0 is the one supersingularity test
(`u_root_test`): d steps, where the closed form has 2^d terms.
"""

from __future__ import annotations

import functools
from math import comb

from .errors import CapExceededError, ConsistencyError, DomainError
from .laurent import LaurentRing, LaurentT
from .modulus import _mask_exponents, t_poly_ring
from .poly import Poly, PolyRing

_u_cache = {}
_U_cache = {}
# the list t(m) of generic u_d per (field, d), read by `_u_t_exponents`
_t_cache = {}
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


def _check_designated(field):
    if field.q != field.card:
        raise DomainError("universal sequences live over a designated base F_q")


def _generic_terms(field, i_max, step, cache, name, s_degree):
    """x_0, ..., x_{i_max} of the sequence `name` of `step` as generic term
    maps, memoised per field in `cache`, deg_s x_i being s_degree(q, i).
    The key stride is checked only when a step is to run: a cached map
    passed the check when it was built."""
    _check_designated(field)
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
    """u_d mod p for the prime p of degree d: h by the universal route.
    Generic u_d, read once per (q, d) as its list t(m) in mask order
    (`_u_t_exponents`), reduces to alpha^(t(m)) at s^(E(m)): one table read
    per mask, and one placement on the masks' exponents."""
    return prime._poly_on_masks(prime.kappa._kernel.powers(
        prime.alpha.index, _u_t_exponents(prime.field_q, prime.d)))


def _u_t_exponents(field, d):
    """The T-exponents t(m) of generic u_d in mask order, read off its term
    map and memoised per (field, d).  ConsistencyError unless the map is
    as the closed form (module docstring) says: exactly 2^d keys, each of
    coefficient 1, one at each mask's s-exponent E(m)."""
    ts = _t_cache.get((field, d))
    if ts is None:
        u = _u_terms(field, d)[d]
        exps = _mask_exponents(field.card, d)
        t_of = {k % _T_STRIDE: k // _T_STRIDE for k in u}
        if (len(u) != 1 << d or set(u.values()) != {1}
                or t_of.keys() != set(exps)):
            raise ConsistencyError(
                f"generic u_{d} over F_{field.card} is not 2^{d} terms of "
                "coefficient 1 on the exponents of the digit masks")
        ts = _t_cache[field, d] = tuple(t_of[e] for e in exps)
    return ts


@functools.lru_cache(maxsize=64)
def _t_closed_form(q, d):
    """t(m) of the closed form of u_d for each d-bit mask m, in mask
    order, from no recurrence: q * E(z) + |y| (module docstring)."""
    exps, full = _mask_exponents(q, d), (1 << d) - 1
    return tuple(q * exps[~(m | m >> 1) & full] + (m >> 1 & ~m).bit_count()
                 for m in range(1 << d))


def U_mod_prime(prime):
    """U_d mod p for the prime p of degree d, the companion H: the
    U-recurrence over kappa on index lists in y = s^(q-1), where C = Y(y) =
    y + ... + y^q.  With Q = q^(i+1), gamma_i = alpha^(1-Q) - alpha^(q^i-Q),
    which is not 0 for 0 < i < d and is 0 at i = d as alpha^(q^d) = alpha,
    and P_i = U_i*Y(y^(q^i)),

    U_{i+1} = P_i + alpha^(-(q-1)q^i)*U_i + gamma_i*P_{i-1}:

    one product per step, `IndexKernel.times_Y` by Y(y^(q^i)): q copies of
    U_i, with element adds only where they overlap, and no product of
    elements.  P_i feeds U_{i+1} as it is and U_{i+2} scaled by
    gamma_{i+1}."""
    K, a, q, d = prime.kappa._kernel, prime.alpha.index, prime.q, prime.d
    cur, carried = [1], []
    for i in range(d):
        qi = q ** i
        Q = q * qi
        P = K.times_Y(cur, qi, q)
        nxt = K.add_polys(P, K.scale(K._pow(a, -(q - 1) * qi), cur))
        gamma = K._add(K._pow(a, 1 - q * Q), K._neg(K._pow(a, Q - q * Q)))
        cur, carried = K.add_polys(nxt, carried), K.scale(gamma, P)
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
    of lead 1 (index 1): `u_zero_value` is dense in T.  It is the mask m = 0
    of the closed form (module docstring), t(0) = q + ... + q^i."""
    u = _u_terms(field, i)[i]
    q = field.card
    return ({k: c for k, c in u.items() if not k % _T_STRIDE}
            == {q * _u_degree(q, i) * _T_STRIDE: 1})


def check_derivative_recursion(field, i):
    """The derivative sequence satisfies the unchanged recursion at step i >= 1
    (at i = 0 it would force u_1' = 0, but u_1 = s + T^q has u_1' = 1).

    u_(i-1), u_i and u_(i+1) are read from the closed form (module
    docstring, `_u_closed_terms`), not from the recurrence, so the row
    checks the closed form's derivatives against the step: a term of the
    closed u_(i+1) with p not dividing its s-exponent, moved by one power
    of T, breaks it.  Every s-exponent e of every u_j is 0 or 1 mod p,
    e = E(m) = sum_{k in m} q^k being bit 0 of m mod p, so e mod p is 1 on
    each term the p | e filter keeps: dropping that factor is still an
    equivalent mutant.
    """
    if i < 1:
        raise DomainError("the derivative recursion only holds for steps i >= 1")
    _check_designated(field)
    q = field.card
    _check_stride("u_{i}", q, i + 1, _u_degree)
    d = [_derivative(field, _u_closed_terms(q, j)) for j in (i - 1, i, i + 1)]
    return d[2] == _u_step(field, d[0], d[1], i)


def _u_closed_terms(q, d):
    """Generic u_d as a term map from the closed form, from no recurrence:
    T^(t(m)) s^(E(m)) over the d-bit masks m, each of coefficient 1."""
    return {t * _T_STRIDE + e: 1
            for t, e in zip(_t_closed_form(q, d), _mask_exponents(q, d))}


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
    h(0) != 0: h is u_d(alpha, s), h(0) != 0, and alpha^(q^j) != alpha,
    0 < j < d.  h is compared with the closed form sum_m alpha^(t(m)) *
    s^(E(m)) of u_d over kappa (module docstring), whose t(m) comes from no
    recurrence (`_t_closed_form`): the universal route's h checks the
    formula against the recurrence, prime by prime.

    Over kappa, u_{i+1} = A_i*u_i - B_i*u_{i-1} with A_i = s^(q^i) +
    alpha^(q^(i+1)) and B_i = (alpha^(q^i) - alpha)*s^(q^i).  For i >= 1,
    d/ds kills A_i and B_i, so the u_i' obey the same recurrence, and the
    Casoratian W_i = u_i*u_{i-1}' - u_{i-1}*u_i' has W_1 = -1, W_{i+1} =
    B_i*W_i.  So W_d = -prod_{0<j<d} (alpha^(q^j) - alpha) * s^(q + ... +
    q^(d-1)) != 0, a common factor of h and h' is a power of s, and h(0)
    != 0 leaves only 1."""
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    closed = K.powers(a, _t_closed_form(q, prime.d))
    return (prime._poly_on_masks(closed) == h
            and bool(h.constant_coeff())
            and all(K._pow(a, q ** j) != a for j in range(1, prime.d)))


def u_root_test(K, gamma, q, d):
    """The test u_d(gamma, x) = 0 for an index x of the field of the
    kernel K, gamma the index of a root of a prime p of degree d: by the
    paper's u_d mod p = h_p, whether the module with T-image gamma and
    Delta = x is supersingular.  It runs u_(i+1) of the module docstring at
    T = gamma, s = x: d steps of scalar products, the gamma-constants
    formed once, for `drinfeld.is_supersingular` and `isogeny_graph`."""
    add, mul, pw = K._add, K._mul, K._pow
    g_q = pw(gamma, q)
    # per step i >= 1: gamma^(q^(i+1)) and gamma - gamma^(q^i)
    steps = [(pw(gamma, q ** (i + 1)), add(gamma, K._neg(pw(gamma, q ** i))))
             for i in range(1, d)]

    def is_root(x):
        # u_0 = 1 and u_1 = x + gamma^q
        prev, cur = 1, add(x, g_q)
        for c, b in steps:
            x = pw(x, q)
            prev, cur = cur, add(mul(add(x, c), cur), mul(mul(b, x), prev))
        return not cur

    return is_root
