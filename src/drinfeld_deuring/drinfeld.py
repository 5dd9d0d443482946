"""Rank-2 Drinfeld modules in Legendre form and their Deuring polynomials.

The module with parameter Delta over a field L (with designated base F_q and
T-image gamma) is

    psi_T = Delta*tau^2 - (Delta + gamma)*tau + gamma
          = (Delta*tau - gamma) * (tau - 1).

For a prime p(T) of degree d, psi_{p(T)} has tau-coefficients g_k(Delta) with
g_k = 0 for k < d; the Deuring polynomial is h = (-1)^d g_d, monic of degree
(q^d - 1)/(q - 1), and Delta_0 is supersingular exactly when h(Delta_0) = 0.

h is computed three independent ways: symbolically from the twisted-polynomial
image (direct), by the coefficient recurrence run in generic A-characteristic
over F_q[T][Delta] (grec), and by reducing the universal sequence term u_d
mod p (universal).  `deuring_g_sequence(prime, k_max)` returns the k_max + 1
entries g_0..g_{k_max}, and the direct route asks it for k_max = d: a
twisted product only raises the tau-degree, so the Horner image is truncated
at tau^d, and the coefficients above it, up to g_2d of Delta-degree
(q^(2d) - 1)/(q^2 - 1), are never built.  grec holds each g_k as term maps,
the nonzero coefficients of T per power of Delta: the recurrence only
shifts, stretches and adds them, and its exact divisions by T^(q^k) - T are
running sums over residue classes of exponents.

The companion H has degree q^(d+1) - q and encodes the Legendre-form
parameter: H is the numerator of
((s^q - s)^(q-1)/gamma(T^q))^N * h(gamma(T)/(s^q - s)^(q-1)) with
N = deg h, expanded as the closed sum
gamma(T^q)^(-N) * sum_j h_j * gamma(T)^j * (s^q - s)^((q-1)(N-j)).
That sum is the definition; it is evaluated as a polynomial in
S = (s^q - s)^(q-1) by base-q composition, which uses S(s)^q = S(s^q) to
replace N products by a growing accumulator with about log_q N levels of
products by the fixed powers S^r, r < q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, DomainError, RecurrenceBreakdownError
from .fields import embed
from .modulus import PrimeModulus, t_poly_ring
from .ore import OreContext, drinfeld_image
from .poly import Poly, PolyRing
from .universal import u_mod_prime


class DeltaModule:
    """psi in Delta-form over a field L: T-image gamma and parameter Delta."""

    def __init__(self, L, t_image, delta):
        self.L = L
        self.q = L.q
        self.t_image = L.coerce(t_image)
        self.delta = L.coerce(delta)
        if not self.delta:
            raise DomainError("Delta must be nonzero")

    def psi_T(self, ctx=None):
        if ctx is None:
            ctx = OreContext(self.L, self.q)
        g, d = self.t_image, self.delta
        return ctx.op((g, -(d + g), d))

    def j_invariant(self):
        return (self.delta + self.t_image) ** (self.q + 1) / self.delta

    def __repr__(self):
        return f"DeltaModule(gamma={self.t_image!r}, delta={self.delta!r})"


class LambdaModule:
    """Legendre lambda-form: Delta = gamma / (lambda^q - lambda)^(q-1)."""

    def __init__(self, L, t_image, lam):
        self.L = L
        self.q = L.q
        self.t_image = L.coerce(t_image)
        self.lam = L.coerce(lam)
        if self.lam ** self.q == self.lam:
            raise DomainError("lambda must lie outside F_q")

    def to_delta(self):
        q = self.q
        den = (self.lam ** q - self.lam) ** (q - 1)
        return DeltaModule(self.L, self.t_image, self.t_image / den)

    def j_invariant(self):
        q = self.q
        w = (self.lam ** q - self.lam) ** (q - 1)
        return self.t_image ** q * (1 + w) ** (q + 1) / w ** q

    def __repr__(self):
        return f"LambdaModule(gamma={self.t_image!r}, lambda={self.lam!r})"


def delta_from_lambda(module):
    return module.to_delta()


def j_invariant(module):
    return module.j_invariant()


def is_supersingular(module, prime):
    """Whether psi has no tau^d term in psi_{p(T)}, for deg-d prime p."""
    if isinstance(module, LambdaModule):
        module = module.to_delta()
    L = module.L
    if module.q != prime.q:
        raise DomainError("module and prime have different base fields")
    p_in_L = prime.p_poly.map_coeffs(lambda c: embed(c, L),
                                     PolyRing(L, prime.p_poly.ring.var))
    if p_in_L(module.t_image):
        raise DomainError("the T-image is not a root of p: "
                          "the module does not have characteristic p(T)")
    ctx = OreContext(L, module.q)
    # only the tau^d coefficient is read, so the image stops there
    image = drinfeld_image(ctx, module.psi_T(ctx), prime.p_poly,
                           scalar=lambda c: embed(c, L), top=prime.d)
    return not image.coeff(prime.d)


def deuring_g_sequence(prime, k_max=None):
    """[g_0, ..., g_{k_max}]: tau-coefficients of psi_{p(T)} as polynomials
    in Delta over kappa, with k_max = 2d by default.

    Delta is represented by the variable s.  The list has k_max + 1
    entries.  The image is computed only up to tau^(k_max), since the
    coefficients above it never feed the lower ones; a full image
    (k_max >= 2d) is checked to have tau-degree 2d.
    """
    d = prime.d
    if k_max is None:
        k_max = 2 * d
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    kappa = prime.kappa
    ring = PolyRing(kappa, "s")
    ctx = OreContext(ring, prime.q)
    alpha = prime.alpha
    psi = ctx.op((ring.const(alpha), -(ring.gen + alpha), ring.gen))
    image = drinfeld_image(ctx, psi, prime.p_poly,
                           scalar=lambda c: ring.const(kappa.embed_from_base(c)),
                           top=k_max)
    if k_max >= 2 * d and image.degree != 2 * d:
        raise ConsistencyError("psi_p has wrong tau-degree")
    return [image.coeff(k) for k in range(k_max + 1)]


def _h_from_g(prime, g):
    """h = (-1)^d g_d, once g_0..g_d have the shape that makes it the
    Deuring polynomial: g_k = 0 for k < d, and g_d of degree
    (q^d - 1)/(q - 1) with leading coefficient (-1)^d.  Otherwise
    ConsistencyError."""
    d, q = prime.d, prime.q
    if any(g[k] for k in range(d)):
        raise ConsistencyError("low tau-coefficients of psi_p did not vanish")
    gd = g[d]
    sign = -prime.kappa.one if d % 2 else prime.kappa.one
    if gd.degree != (q ** d - 1) // (q - 1) or gd.lead != sign:
        raise ConsistencyError("g_d does not have degree (q^d - 1)/(q - 1) "
                               "and leading coefficient (-1)^d")
    return -gd if d % 2 else gd


def deuring_h_direct(prime):
    return _h_from_g(prime, deuring_g_sequence(prime, prime.d))


def check_g_structure(prime, h):
    """The shape of psi_{p(T)} that makes h its Deuring polynomial.

    g_k = 0 for k < d; g_d has degree (q^d - 1)/(q - 1) and leading
    coefficient (-1)^d; g_{2d} = Delta^(1 + q^2 + ... + q^(2d-2)); and h
    divides g_k for d <= k < 2d.
    """
    g = deuring_g_sequence(prime)
    d, q = prime.d, prime.q
    try:
        _h_from_g(prime, g)
    except ConsistencyError:
        return False
    if g[2 * d] != g[d].ring.gen ** sum(q ** (2 * i) for i in range(d)):
        return False
    return not any(divmod(g[k], h)[1] for k in range(d, 2 * d))


def grec_g_sequence(prime, k_max):
    """[g_0, ..., g_{k_max}] of the coefficient recurrence, run generically.

    The recurrence does not depend on the prime, so it is run over
    F_q[T][Delta] with gamma the identity, from g_0 = p(T) and g_(-1) = 0;
    every division by T^(q^k) - T is then exact, and a nonzero remainder
    raises RecurrenceBreakdownError.  The steps run on sparse term maps
    (`_grec_terms`); only the result is converted to polynomials, with Delta
    represented by the variable s.
    """
    F = prime.field_q
    A = t_poly_ring(F)
    out = []
    for g in _grec_terms(prime, k_max):
        rows = []
        for de in range(max(g, default=-1) + 1):
            terms = g.get(de, {})
            cs = [F.zero] * (max(terms, default=-1) + 1)
            for te, c in terms.items():
                cs[te] = F.from_index(c)
            rows.append(Poly(A, cs))
        out.append(Poly(PolyRing(A, "s"), rows))
    return out


def _grec_terms(prime, k_max):
    """g_0, ..., g_{k_max} as term maps {Delta exponent: {T exponent: c}}.

    Each c is the F_q index of a nonzero coefficient.  With omega = Delta + T
    and g_(-1) = 0, step k >= 1 is

        g_k * (T^(q^k) - T) = g_(k-1) * omega^(q^(k-1)) - g_(k-1)^(q) * omega
                              - g_(k-2) * Delta^(q^(k-2)) + g_(k-2)^(q^2) * Delta,

    the tau^k coefficient of psi_T * psi_p = psi_p * psi_T.  Frobenius fixes
    F_q, so g^(q^j) stretches both exponents by q^j and keeps every c, and the
    right side is a signed sum of shifted and stretched copies: no products.
    """
    F = prime.field_q
    q = prime.q
    add = [[F._add(a, b) for b in range(q)] for a in range(q)]
    same = list(range(q))
    neg = [F._neg(c) for c in range(q)]
    out = [{0: {e: c.index for e, c in enumerate(prime.p_poly.coeffs) if c}}]
    g2 = {}
    for k in range(1, k_max + 1):
        g1 = out[-1]
        num = {}
        # (term map, its sign, Delta stretch, Delta shift, T stretch, T shift)
        moves = [(g1, same, 1, q ** (k - 1), 1, 0),
                 (g1, same, 1, 0, 1, q ** (k - 1)),
                 (g1, neg, q, 1, q, 0),
                 (g1, neg, q, 0, q, 1)]
        if g2:
            moves += [(g2, neg, 1, q ** (k - 2), 1, 0),
                      (g2, same, q * q, 1, q * q, 0)]
        for g, sign, ds, dt, ts, tt in moves:
            for de, terms in g.items():
                row = num.setdefault(de * ds + dt, {})
                for te, c in terms.items():
                    t = te * ts + tt
                    row[t] = add[row.get(t, 0)][sign[c]]
        gk = {}
        for de, f in num.items():
            quot = _exact_div_terms(f, q ** k, add)
            if quot:
                gk[de] = quot
        g2 = g1
        out.append(gk)
    return out[:k_max + 1]


def _exact_div_terms(f, Q, add):
    """f / (T^Q - T) for a term map f {T exponent: F_q index}, Q = q^k.

    With L = Q - 1, T^Q - T = T * (T^L - 1), so the quotient's coefficient at
    i is f_(i+Q) + f_(i+Q+L) + ..., a descending running sum over one residue
    class mod L.  The division is exact iff f has no constant term and every
    class sums to zero; otherwise RecurrenceBreakdownError.  `add` is the
    addition table of the F_q indices.
    """
    if f.get(0):
        raise RecurrenceBreakdownError(
            f"division by T^{Q} - T: the dividend has a constant term")
    L = Q - 1
    quot = {}
    # per residue class mod L: the running sum and the exponent it last grew at
    sums, tops = {}, {}
    for e in sorted(f, reverse=True):
        c = f[e]
        if not c:
            continue
        r = e % L
        s = sums.get(r, 0)
        if s:
            # the quotient is s at every class position strictly above e - Q
            for i in range(tops[r] - Q, max(e - Q, -1), -L):
                quot[i] = s
        sums[r], tops[r] = add[s][c], e
    if any(sums.values()):
        raise RecurrenceBreakdownError(
            f"division by T^{Q} - T leaves a nonzero remainder")
    return quot


def deuring_h_grec(prime):
    g = _grec_terms(prime, prime.d)[prime.d]
    rows = prime._reduce_terms((de, terms.items()) for de, terms in g.items())
    if prime.d % 2:
        rows = {de: prime.kappa._neg(c) for de, c in rows.items()}
    return prime._kappa_poly(rows)


def deuring_h_universal(prime):
    return u_mod_prime(prime)


def deuring_H(prime, h):
    """The companion polynomial of degree q^(d+1) - q, from h by substitution.

    H is the closed sum of the module docstring, i.e.
    H = gamma(T^q)^(-N) * R(S) with S = (s^q - s)^(q-1), N = deg h and
    R(x) = sum_n h_(N-n) * gamma(T)^(N-n) * x^n.  R(S) is evaluated by
    base-q composition (`_compose_in_S`), not term by term.
    """
    if not h or h.ring.base != prime.kappa:
        raise DomainError("deuring_H expects a nonzero polynomial over kappa")
    if not h.constant_coeff():
        raise ConsistencyError(
            "h(0) = 0: the substitution h(gamma/(s^q-s)^(q-1)) degenerates")
    q = prime.q
    kappa = prime.kappa
    alpha = prime.alpha
    N = h.degree
    # R is scaled by gamma(T^q)^(-N) up front: composition is linear in R
    coeffs = []
    c = (alpha ** q) ** (-N)
    for hj in h.coeffs:
        coeffs.append(hj * c)
        c = c * alpha
    H = _compose_in_S(coeffs[::-1], PolyRing(kappa, "s"), q)
    if H.degree != q ** (prime.d + 1) - q:
        raise ConsistencyError("H has the wrong degree")
    if H.lead != kappa.one:
        raise ConsistencyError("H is not monic")
    return H


def _compose_in_S(coeffs, ring, q):
    """R(S) in `ring` for R(x) = sum_n coeffs[n] x^n and S = (s^q - s)^(q-1).

    S has coefficients in F_p, so S(s)^q = S(s^q).  Splitting R by residue
    mod q, R(x) = sum_(r<q) x^r R_r(x^q), gives
    R(S) = sum_(r<q) S^r * [R_r(S)](s^q): each level recurses on q parts of
    a q-th of the length, stretches their results by s -> s^q (no field
    arithmetic) and multiplies them by the fixed S^r of degree <= q(q-1)^2.
    """
    base = ring.base
    S = Poly(ring, (base.zero, -base.one) + (base.zero,) * (q - 2)
             + (base.one,)) ** (q - 1)
    S_pows = [ring.one]
    for _ in range(q - 1):
        S_pows.append(S_pows[-1] * S)

    def compose(cs):
        if len(cs) <= 1:
            return Poly(ring, cs)
        acc = ring.zero
        for r in range(min(q, len(cs))):
            inner = compose(cs[r::q]).coeffs
            stretched = [base.zero] * (q * len(inner) - q + 1)
            stretched[::q] = inner
            part = Poly(ring, stretched)
            acc = acc + (S_pows[r] * part if r else part)
        return acc

    return compose(list(coeffs))


@dataclass
class DeuringResult:
    prime: PrimeModulus
    method: str
    h: object
    H: object

    def to_json_dict(self):
        from . import grammar

        return {
            "q": self.prime.q,
            "p": grammar.render(self.prime.p_poly),
            "d": self.prime.d,
            "method": self.method,
            "h_coeffs": [grammar.render(c) for c in reversed(self.h.coeffs)],
            "H_coeffs": [grammar.render(c) for c in reversed(self.H.coeffs)],
        }


_METHODS = {
    "direct": deuring_h_direct,
    "grec": deuring_h_grec,
    "universal": deuring_h_universal,
}


def deuring(prime, method="direct"):
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}; "
                          f"expected one of {sorted(_METHODS)}")
    h = _METHODS[method](prime)
    H = deuring_H(prime, h)
    return DeuringResult(prime, method, h, H)
