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
mod p (universal).  The companion H has degree q^(d+1) - q and encodes the
Legendre-form parameter: H is the numerator of
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
from .modulus import PrimeModulus, reduce_mod_prime, t_poly_ring
from .ore import OreContext, drinfeld_image, qpow
from .poly import Poly, PolyRing, exact_div
from .universal import u_sequence


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
    image = drinfeld_image(ctx, module.psi_T(ctx), prime.p_poly,
                           scalar=lambda c: embed(c, L))
    return not image.coeff(prime.d)


def deuring_g_sequence(prime):
    """tau-coefficients of psi_{p(T)} as polynomials in Delta over kappa.

    Delta is represented by the variable s.  The list has 2d + 1 entries.
    """
    kappa = prime.kappa
    ring = PolyRing(kappa, "s")
    ctx = OreContext(ring, prime.q)
    alpha = prime.alpha
    psi = ctx.op((ring.const(alpha), -(ring.gen + alpha), ring.gen))
    image = drinfeld_image(ctx, psi, prime.p_poly,
                           scalar=lambda c: ring.const(kappa.embed_from_base(c)))
    if image.degree != 2 * prime.d:
        raise ConsistencyError("psi_p has wrong tau-degree")
    return [image.coeff(k) for k in range(2 * prime.d + 1)]


def deuring_h_direct(prime):
    g = deuring_g_sequence(prime)
    d = prime.d
    if any(g[k] for k in range(d)):
        raise ConsistencyError("low tau-coefficients of psi_p did not vanish")
    h = g[d]
    if d % 2:
        h = -h
    return h


def grec_g_sequence(prime, k_max):
    """[g_0, ..., g_{k_max}] of the coefficient recurrence, run generically.

    The recurrence is independent of the prime chosen, so it is run over
    F_q[T][Delta] with gamma the identity; every division by T^(q^k) - T is
    then exact, and a nonzero remainder raises RecurrenceBreakdownError.
    Delta is represented by the variable s.
    """
    field = prime.field_q
    q = prime.q
    A = t_poly_ring(field)
    D = PolyRing(A, "s")
    p = prime.p_poly
    out = [D.const(p)]
    if k_max >= 1:
        out.append(_generic_g1(D, p))
    T = A.gen
    omega = Poly(D, (T, A.one))  # Delta + T
    delta = D.gen
    for k in range(2, k_max + 1):
        g1, g2 = out[k - 1], out[k - 2]
        num = g1 * qpow(omega, q, k - 1) - qpow(g1, q, 1) * omega \
            - g2 * qpow(delta, q, k - 2) + qpow(g2, q, 2) * delta
        div = T ** (q ** k) - T
        gk = num.map_coeffs(
            lambda c: exact_div(c, div, RecurrenceBreakdownError), D)
        out.append(gk)
    return out[:k_max + 1]


def _generic_g1(D, p):
    # tau-degree <= 1 part of psi_{p} over A[Delta], by the Horner pair
    # (psi^i)_0 = (psi^{i-1})_0 * T, (psi^i)_1 = (psi^{i-1})_0 * (-(Delta+T))
    #                                  + (psi^{i-1})_1 * T^q
    A = D.base
    T = A.gen
    q = A.base.card
    tq = T ** q
    neg_omega = Poly(D, (-T, -A.one))
    c0, c1 = D.one, D.zero
    pairs = [(c0, c1)]
    for _ in range(p.degree):
        c0, c1 = c0 * T, c0 * neg_omega + c1 * tq
        pairs.append((c0, c1))
    acc = D.zero
    for a, (_, c1) in zip(p.coeffs, pairs):
        if a:
            acc = acc + c1 * a
    return acc


def deuring_h_grec(prime):
    g = grec_g_sequence(prime, prime.d)
    h = reduce_mod_prime(g[prime.d], prime)
    if prime.d % 2:
        h = -h
    return h


def deuring_h_universal(prime):
    u = u_sequence(prime.field_q, prime.d)[prime.d]
    return reduce_mod_prime(u, prime)


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
