"""Rank-2 Drinfeld modules in Legendre form and their Deuring polynomials.

The module with parameter Delta over a field L (with designated base F_q and
T-image gamma) is

    psi_T = Delta*tau^2 - (Delta + gamma)*tau + gamma
          = (Delta*tau - gamma) * (tau - 1).

For a prime p(T) of degree d, psi_{p(T)} has tau-coefficients g_k(Delta) with
g_k = 0 for k < d; the Deuring polynomial is h = (-1)^d g_d, monic of degree
(q^d - 1)/(q - 1), and Delta_0 is supersingular exactly when h(Delta_0) = 0.

h is computed three independent ways: symbolically from the twisted-polynomial
image (direct), by the coefficient recurrence of psi_T psi_p = psi_p psi_T
run in A/(p^2) (grec), and by reducing the universal sequence term u_d mod p
(universal).  The direct route runs Horner's rule for p(psi_T) over kappa,
where gamma = alpha and a product by psi_T is three shifted, scaled copies
of the tau-coefficients,

    (f * psi_T)_k = f_k * alpha^(qQ) - f_(k-1) * (Delta^Q + alpha^Q)
                    + f_(k-2) * Delta^(Q/q),        Q = q^(k-1),

and builds only k <= d: a product only raises the tau-degree, so the
coefficients above tau^d, up to g_2d of Delta-degree (q^(2d) - 1)/(q^2 - 1),
never feed g_0..g_d.

grec runs the tau^k coefficient of psi_T psi_p = psi_p psi_T,

    g_k * (T^(q^k) - T) = g_(k-1) * omega^(q^(k-1)) - g_(k-1)^(q) * omega
                          - g_(k-2) * Delta^(q^(k-2)) + g_(k-2)^(q^2) * Delta,

with omega = Delta + T, g_0 = p and g_(-1) = 0.  Over F_q[T][Delta] every
division is exact, but mod p the divisor T^(q^d) - T vanishes, so the
recurrence runs in A/(p^2).  a -> a(alpha) + a'(alpha)*eps is a ring map
A -> kappa[eps]/(eps^2), since d/dT is a derivation, and its kernel is
(p^2), since p is separable.  Under it a stretch a(T) -> a(T^(q^j)) has eps
part 0, g_0 maps to (0, p'(alpha)), and T^(q^k) - T maps to
(alpha^(q^k) - alpha, -1): a unit for k < d, and -eps at k = d.  Every step
is linear in the value parts, so they stay 0 below k = d, and what is left
is a three-term recurrence on the eps parts in kappa[Delta]
(`deuring_h_grec`).  Its last step divides by -eps, so g_d mod p is minus
the eps part of its numerator.  The route uses neither the Ore image nor u.

The companion H has degree q^(d+1) - q and encodes the Legendre-form
parameter: H is the numerator of
((s^q - s)^(q-1)/gamma(T^q))^N * h(gamma(T)/(s^q - s)^(q-1)) with
N = deg h, expanded as the closed sum
gamma(T^q)^(-N) * sum_j h_j * gamma(T)^j * (s^q - s)^((q-1)(N-j)).
That sum is the definition.  S = (s^q - s)^(q-1) is Y(y) with
y = s^(q-1) and Y(y) = y + ... + y^q, so the sum is R(Y) for a polynomial
R, which the field's kernel (`IndexKernel.compose_in_S`) composes in about
log_q N base-q levels, not by N products with a growing accumulator, and
returns in y.  In odd characteristic it runs in y, bottom up over chunks
of q^i coefficients: by Y(y)^(q^i) = Y(y^(q^i)) it sums each group of q
chunk results by Horner's rule in Y(y^(q^i)), so its only products are by
polynomials of q terms.  In characteristic 2, S = P^(q-1) with
P = s^q + s, and a level is log2(q) mask-shift-XOR passes over one packed
int of kappa indices in s, with no field product at all.  R(Y) goes onto
the (q-1)-stride of s in one place, `PrimeModulus._poly_in_y`, which
`universal.U_mod_prime` shares.

The direct route, grec and H run on kappa index lists in Delta (or s) in the
field's `fields.IndexKernel`, and build each `Poly` once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .fields import embed
from .modulus import PrimeModulus
from .ore import OreContext, drinfeld_image
from .poly import PolyRing, _from_indices
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
    image = drinfeld_image(ctx, module.psi_T(ctx), prime.p_poly,
                           scalar=lambda c: embed(c, L))
    return not image.coeff(prime.d)


def _omega_step(K, w1, w2, Q, q, aQ, c):
    """c * (w1 * (Delta^Q + alpha^Q) - w2 * Delta^(Q/q)) on K's index lists,
    with aQ the index of alpha^Q.  Both routes keep w1 and w2 * Delta^(Q/q)
    below Delta-degree Q, so the shift of c * w1 by Q overlaps nothing."""
    cw1 = K.scale(c, w1)
    low = K.scale(aQ, cw1)
    if w2:
        low = K.add_polys(low, [0] * (Q // q) + K.scale(K._neg(c), w2))
    return low + [0] * (Q - len(low)) + cw1 if cw1 else low


def _g_lists(prime, k_max):
    """g_0..g_{k_max} of psi_{p(T)} as kappa index lists in Delta, by
    Horner's rule for p(psi_T) with every product truncated at tau^(k_max)."""
    K, q = prime.kappa._kernel, prime.q
    ap = [K._pow(prime.alpha.index, q ** k) for k in range(k_max + 1)]
    emb = prime.kappa._base_emb
    cs = [emb[c.index] for c in prime.p_poly.coeffs]
    g = [[cs[-1]]] + [[]] * k_max
    for c in reversed(cs[:-1]):
        # g <- g * psi_T + c, by the product rule of the module docstring
        g = [K.add_polys(K.scale(ap[0], g[0]), [c])] + [
            K.add_polys(K.scale(ap[k], g[k]),
                        _omega_step(K, g[k - 1], g[k - 2] if k > 1 else [],
                                    q ** (k - 1), q, ap[k - 1], K._neg(1)))
            for k in range(1, k_max + 1)]
    return g


def deuring_g_sequence(prime, k_max=None):
    """[g_0, ..., g_{k_max}]: tau-coefficients of psi_{p(T)} as polynomials
    in Delta (the variable s) over kappa, k_max = 2d by default; none above
    tau^(k_max) is built.  A full image (k_max >= 2d) is checked to have
    tau-degree 2d."""
    d = prime.d
    k_max = 2 * d if k_max is None else k_max
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    g = _g_lists(prime, k_max)
    if k_max >= 2 * d and (not g[2 * d] or any(g[2 * d + 1:])):
        raise ConsistencyError("psi_p has wrong tau-degree")
    ring = prime.s_ring
    return [_from_indices(ring, c) for c in g]


def _h_from_gd(prime, gd):
    """h = (-1)^d g_d from the index list of g_d, once g_d has the shape
    that makes it the Deuring polynomial: degree (q^d - 1)/(q - 1) and
    leading coefficient (-1)^d.  Otherwise ConsistencyError."""
    d, q, K = prime.d, prime.q, prime.kappa._kernel
    sign = K._neg(1) if d % 2 else 1
    if len(gd) - 1 != (q ** d - 1) // (q - 1) or gd[-1] != sign:
        raise ConsistencyError("g_d does not have degree (q^d - 1)/(q - 1) "
                               "and leading coefficient (-1)^d")
    return _from_indices(prime.s_ring, K.scale(sign, gd))


def deuring_h_direct(prime):
    g = _g_lists(prime, prime.d)
    if any(g[:-1]):
        raise ConsistencyError("low tau-coefficients of psi_p did not vanish")
    return _h_from_gd(prime, g[-1])


def check_g_structure(prime, h):
    """The shape of psi_{p(T)} that makes h its Deuring polynomial.

    g_k = 0 for k < d; g_d has degree (q^d - 1)/(q - 1) and leading
    coefficient (-1)^d; g_{2d} = Delta^(1 + q^2 + ... + q^(2d-2)); and h
    divides g_k for d <= k < 2d.
    """
    d, q = prime.d, prime.q
    g = _g_lists(prime, 2 * d)
    try:
        _h_from_gd(prime, g[d])
    except ConsistencyError:
        return False
    monomial = [0] * sum(q ** (2 * i) for i in range(d)) + [1]
    if any(g[:d]) or g[2 * d] != monomial:
        return False
    return not any(divmod(_from_indices(h.ring, g[k]), h)[1]
                   for k in range(d, 2 * d))


def deuring_h_grec(prime):
    """h by the coefficient recurrence in A/(p^2) = kappa[eps]/(eps^2).

    As the module docstring derives, only the eps parts w_k of g_k are
    nonzero below k = d.  With w_(-1) = 0 and w_0 = p'(alpha), step k builds
    N_k = w_(k-1) * (Delta^Q + alpha^Q) - w_(k-2) * Delta^(Q/q), Q = q^(k-1)
    (`_omega_step`), and sets w_k = N_k / (alpha^(q^k) - alpha) for k < d,
    and g_d mod p = -N_d at k = d.
    """
    K, q, d, a = prime.kappa._kernel, prime.q, prime.d, prime.alpha.index
    F = prime.field_q
    # the terms of p' on F_q indices: the integer i has index i mod char F
    dp = [(i - 1, F._mul(i % F.p, c.index))
          for i, c in enumerate(prime.p_poly.coeffs) if i % F.p and c.index]
    w2, w1 = [], [prime._reduce_terms([(0, dp)])[0]]
    for k in range(1, d + 1):
        Q = q ** (k - 1)
        # T^(q^k) - T: the unit alpha^(q^k) - alpha for k < d, -eps at k = d
        c = K._inv(K._add(K._pow(a, Q * q), K._neg(a))) if k < d else K._neg(1)
        w2, w1 = w1, _omega_step(K, w1, w2, Q, q, K._pow(a, Q), c)
    return _h_from_gd(prime, w1)


def deuring_h_universal(prime):
    return u_mod_prime(prime)


def deuring_H(prime, h):
    """The companion polynomial of degree q^(d+1) - q, from h by substitution.

    H is the closed sum of the module docstring, i.e.
    H = gamma(T^q)^(-N) * R(S) with S = (s^q - s)^(q-1), N = deg h and
    R(x) = sum_n h_(N-n) * gamma(T)^(N-n) * x^n.  S = Y(y), y = s^(q-1),
    and kappa's kernel (`IndexKernel.compose_in_S`) returns R(Y) in y, on
    which the degree and monic checks run.  It all runs on kappa index
    lists, from scaling h (`IndexKernel.dilate`) to the `Poly` at the end,
    where `PrimeModulus._poly_in_y` turns y into s^(q-1).
    """
    if not h or h.ring.base != prime.kappa:
        raise DomainError("deuring_H expects a nonzero polynomial over kappa")
    if not h.constant_coeff():
        raise ConsistencyError(
            "h(0) = 0: the substitution h(gamma/(s^q-s)^(q-1)) degenerates")
    q, N, a = prime.q, h.degree, prime.alpha.index
    K = prime.kappa._kernel
    # R is scaled by gamma(T^q)^(-N) up front: composition is linear in R
    R = K.scale(K._pow(a, -q * N), K.dilate([c.index for c in h.coeffs], a))
    Hy = K.compose_in_S(R[::-1], q)
    if (q - 1) * (len(Hy) - 1) != q ** (prime.d + 1) - q:
        raise ConsistencyError("H has the wrong degree")
    if Hy[-1] != 1:
        raise ConsistencyError("H is not monic")
    return prime._poly_in_y(Hy)


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
