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
never feed g_0..g_d.  Each Delta in psi_T^n sits at its own tau-position,
so g_k lies on the sums of distinct q^j, j < k: it has at most 2^k terms,
against Delta-degree (q^k - 1)/(q - 1).  The route runs on these digit
masks (`_g_lists`), where a shift by Delta^(q^j) sets bit j, and a g_k is
a vector of 2^k slots in the kernel's own form: an index list in odd
characteristic, one packed int of index slots in characteristic 2.  The
masks become exponents once, where h or g_k is built.

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
(`deuring_h_grec`), run on the digit masks of g_k.  Its last step divides
by -eps, so g_d mod p is minus the eps part of its numerator.  The route
uses neither the Ore image nor u.

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

The direct route runs on the kernel's slot vectors on digit masks, grec on
kappa index lists on the same masks, and H on kappa index lists in y, all
in the field's `fields.IndexKernel`.  A polynomial over kappa holds its
index tuple (`poly`), so each result becomes a `Poly` by placing indices,
with no element looked up, and H reads the indices of h as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .fields import embed
from .modulus import PrimeModulus
from .ore import OreContext
from .poly import PolyRing, _indices
from .universal import u_mod_prime, u_root_test


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
    """Whether psi has no tau^d term in psi_{p(T)}, for deg-d prime p: by
    the paper's h_p(Delta) = u_d(gamma, Delta), the u-recurrence at the
    point (`universal.u_root_test`), with no twisted polynomial built."""
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
    is_root = u_root_test(L._kernel, module.t_image.index, prime.q, prime.d)
    return is_root(module.delta.index)


def _omega_step(K, w1, w2, bit, aQ, c):
    """c * (w1 * (Delta^Q + alpha^Q) - w2 * Delta^(Q/q)) on K's index lists
    on digit masks, Q = q^(k-1) and bit = 2^(k-1), with aQ the index of
    alpha^Q: grec's N_k.  w1 lies on masks below bit and w2 below bit/2,
    so a product by Delta^Q sets bit k-1 of w1 and one by Delta^(Q/q) bit
    k-2 of w2, and the shift of c * w1 overlaps nothing."""
    cw1 = K.scale(c, w1)
    low = K.scale(aQ, cw1)
    if w2:
        low = K.add_polys(low, [0] * (bit // 2) + K.scale(K._neg(c), w2))
    return low + [0] * (bit - len(low)) + cw1 if cw1 else low


def _g_lists(prime, k_max):
    """g_0..g_{k_max} of psi_{p(T)} as kappa index lists on digit masks:
    slot m of g_k holds the coefficient of Delta^(sum_{j in m} q^j).

    Horner's rule for p(psi_T), with every product truncated at
    tau^(k_max), runs on e_k = (-1)^k g_k in the kernel's slot vectors
    (`IndexKernel.vector`), where the product rule of the module docstring
    has no sign:

        (e * psi_T)_k = alpha^(q^k) * e_k + alpha^(q^(k-1)) * e_(k-1)
                        + Delta^(q^(k-1)) * e_(k-1) + Delta^(q^(k-2)) * e_(k-2).

    By induction on this rule every e_k lies on k-bit masks: a product by
    Delta^(q^j) of a vector on masks below 2^j sets bit j, a place at slot
    2^j.  So a step is one scale of each e_k, which serves e_k and
    e_(k+1), two places and three adds per k."""
    K, q = prime.kappa._kernel, prime.q
    ap = [K._pow(prime.alpha.index, q ** k) for k in range(k_max + 1)]
    emb = prime.kappa._base_emb
    cs = [K.vector([emb[c]] if c else []) for c in _indices(prime.p_poly)]
    zero = K.vector([])
    e = [cs[-1]] + [zero] * k_max
    for c in reversed(cs[:-1]):
        # e <- e * psi_T + c
        s = [K.vector_scale(a, x) for a, x in zip(ap, e)]
        nxt = [K.vector_add(s[0], c)]
        for k in range(1, k_max + 1):
            x = K.vector_add(K.vector_add(s[k], s[k - 1]),
                             K.vector_place(e[k - 1], 1 << (k - 1)))
            if k > 1:
                x = K.vector_add(x, K.vector_place(e[k - 2], 1 << (k - 2)))
            nxt.append(x)
        e = nxt
    neg = K._neg(1)
    return [K.vector_list(K.vector_scale(neg, x) if k % 2 else x)
            for k, x in enumerate(e)]


def deuring_g_sequence(prime, k_max=None):
    """[g_0, ..., g_{k_max}]: tau-coefficients of psi_{p(T)} as polynomials
    in Delta (the variable s) over kappa, k_max = 2d by default; none above
    tau^(k_max) is built.  They are built on digit masks (`_g_lists`) and
    placed on their exponents once, here.  A full image (k_max >= 2d) is
    checked to have tau-degree 2d."""
    d = prime.d
    k_max = 2 * d if k_max is None else k_max
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    g = _g_lists(prime, k_max)
    if k_max >= 2 * d and (not g[2 * d] or any(g[2 * d + 1:])):
        raise ConsistencyError("psi_p has wrong tau-degree")
    return [prime._poly_on_masks(c) for c in g]


def _h_from_gd(prime, gd):
    """h = (-1)^d g_d from the index list of g_d on digit masks, once g_d
    has the shape that makes it the Deuring polynomial: top slot 2^d - 1,
    that is degree (q^d - 1)/(q - 1), and leading coefficient (-1)^d.
    Otherwise ConsistencyError.  Masks become exponents here, as h is
    built."""
    d, K = prime.d, prime.kappa._kernel
    sign = K._neg(1) if d % 2 else 1
    if len(gd) != 2 ** d or gd[-1] != sign:
        raise ConsistencyError("g_d does not have degree (q^d - 1)/(q - 1) "
                               "and leading coefficient (-1)^d")
    return prime._poly_on_masks(K.scale(sign, gd))


def deuring_h_direct(prime):
    g = _g_lists(prime, prime.d)
    if any(g[:-1]):
        raise ConsistencyError("low tau-coefficients of psi_p did not vanish")
    return _h_from_gd(prime, g[-1])


def check_g_structure(prime, h):
    """The shape of psi_{p(T)} that makes h, over kappa, its Deuring
    polynomial.

    g_k = 0 for k < d; g_d has degree (q^d - 1)/(q - 1) and leading
    coefficient (-1)^d; g_{2d} = Delta^(1 + q^2 + ... + q^(2d-2)), whose
    digit mask holds the even bits below 2d; and h divides g_k for
    d <= k < 2d, divided on the kernel's index lists in Delta.
    """
    d, K = prime.d, prime.kappa._kernel
    g = _g_lists(prime, 2 * d)
    try:
        _h_from_gd(prime, g[d])
    except ConsistencyError:
        return False
    monomial = [0] * sum(4 ** i for i in range(d)) + [1]
    if any(g[:d]) or g[2 * d] != monomial:
        return False
    return not any(K.mod(prime._on_exponents(g[k]), _indices(h))
                   for k in range(d, 2 * d))


def deuring_h_grec(prime):
    """h by the coefficient recurrence in A/(p^2) = kappa[eps]/(eps^2).

    As the module docstring derives, only the eps parts w_k of g_k are
    nonzero below k = d.  With w_(-1) = 0 and w_0 = p'(alpha), step k builds
    N_k = w_(k-1) * (Delta^Q + alpha^Q) - w_(k-2) * Delta^(Q/q), Q = q^(k-1)
    (`_omega_step`), and sets w_k = N_k / (alpha^(q^k) - alpha) for k < d,
    and g_d mod p = -N_d at k = d.  w_k is the eps part of g_k, so like g_k
    (`_g_lists`) it lies on k-bit digit masks, and the recurrence runs on
    them: a product by Delta^(q^j) sets bit j.
    """
    K, q, d, a = prime.kappa._kernel, prime.q, prime.d, prime.alpha.index
    F = prime.field_q
    # the terms of p' on F_q indices: the integer i has index i mod char F
    dp = [(i - 1, F._mul(i % F.p, c))
          for i, c in enumerate(_indices(prime.p_poly)) if i % F.p and c]
    w2, w1 = [], prime._reduce_terms([dp])
    for k in range(1, d + 1):
        Q = q ** (k - 1)
        # T^(q^k) - T: the unit alpha^(q^k) - alpha for k < d, -eps at k = d
        c = K._inv(K._add(K._pow(a, Q * q), K._neg(a))) if k < d else K._neg(1)
        w2, w1 = w1, _omega_step(K, w1, w2, 1 << (k - 1), K._pow(a, Q), c)
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
    lists, from h's index tuple, scaled by `IndexKernel.dilate`, to the
    `Poly` at the end, where `PrimeModulus._poly_in_y` places y on
    s^(q-1).
    """
    if not h or h.ring.base != prime.kappa:
        raise DomainError("deuring_H expects a nonzero polynomial over kappa")
    if not h.constant_coeff():
        raise ConsistencyError(
            "h(0) = 0: the substitution h(gamma/(s^q-s)^(q-1)) degenerates")
    q, N, a = prime.q, h.degree, prime.alpha.index
    K = prime.kappa._kernel
    # R is scaled by gamma(T^q)^(-N) up front: composition is linear in R
    R = K.scale(K._pow(a, -q * N), K.dilate(_indices(h), a))
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
            "h_coeffs": grammar.coefficient_texts(self.h)[::-1],
            "H_coeffs": grammar.coefficient_texts(self.H)[::-1],
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
