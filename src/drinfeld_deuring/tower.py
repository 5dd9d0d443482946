"""Exact identity checks behind the correspondence tower.

All checks run in generic A-characteristic: the structure-map image of T is
treated as the indeterminate T itself, so every statement is a polynomial
identity over F_q and passes or fails with zero tolerance.  Rational
expressions are cleared of denominators up front (the clearing factor is
stated next to each check); nothing is ever evaluated numerically.

The verified statements, written multiplicatively cleared:

  factorization        (D0+T^q)^(q+1) * D1 - (D1+T)^(q+1) * D0^q
                         = (D0*D1 - T^(q+1))
                           * (D0^q + T^(q^2) - (D0*D1 - T^(q+1))^(q-1) * (D1+T))

  theta parametrization  D0 = theta^(q-1)*(theta+T), D1 = (theta+T)^q/theta^(q-1)
                         annihilate the second factor above (cleared by
                         theta^(q-1)); the Y-form D0 = -T^q*(Y+1)^(q-1)*Y,
                         D1 = -T*Y^q/(Y+1)^(q-1) reproduces the theta form
                         under Y = -(theta+T)/T.

  recursion step         equating consecutive-level invariants
                         -T^q*(Y1+1)^(q-1)*Y1 = -T*Y0^q/(Y0+1)^(q-1)
                         is, after clearing, the same relation as
                         (Y1+1)^(q-1)*Y1 = Y0^q/(T^(q-1)*(Y0+1)^(q-1))
                         (the two cleared forms differ by the factor -T).

  j chain                (D0+T^q)^(q+1)/D0^q = (D1+T)^(q+1)/D1 holds
                         identically under the Y-parametrization, and the
                         cleared numerator of j(s) - c has s-degree q^3 - q.

The j chain compares A/B with C/D, the two sides as cleared fractions.  The
cross product A*D == C*B pairs about q^2 terms with q^2, so it is checked
without forming it.  D = (Y+1)^(q^2-1) * (-T*Y^q) satisfies the factor
identity

  D*(Y+1) = -T*Y^q*(Y^(q^2)+1) = E,   as (Y+1)^(q^2) = Y^(q^2)+1,

and once that holds, A*D == C*B exactly when A*E == (C*B)*(Y+1), since
Y+1 is not a zero divisor in F_q[T, Y].  E has two terms and B about q, so
no product pairs a dense side with a dense one.  Should the factor identity
fail, the cross product decides.  A report's term counts are those of A*D
and C*B either way; A*D is the exact quotient of A*E by Y+1 when it is
needed.
"""

from dataclasses import dataclass

from .errors import CapExceededError
from .fields import base_field
from .multipoly import _STRIDE, MultiRing

# the identities grow about as q^3, most at a prime q, whose digit powers
# x^(q-1) are square-and-multiply: 1.2 s at q = 127, 15 s at 251
IDENTITIES_Q_MAX = 128


@dataclass(frozen=True)
class IdentityReport:
    name: str
    q: int
    verified: bool
    lhs_terms: int
    rhs_terms: int

    def to_json_dict(self):
        return {
            "name": self.name,
            "q": self.q,
            "verified": self.verified,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
        }


def verify_factorization(q):
    F = base_field(q)
    R = MultiRing(F, ("T", "D0", "D1"))
    T, D0, D1 = R.gens()
    lhs = (D0 + T ** q) ** (q + 1) * D1 - (D1 + T) ** (q + 1) * D0 ** q
    core = D0 * D1 - T ** (q + 1)
    rhs = core * (D0 ** q + T ** (q * q) - core ** (q - 1) * (D1 + T))
    return IdentityReport("factorization", q, lhs == rhs,
                          len(lhs.packed), len(rhs.packed))


def verify_theta_parametrization(q):
    F = base_field(q)
    R = MultiRing(F, ("T", "theta"))
    T, th = R.gens()

    # theta form kills the non-linear factor: with D0 = theta^(q-1)(theta+T)
    # and D1 = (theta+T)^q/theta^(q-1) we get D0*D1 = (theta+T)^(q+1), and
    # clearing the single denominator theta^(q-1) turns
    # D0^q + T^(q^2) = (D0*D1 - T^(q+1))^(q-1) * (D1 + T) into:
    d0 = th ** (q - 1) * (th + T)
    core = (th + T) ** (q + 1) - T ** (q + 1)
    lhs = th ** (q - 1) * (d0 ** q + T ** (q * q))
    rhs = core ** (q - 1) * ((th + T) ** q + T * th ** (q - 1))
    ok = lhs == rhs

    # Y = -(theta+T)/T has Y+1 = -theta/T; writing Y = yn/T, Y+1 = wn/T the
    # T-powers cancel exactly in the D0 formula and cross-multiply in D1.
    yn = -(th + T)
    wn = -th
    ok = ok and -(wn ** (q - 1)) * yn == d0
    ok = ok and -(yn ** q) * th ** (q - 1) == (th + T) ** q * wn ** (q - 1)

    return IdentityReport("theta-parametrization", q, ok,
                          len(lhs.packed), len(rhs.packed))


def verify_recursion_step(q):
    F = base_field(q)
    R = MultiRing(F, ("T", "Y0", "Y1"))
    T, Y0, Y1 = R.gens()
    # chain condition cleared by (Y0+1)^(q-1)
    chain = -(T ** q) * (Y1 + 1) ** (q - 1) * Y1 * (Y0 + 1) ** (q - 1) \
        - (-T * Y0 ** q)
    # stated one-step relation cleared by T^(q-1)*(Y0+1)^(q-1)
    step = T ** (q - 1) * (Y1 + 1) ** (q - 1) * Y1 * (Y0 + 1) ** (q - 1) \
        - Y0 ** q
    rhs = -T * step
    return IdentityReport("recursion-step", q, chain == rhs,
                          len(chain.packed), len(rhs.packed))


def j_chain_check(q):
    F = base_field(q)
    R = MultiRing(F, ("T", "Y"))
    T, Y = R.gens()
    w = (Y + 1) ** (q - 1)
    d0 = -(T ** q) * w * Y
    d1 = -T * Y ** q
    # (D0+T^q)^(q+1)/D0^q = A/B and (D1+T)^(q+1)/D1 = C/D with D1 = d1/w
    a = (d0 + T ** q) ** (q + 1)
    b = d0 ** q
    c = (d1 + T * w) ** (q + 1) * w
    d = w ** (q + 1) * d1
    ok, lhs_terms, rhs_terms = _cross_check(a, b, c, d,
                                            -T * Y ** q * (Y ** (q * q) + 1))

    # cleared numerator of j(s) - c, generic constant c
    S = MultiRing(F, ("T", "s", "c"))
    T2, s, c = S.gens()
    num = T2 ** q * (1 + (s ** q - s) ** (q - 1)) ** (q + 1) \
        - c * (s ** q - s) ** (q * q - q)
    ok = ok and num.degree("s") == q ** 3 - q

    return IdentityReport("j-chain", q, ok, lhs_terms, rhs_terms)


def _cross_check(a, b, c, d, e):
    """(A*D == C*B, len(A*D), len(C*B)) for polynomials in (T, Y), by way
    of E, the sparse form of D*(Y+1) (module docstring)."""
    y1 = d.ring.gens()[-1] + 1
    cb = c * b
    if d * y1 != e:
        ad = a * d
        return ad == cb, len(ad.packed), len(cb.packed)
    ae = a * e
    if ae == cb * y1:
        return True, len(cb.packed), len(cb.packed)
    return False, len(_over_y_plus_one(ae)), len(cb.packed)


def _over_y_plus_one(f):
    """The term map of f/(Y+1), Y the last variable, for f divisible by
    Y+1: per monomial in the others, from the top power of Y down,
    g_(k-1) = f_k - g_k, linear in the degree."""
    add, neg = f.ring.field._add, f.ring.field._neg
    tops = {}
    for key in f.packed:
        hi, k = divmod(key, _STRIDE)
        tops[hi] = max(k, tops.get(hi, 0))
    out = {}
    for hi, top in tops.items():
        g = 0
        for k in range(hi * _STRIDE + top, hi * _STRIDE, -1):
            g = add(f.packed.get(k, 0), neg(g))
            if g:
                out[k - 1] = g
    return out


def check_identities_budget(q):
    """CapExceededError above the budget, once base_field has validated q."""
    base_field(q)
    if q > IDENTITIES_Q_MAX:
        raise CapExceededError(f"tower identities at q = {q} exceed the "
                               f"q <= {IDENTITIES_Q_MAX} budget")


def all_identity_reports(q):
    check_identities_budget(q)
    return (
        verify_factorization(q),
        verify_theta_parametrization(q),
        verify_recursion_step(q),
        j_chain_check(q),
    )
