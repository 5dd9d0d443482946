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
"""

from dataclasses import dataclass

from .errors import CapExceededError
from .fields import base_field
from .multipoly import Frac, MultiRing

# the j-chain cross product grows about as q^4: 1.4 s at q = 64, 25 s at 128
IDENTITIES_Q_MAX = 64


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
    d0 = Frac(-(T ** q) * (Y + 1) ** (q - 1) * Y)
    d1 = Frac(-T * Y ** q, (Y + 1) ** (q - 1))
    lhs = (d0 + T ** q) ** (q + 1) / d0 ** q
    rhs = (d1 + T) ** (q + 1) / d1
    cross_l = lhs.num * rhs.den
    cross_r = rhs.num * lhs.den
    ok = cross_l == cross_r

    # cleared numerator of j(s) - c, generic constant c
    S = MultiRing(F, ("T", "s", "c"))
    T2, s, c = S.gens()
    num = T2 ** q * (1 + (s ** q - s) ** (q - 1)) ** (q + 1) \
        - c * (s ** q - s) ** (q * q - q)
    ok = ok and num.degree("s") == q ** 3 - q

    return IdentityReport("j-chain", q, ok,
                          len(cross_l.packed), len(cross_r.packed))


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
