"""Generic-characteristic identities behind the recursion tower."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld_deuring import tower
from drinfeld_deuring.errors import CapExceededError, DomainError
from drinfeld_deuring.fields import FieldElement, base_field
from drinfeld_deuring.multipoly import Frac, MultiPoly, MultiRing
from drinfeld_deuring.tower import (
    IDENTITIES_Q_MAX,
    all_identity_reports,
    check_identities_budget,
    j_chain_check,
    verify_factorization,
    verify_recursion_step,
    verify_theta_parametrization,
)

from reference import j_chain_by_cross_product


@pytest.mark.parametrize("q", [2, 3, 4])
def test_all_reports_verified(q):
    reports = all_identity_reports(q)
    assert len(reports) == 4
    for r in reports:
        assert r.verified, r.name
        assert r.q == q


@pytest.mark.parametrize("q,deg", [(2, 6), (3, 24), (4, 60)])
def test_j_numerator_degree(q, deg):
    r = j_chain_check(q)
    assert r.verified
    # q^3 - q is recorded as the cleared numerator's term budget side-channel
    assert deg == q ** 3 - q


def test_factorization_term_counts_symmetric(q=3):
    r = verify_factorization(q)
    assert r.verified and r.lhs_terms == r.rhs_terms


def test_report_json_shape():
    r = verify_recursion_step(2)
    d = r.to_json_dict()
    assert set(d) == {"name", "q", "verified", "lhs_terms", "rhs_terms"}
    json.dumps(d)


def test_theta_parametrization_detects_breakage():
    # the check is exact: it holds for genuine q only
    r = verify_theta_parametrization(5)
    assert r.verified


def test_j_forms_agree_under_delta_substitution():
    # gamma^q (1+w)^(q+1) / w^q with w = (s^q - s)^(q-1) equals
    # (Delta + gamma)^(q+1) / Delta at Delta = gamma / w, generically in s
    for q in (2, 3):
        R = MultiRing(base_field(q), ("g", "s"))
        g, s = R.gens()
        w = (s ** q - s) ** (q - 1)
        lam_form = Frac(g ** q * (R.one + w) ** (q + 1), w ** q)
        delta = Frac(g, w)
        delta_form = (delta + g) ** (q + 1) / delta
        assert lam_form == delta_form


def test_dual_factor_annihilated_on_theta_line():
    # the non-chain factor of the factorization vanishes along the
    # theta-parametrized line (d0, d1) = (theta^(q-1)(theta+T), ...)
    for q in (2, 3):
        R = MultiRing(base_field(q), ("T", "th"))
        T, th = R.gens()
        d0 = th ** (q - 1) * (th + T)
        # second factor, cleared by theta^(q-1):
        lhs = th ** (q - 1) * (d0 ** q + T ** (q * q))
        rhs = ((th + T) ** (q + 1) - T ** (q + 1)) ** (q - 1) \
            * ((th + T) ** q + T * th ** (q - 1))
        assert lhs == rhs


_ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                "__pow__", "inverse")


def test_identities_make_no_element_arithmetic(monkeypatch):
    # MultiPoly runs on F_q indices in the field's kernel
    def forbidden(*_args, **_kwargs):
        raise AssertionError("FieldElement arithmetic")

    for name in _ELEMENT_OPS:
        monkeypatch.setattr(FieldElement, name, forbidden)
    reports = [r for q in (2, 3, 4, 9) for r in all_identity_reports(q)]
    monkeypatch.undo()
    assert all(r.verified for r in reports)


@pytest.mark.parametrize("q, counts", [
    (2, [(6, 6), (3, 3), (5, 5), (4, 4)]),
    (16, [(6, 6), (3, 3), (257, 257), (256, 256)])])
def test_report_term_counts(q, counts):
    assert [(r.lhs_terms, r.rhs_terms)
            for r in all_identity_reports(q)] == counts


def test_identities_budget():
    check_identities_budget(IDENTITIES_Q_MAX)
    for q in (131, 256, 1 << 16):
        with pytest.raises(CapExceededError, match="budget"):
            all_identity_reports(q)
    # an invalid q keeps its own error
    with pytest.raises(DomainError, match="not a prime power"):
        check_identities_budget(6)
    with pytest.raises(CapExceededError, match="65536 cap"):
        check_identities_budget((1 << 16) + 1)


# every prime power up to 32, and 64
_J_CHAIN_QS = [q for q in range(2, 33)
               if len({p for p in range(2, q + 1) if q % p == 0
                       and all(p % r for r in range(2, p))}) == 1] + [64]


@pytest.mark.parametrize("q", _J_CHAIN_QS)
def test_j_chain_matches_the_cross_product(q):
    assert j_chain_check(q) == j_chain_by_cross_product(q)


@pytest.mark.parametrize("q", [16, 27, 32])
def test_j_chain_makes_no_dense_by_dense_product(q, monkeypatch):
    # the cross product A*D pairs q^2 terms with q^2; through the factor
    # identity the shorter operand of every product has at most q + 1
    shorter = []
    mul = MultiPoly.__mul__

    def recording(f, g):
        out = mul(f, g)
        shorter.append(min(len(f.packed), len(g.packed)
                           if isinstance(g, MultiPoly) else 1))
        return out

    monkeypatch.setattr(MultiPoly, "__mul__", recording)
    monkeypatch.setattr(MultiPoly, "__rmul__", recording)
    assert j_chain_check(q).verified
    assert max(shorter) <= q + 1


def _j_chain_parts(q):
    R = MultiRing(base_field(q), ("T", "Y"))
    T, Y = R.gens()
    w = (Y + 1) ** (q - 1)
    d0, d1 = -(T ** q) * w * Y, -T * Y ** q
    return (R, (d0 + T ** q) ** (q + 1), d0 ** q,
            (d1 + T * w) ** (q + 1) * w, w ** (q + 1) * d1,
            -T * Y ** q * (Y ** (q * q) + 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_cross_check_reports_a_broken_chain_by_the_cross_product(q):
    R, a, b, c, d, e = _j_chain_parts(q)
    T, Y = R.gens()
    assert d * (Y + 1) == e
    assert tower._cross_check(a, b, c, d, e) == (
        True, len((a * d).packed), len((c * b).packed))
    # a broken A with the factor identity intact: len(A*D) by the quotient
    for bad in (a + T, a * Y, a - a):
        assert tower._cross_check(bad, b, c, d, e) == (
            False, len((bad * d).packed), len((c * b).packed))
    # a wrong E: the cross product itself
    for wrong in (-T * Y ** q * (Y ** q + 1), d):
        assert tower._cross_check(a, b, c, d, wrong) == (
            True, len((a * d).packed), len((c * b).packed))
        assert tower._cross_check(a + T, b, c, d, wrong) == (
            False, len(((a + T) * d).packed), len((c * b).packed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 9, 1 << 16]), st.data())
def test_division_by_y_plus_one_is_exact(q, data):
    F = base_field(q)
    R = MultiRing(F, ("T", "X", "Y"))
    exps = st.tuples(*([st.integers(0, 4)] * 3))
    g = MultiPoly(R, {e: F.from_index(c) for e, c in data.draw(
        st.dictionaries(exps, st.integers(0, q - 1), max_size=6)).items()
        if c})
    assert tower._over_y_plus_one(g * (R.gens()[2] + 1)) == g.packed
