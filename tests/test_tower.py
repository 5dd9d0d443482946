"""Generic-characteristic identities behind the recursion tower."""

import json

import pytest

from drinfeld_deuring.errors import CapExceededError, DomainError
from drinfeld_deuring.fields import FieldElement, base_field
from drinfeld_deuring.multipoly import Frac, MultiRing
from drinfeld_deuring.tower import (
    IDENTITIES_Q_MAX,
    all_identity_reports,
    check_identities_budget,
    j_chain_check,
    verify_factorization,
    verify_recursion_step,
    verify_theta_parametrization,
)


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
    for q in (81, 128, 1 << 16):
        with pytest.raises(CapExceededError, match="budget"):
            all_identity_reports(q)
    # an invalid q keeps its own error
    with pytest.raises(DomainError, match="not a prime power"):
        check_identities_budget(6)
    with pytest.raises(CapExceededError, match="65536 cap"):
        check_identities_budget((1 << 16) + 1)
