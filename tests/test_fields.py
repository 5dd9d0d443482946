"""Finite-field towers: construction, arithmetic, Frobenius, embeddings."""

import functools
import gc
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import drinfeld_deuring
from drinfeld_deuring.errors import CapExceededError, DomainError
from drinfeld_deuring import fields, poly
from drinfeld_deuring.fields import CARD_CAP, IndexKernel, _cap_exponent, \
    _prime_divisors, base_field, embed, frobenius
from drinfeld_deuring.grammar import parse, render
from drinfeld_deuring.laurent import LaurentRing
from drinfeld_deuring.modulus import PrimeModulus, primes_of_degree, \
    t_poly_ring
from drinfeld_deuring.multipoly import MultiRing
from drinfeld_deuring.ore import OreContext
from drinfeld_deuring.poly import PolyRing
from reference import compose_in_S_by_residues, monic_polys


def test_prime_field_arithmetic():
    F = base_field(5)
    a, b = F.from_index(3), F.from_index(4)
    assert a + b == 2
    assert a * b == 2
    assert -a == 2
    assert a.inverse() == 2
    assert a ** 0 == 1
    assert F.zero != F.one


def test_prime_power_base_field_tower():
    F4 = base_field(4)
    assert F4.card == 4
    assert F4.p == 2
    assert F4.q == 4
    x = F4.gen
    # deterministic modulus: x^2 + x + 1
    assert x * x == x + F4.one
    assert render(x ** 2) == "x + 1"


def test_base_field_rejects_non_prime_powers():
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(DomainError):
            base_field(bad)


def test_base_field_refuses_q_above_the_cap_before_factoring(monkeypatch):
    from drinfeld_deuring import fields

    def unreachable(n):
        raise AssertionError("a q above the cap was trial-divided")

    monkeypatch.setattr(fields, "_prime_divisors", unreachable)
    for huge in (CARD_CAP + 1, 1 << 17, 1000000007, 10 ** 30):
        with pytest.raises(CapExceededError):
            base_field(huge)


def test_extensions_over_the_cap_are_refused_without_forming_their_size():
    # card^m is compared by exponents and printed as a power: formatting
    # 2^(10^8) would raise ValueError, past the int-to-str digit limit
    for q, m in ((2, 10 ** 8), (3, 11), (256, 3), (65521, 2)):
        with pytest.raises(CapExceededError,
                           match=rf"^extension of cardinality {q}\^{m} "
                                 rf"exceeds the {CARD_CAP} cap$"):
            base_field(q).extension(m)
    assert base_field(3).extension(10).card == 3 ** 10


def test_cap_exponent_is_the_largest_power_under_the_cap():
    for card in list(range(2, 300)) + [256, 257, CARD_CAP, CARD_CAP + 1,
                                       10 ** 30]:
        e = _cap_exponent(card)
        assert card ** e <= CARD_CAP < card ** (e + 1)


def test_deterministic_extension_moduli():
    # smallest-lex searches, leading coefficients varying slowest
    F3 = base_field(3)
    F9 = F3.extension(2)
    assert F3.extension(2) is F9
    z = F9.gen
    assert z * z == -F9.one  # z^2 + 1
    F2 = base_field(2)
    F8 = F2.extension(3)
    w = F8.gen
    assert w ** 3 == w + F8.one  # w^3 + w + 1
    # defining moduli as ascending coefficient indices
    base_moduli = {4: [1, 1, 1], 8: [1, 1, 0, 1], 9: [1, 0, 1],
                   16: [1, 1, 0, 0, 1], 25: [2, 0, 1], 27: [1, 2, 0, 1]}
    for q, mod in base_moduli.items():
        assert [c.index for c in base_field(q).modulus_over_base] == mod
    ext2_moduli = {2: [1, 1, 1], 3: [1, 0, 1], 4: [2, 1, 1]}
    for q, mod in ext2_moduli.items():
        E = base_field(q).extension(2)
        assert [c.index for c in E.modulus_over_base] == mod
    primes = {
        (2, 1): ["T + 1"],
        (2, 2): ["T^2 + T + 1"],
        (2, 3): ["T^3 + T + 1", "T^3 + T^2 + 1"],
        (3, 1): ["T + 1", "T + 2"],
        (3, 2): ["T^2 + 1", "T^2 + T + 2", "T^2 + 2*T + 2"],
        (3, 3): ["T^3 + 2*T + 1", "T^3 + 2*T + 2", "T^3 + T^2 + 2",
                 "T^3 + T^2 + T + 2", "T^3 + T^2 + 2*T + 1",
                 "T^3 + 2*T^2 + 1", "T^3 + 2*T^2 + T + 1",
                 "T^3 + 2*T^2 + 2*T + 2"],
        (4, 1): ["T + 1", "T + x", "T + x + 1"],
        (4, 2): ["T^2 + T + x", "T^2 + T + x + 1", "T^2 + x*T + 1",
                 "T^2 + x*T + x", "T^2 + (x + 1)*T + 1",
                 "T^2 + (x + 1)*T + x + 1"],
        (4, 3): ["T^3 + x", "T^3 + x + 1", "T^3 + T + 1", "T^3 + x*T + 1",
                 "T^3 + (x + 1)*T + 1", "T^3 + T^2 + 1", "T^3 + T^2 + T + x",
                 "T^3 + T^2 + T + x + 1", "T^3 + T^2 + x*T + x + 1",
                 "T^3 + T^2 + (x + 1)*T + x", "T^3 + x*T^2 + 1",
                 "T^3 + x*T^2 + T + x + 1", "T^3 + x*T^2 + x*T + x",
                 "T^3 + x*T^2 + (x + 1)*T + x",
                 "T^3 + x*T^2 + (x + 1)*T + x + 1", "T^3 + (x + 1)*T^2 + 1",
                 "T^3 + (x + 1)*T^2 + T + x", "T^3 + (x + 1)*T^2 + x*T + x",
                 "T^3 + (x + 1)*T^2 + x*T + x + 1",
                 "T^3 + (x + 1)*T^2 + (x + 1)*T + x + 1"],
    }
    for (q, d), expected in primes.items():
        got = [render(p.p_poly) for p in primes_of_degree(base_field(q), d)]
        assert got == expected


def _prime_powers(top):
    return [q for q in range(2, top + 1) if len(_prime_divisors(q)) == 1]


def test_enumerated_primes_equal_constructed_ones(monkeypatch):
    # the Frobenius-orbit walk against the candidate path it replaced: every
    # monic of degree d that is irreducible and not T, in monic_polys order,
    # built by the constructor; the designated root against a kappa built
    # afresh (another gen_name), which splits the modulus to find it, up to
    # q = 2^8 at d = 1, where the orbit is one element and the root is the
    # image of -p(0)
    for q in _prime_powers(2 ** 10):
        F = base_field(q)
        ring = t_poly_ring(F)
        d = 1
        while q ** d <= 2 ** 10:
            # fresh kappas, dropped again after each degree
            monkeypatch.setattr(F, "_ext_cache", {})
            got = list(primes_of_degree(F, d))
            want = [f for f in monic_polys(ring, d)
                    if f != ring.gen and poly.is_irreducible(f)]
            assert [p.p_poly for p in got] == want
            for p in got:
                built = PrimeModulus(p.p_poly)
                assert vars(p) == vars(built)
                assert p.kappa is built.kappa
                if d == 1 and q > 2 ** 8:
                    continue
                ref = F.extension_with_modulus(p.p_poly.coeffs, gen_name="r")
                assert ref.gen.index == p.alpha.index
                assert ref._key[2] == p.kappa._key[2]
            monkeypatch.undo()
            d += 1


def test_primes_of_degree_neither_tests_nor_splits(monkeypatch):
    def unreachable(*_args):
        raise AssertionError("primes_of_degree tested or split a modulus")

    cases = [(2, 1), (2, 7), (3, 4), (4, 3), (8, 2), (9, 2), (16, 1)]
    bases = {q: base_field(q) for q, _ in cases}
    # each kappa's tables and its embedding of F_q first: their own modulus
    # search and root of F_q's modulus run once per absolute field, in
    # whichever test needs them first, and are not what this test forbids
    for q, d in cases:
        fields._abs_tables(bases[q].p, bases[q].degree * d).embedding(
            bases[q].degree)
    monkeypatch.setattr(fields, "_least_irreducible", unreachable)
    monkeypatch.setattr(IndexKernel, "is_irreducible", unreachable)
    monkeypatch.setattr(IndexKernel, "distinct_roots", unreachable)
    monkeypatch.setattr(IndexKernel, "one_root", unreachable)
    for q, d in cases:
        monkeypatch.setattr(bases[q], "_ext_cache", {})
        primes = list(primes_of_degree(bases[q], d))
        assert primes


def _forbid_enumeration(monkeypatch):
    from drinfeld_deuring import fields

    def unreachable(*_args):
        raise AssertionError("primes_of_degree enumerated past a check")

    monkeypatch.setattr(fields, "_least_irreducible", unreachable)
    monkeypatch.setattr(IndexKernel, "is_irreducible", unreachable)
    monkeypatch.setattr(fields, "_abs_tables", unreachable)
    monkeypatch.setattr(IndexKernel, "frobenius_orbits", unreachable)


def test_primes_of_an_out_of_cap_degree_raise_before_enumerating(monkeypatch):
    F2 = base_field(2)
    _forbid_enumeration(monkeypatch)
    with pytest.raises(CapExceededError, match="65536"):
        next(primes_of_degree(F2, 17))


def test_primes_live_over_a_designated_base_field(monkeypatch):
    F4 = base_field(2).extension(2)
    _forbid_enumeration(monkeypatch)
    with pytest.raises(DomainError, match="designated"):
        next(primes_of_degree(F4, 1))


def test_structural_field_equality():
    assert base_field(4) == base_field(2).extension(2, gen_name="x")
    assert base_field(4) == base_field(2).extension(2, gen_name="y")
    assert base_field(4) != base_field(9)
    # the Drinfeld q tag is metadata, not structure
    assert base_field(4).q == 4
    assert base_field(2).extension(2).q == 2


def test_frobenius_designated_base():
    F4 = base_field(2).extension(2)
    x = F4.gen
    assert frobenius(x, 1) == x + F4.one
    assert frobenius(x, 2) == x
    # over the q=4 base field the same element is Frobenius-fixed
    y = base_field(4).gen
    assert frobenius(y, 1) == y


def test_embed_through_tower():
    F2 = base_field(2)
    F4 = F2.extension(2)
    F16 = F4.extension(2)
    one = embed(F2.one, F16)
    assert one == F16.one
    a = embed(F4.gen, F16)
    assert a ** 2 + a == F16.one
    with pytest.raises(DomainError):
        embed(F16.gen, F4)


def test_elements_enumeration_and_coords():
    F4 = base_field(4)
    els = list(F4.elements())
    assert len(els) == 4
    assert len(set(els)) == 4
    F16 = F4.extension(2)
    for e in F16.elements():
        c0, c1 = F16.coords_over_base(e)
        assert F16.embed_from_base(c0) + F16.embed_from_base(c1) * F16.gen == e


# --- coordinates over the base, against the matrix path --------------------

def _gauss_jordan_coords(F):
    """The coordinate map of F over its base as it was before the table: the
    matrix of the basis (z^i * gen^j) over F_p, inverted by Gauss-Jordan.
    Returns the map from an index of F to its coordinates, as base indices."""
    p, D, k = F.p, F.degree, F.base.degree
    cols = []
    gp = 1
    for j in range(F.ext_degree):
        for i in range(k):
            # the image of z^i, whose index in the base is p^i
            cols.append(fields._digits(F._mul(gp, F._base_emb[p ** i]), p, D))
        gp = F._mul(gp, F.gen.index)
    mat = [[cols[c][r] for c in range(D)] for r in range(D)]
    inv = [[1 if r == c else 0 for c in range(D)] for r in range(D)]
    for col in range(D):
        piv = next(r for r in range(col, D) if mat[r][col] % p != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        s = pow(mat[col][col], p - 2, p)
        mat[col] = [v * s % p for v in mat[col]]
        inv[col] = [v * s % p for v in inv[col]]
        for r in range(D):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[col])]
                inv[r] = [(a - f * b) % p for a, b in zip(inv[r], inv[col])]

    def coords(i):
        vec = fields._digits(i, p, D)
        sol = [sum(r * v for r, v in zip(row, vec)) % p for row in inv]
        return tuple(sum(sol[j * k + t] * p ** t for t in range(k))
                     for j in range(F.ext_degree))

    return coords


def _coords_fields(q, limit=2 ** 12):
    """F_q when it has a base, its extensions of degree m >= 1 up to `limit`
    elements, and kappa and kappa_2 at the first prime of each degree d with
    q^(2d) <= limit."""
    K = base_field(q)
    out = [K] if K.base is not None else []
    m = 1
    while q ** m <= limit:
        out.append(K.extension(m))
        m += 1
    d = 1
    while q ** (2 * d) <= limit:
        kappa = next(primes_of_degree(K, d)).kappa
        out += [kappa, kappa.extension(2)]
        d += 1
    return out


def _coords(F, i):
    return tuple(c.index for c in F.coords_over_base(F.from_index(i)))


@pytest.mark.parametrize("q", _prime_powers(64))
def test_coordinate_table_matches_the_matrix_path(q):
    for F in _coords_fields(q):
        ref = _gauss_jordan_coords(F)
        for i in range(F.card):
            assert _coords(F, i) == ref(i), (F, i)


@functools.lru_cache(maxsize=None)
def _large_coords_field(name):
    if name == "kappa2":
        # the (2,8) prime T^8+T^4+T^3+T^2+1
        f = t_poly_ring(base_field(2)).poly([1, 0, 1, 1, 1, 0, 0, 0, 1])
        return PrimeModulus(f).kappa.extension(2)
    q, m = name
    return base_field(q).extension(m)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 16), (3, 10), (4, 8), (256, 2), "kappa2"]),
       st.data())
def test_coordinate_table_on_large_fields(name, data):
    F = _large_coords_field(name)
    i = data.draw(st.integers(0, F.card - 1))
    assert _coords(F, i) == _gauss_jordan_coords(F)(i)
    x = F.from_index(i)
    total = F.zero
    for j, c in enumerate(F.coords_over_base(x)):
        total += F.embed_from_base(c) * F.gen ** j
    assert total == x


def test_coordinates_of_a_prime_field_are_refused():
    with pytest.raises(DomainError):
        base_field(5).coords_over_base(1)


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_frobenius_additivity_exhaustive(q, m):
    """(x + y)^q = x^q + y^q for every pair, cardinality <= 256."""
    K = base_field(q)
    E = K.extension(m) if m > 1 else K
    assert E.card <= 256
    els = list(E.elements())
    for x in els:
        for y in els:
            assert (x + y) ** q == x ** q + y ** q


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_ring_axioms_f27(i, j, k):
    F = base_field(3).extension(3)
    x, y, z = F.from_index(i), F.from_index(j), F.from_index(k)
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48))
def test_inverse_and_power_consistency(i):
    F = base_field(7).extension(2)
    x = F.from_index(i)
    assert x * x.inverse() == F.one
    assert x ** (F.card - 1) == F.one
    assert x ** -1 == x.inverse()


def _hash_contract_values(q, ints, indices):
    """Ints, elements of F_q and of F_q^2, constants of F_q[T], F_q[T][s],
    F_q[T, 1/T] and of the twisted rings over F_q and F_q[T], built from the
    drawn ints and indices, and T both as a polynomial and as a Laurent value,
    and tau.  Then structures, each built twice: F_4 as the base field and as
    F_2's quadratic extension, which differ in q, the rings over each, and a
    prime both parsed and enumerated."""
    F = base_field(q)
    E = F.extension(2)
    A = t_poly_ring(F)
    S = PolyRing(A, "s")
    L = LaurentRing(A)
    C = OreContext(F, q)
    CA = OreContext(A, q)
    values = list(ints)
    for i in indices:
        x = F.from_index(i % F.card)
        values += [x, E.from_index(i % E.card), A.const(x), S.const(A.const(x)),
                   L.coerce(x), C.op((x,)), CA.op((A.const(x),))]
    values += [A.zero, S.zero, L.zero, C.zero, CA.zero, A.gen, L.coerce(A.gen),
               C.tau, CA.op((A.gen,))]
    for K in (base_field(4), base_field(2).extension(2, gen_name="x")):
        KT = PolyRing(K, "T")
        values += [K, KT, LaurentRing(KT), OreContext(K, 4),
                   MultiRing(K, ("u", "v"))]
    F3 = base_field(3)
    parsed = PrimeModulus(parse("T^2+T+2", t_poly_ring(F3)))
    values += [parsed, next(p for p in primes_of_degree(F3, 2)
                            if p.p_poly == parsed.p_poly)]
    return values


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9]),
       st.lists(st.integers(-30, 30), max_size=4),
       st.lists(st.integers(0, 80), min_size=1, max_size=4))
def test_equal_values_hash_alike(q, ints, indices):
    values = _hash_contract_values(q, ints, indices)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    structures = [v for v in values if isinstance(v, fields._Keyed)]
    for a in structures:
        # equal to itself and its twin, and unequal to every other kind
        assert sum(a == b for b in structures) == 2, a
        assert all(a != b for b in structures if type(b) is not type(a))


def _fresh_stdout(code):
    """The stdout of `code` in a fresh interpreter, where no cached field,
    table or modulus hides a search; a hang fails after 60 s."""
    src = os.path.dirname(os.path.dirname(drinfeld_deuring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


# the package's public names, twelve of them submodules; `cli` is not among
# them, since only the console script imports it
_PUBLIC_NAMES = [
    "AmbientTooSmallError", "CapExceededError", "ComponentReport",
    "ConsistencyError", "DeltaModule", "DeuringResult", "DomainError",
    "FieldElement", "FiniteField", "Frac", "IdentityReport", "IsogenyGraph",
    "LambdaModule", "LaurentRing", "LaurentT", "MultiPoly", "MultiRing",
    "OreContext", "OrePoly", "Poly", "PolyRing", "PrimeModulus",
    "RecurrenceBreakdownError", "U_sequence", "all_identity_reports",
    "base_field", "build_supersingular_graph", "check_derivative_recursion",
    "check_key_identity", "check_simple_roots", "check_u_zero",
    "delta_from_lambda", "deuring", "deuring_H", "deuring_g_sequence",
    "deuring_h_direct", "deuring_h_grec", "deuring_h_universal", "drinfeld",
    "drinfeld_image", "embed", "errors", "fields", "frobenius", "grammar",
    "is_irreducible", "is_supersingular", "isogeny_graph", "j_chain_check",
    "j_invariant", "laurent", "modulus", "multipoly", "neighbors", "ore",
    "ore_apply", "parse", "poly", "poly_gcd", "primes_of_degree",
    "primes_up_to_degree", "qpow", "reduce_mod_prime", "render",
    "roots_in_extension", "sequence_json", "splitting_degree", "t_poly_ring",
    "tower", "u_sequence", "u_zero_value", "universal", "verify_component",
    "verify_factorization", "verify_recursion_step",
    "verify_theta_parametrization"]


def test_public_surface_is_pinned():
    # in a fresh interpreter, where no test's import of a submodule adds
    # its name to the package
    out = _fresh_stdout(
        "import drinfeld_deuring\n"
        "print(*sorted(n for n in dir(drinfeld_deuring) "
        "if not n.startswith('_')))\n")
    assert out.split() == _PUBLIC_NAMES


# wraps the kernel's irreducibility test to count its calls
_COUNT_TESTS = (
    "from drinfeld_deuring.fields import IndexKernel\n"
    "calls = []\n"
    "test = IndexKernel.is_irreducible\n"
    "IndexKernel.is_irreducible = "
    "lambda self, f: calls.append(f) or test(self, f)\n")


def test_base_field_extends_the_shared_prime_field():
    out = _fresh_stdout(
        _COUNT_TESTS +
        "from drinfeld_deuring import fields\n"
        "F = fields.base_field(16)\n"
        "print(len(calls), F.base is fields.base_field(2))\n")
    # y^4, y^4 + 1, y^4 + y and y^4 + y + 1: one search for the modulus
    assert out.split() == ["4", "True"]


def test_extension_search_builds_no_polynomial():
    # kappa = F_64 over F_4 over F_2: the search for kappa_2 runs on index
    # lists in kappa's kernel
    out = _fresh_stdout(
        "from drinfeld_deuring import base_field, poly, primes_of_degree\n"
        "kappa = next(primes_of_degree(base_field(4), 3)).kappa\n"
        "def refuse(*_args):\n"
        "    raise AssertionError('a Poly was built')\n"
        "poly._Dense.__init__ = refuse\n"
        "print(kappa.extension(2).card)\n")
    assert out.split() == ["4096"]


def test_primes_of_one_degree_share_one_kappa_2_search():
    # two tower instances of F_64 share its kernel, so the second kappa_2
    # reuses the first one's modulus
    out = _fresh_stdout(
        _COUNT_TESTS +
        "from drinfeld_deuring import base_field, primes_of_degree\n"
        "first, second = list(primes_of_degree(base_field(2), 6))[:2]\n"
        "E = first.kappa.extension(2)\n"
        "searched = len(calls)\n"
        "F = second.kappa.extension(2)\n"
        "print(searched, len(calls) - searched, [c.index for c in "
        "E.modulus_over_base] == [c.index for c in F.modulus_over_base])\n")
    searched, again, same = out.split()
    assert int(searched) > 0
    assert (again, same) == ("0", "True")


def test_kernel_powmod_refuses_a_negative_exponent():
    # square-and-multiply never ends on e < 0, since -1 >> 1 == -1
    out = _fresh_stdout(
        "from drinfeld_deuring import fields\n"
        "from drinfeld_deuring.errors import DomainError\n"
        "try:\n"
        "    fields._abs_tables(2, 2).powmod([0, 1], -1, [1, 1, 1])\n"
        "except DomainError:\n"
        "    print('DomainError')\n")
    assert out.split() == ["DomainError"]


# The table build as it was with digit-by-digit base-p arithmetic on element
# indices; the fast build must reproduce its generator and tables exactly.
def _reference_tables(p, degree, modulus_digits):
    def digit_add(a, b):
        out, shift = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * shift
            shift *= p
        return out

    def digit_scale(a, c):
        out, shift = 0, 1
        while a:
            a, da = divmod(a, p)
            out += ((da * c) % p) * shift
            shift *= p
        return out

    n = p ** degree
    red = sum(((-c) % p) * p ** i for i, c in enumerate(modulus_digits[:degree]))

    def mul_raw(a, b):
        acc, cur = 0, a
        while b:
            b, db = divmod(b, p)
            if db:
                acc = digit_add(acc, digit_scale(cur, db))
            cur *= p
            if cur >= n:
                t = cur // n
                cur = digit_add(cur - t * n, digit_scale(red, t))
        return acc

    def pow_raw(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul_raw(r, a)
            a = mul_raw(a, a)
            e >>= 1
        return r

    m1 = n - 1
    # in a proper extension no element of F_p is primitive
    gen = next(c for c in range(p if degree > 1 else 1, n)
               if all(pow_raw(c, m1 // r) != 1 for r in _prime_divisors(m1)))
    exp, log, cur = [0] * m1, [0] * n, 1
    for i in range(m1):
        exp[i], log[cur] = cur, i
        cur = mul_raw(cur, gen)
    zech = None
    if p != 2:
        zech = []
        for e in exp:
            d0 = e % p
            e1 = e - d0 + (d0 + 1) % p
            zech.append(log[e1] if e1 else -1)
        zech = tuple(zech)
    # the kernel's tables are tuples
    return gen, tuple(exp), tuple(log), zech


def _table_sizes(limit):
    # every absolute field of at most `limit` elements, of degree >= 2 or an
    # odd prime field, whose sums run on the Zech table too
    primes = [p for p in range(2, 65) if _prime_divisors(p) == [p]]
    return [(p, k) for p in primes for k in range(1 if p > 2 else 2, 13)
            if p ** k <= limit]


# odd fields above 4,096 elements, up to the largest odd field of each kind
# of split of the index (`fields._chunk`): even and odd degree, prime field
_LARGE_ODD_TABLES = [(3, 8), (3, 9), (3, 10), (5, 6), (7, 5), (37, 3),
                     (251, 2), (65521, 1)]


@pytest.mark.parametrize("p, degree", _table_sizes(4096) + _LARGE_ODD_TABLES)
def test_tables_match_digit_by_digit_build(p, degree):
    t = fields._abs_tables(p, degree)
    m1 = p ** degree - 1
    assert (t.generator, t.exp[:m1], t.log, t.zech) == \
        _reference_tables(p, degree, t.modulus_digits)


def test_kernel_tables_are_tuples():
    # a collection stops tracking a tuple of ints, never a list
    for p, degree in ((2, 1), (2, 4), (3, 1), (3, 4), (5, 2), (7, 3)):
        t = fields._abs_tables(p, degree)
        tables = [t.exp, t.log, t.sums()] + list(t.sums())
        if p != 2:
            tables.append(t.zech)
        assert all(type(x) is tuple for x in tables), (p, degree)
    assert fields._abs_tables(2, 3).zech is None


@pytest.mark.parametrize("p, degree", [(3, 8), (2, 12)])
def test_large_kernel_tables_leave_the_collector_when_built(p, degree):
    # the first collection to see a large table pays a pass over it: the
    # constructor makes that pass, not a later call that sets off the next
    # young collection
    assert gc.isenabled()
    kind = fields._Char2Kernel if p == 2 else fields._ZechKernel
    K = kind(p, degree, fields._abs_tables(p, degree).modulus_digits)
    tables = [K.exp, K.log] + ([K.zech] if p != 2 else [])
    assert not any(gc.is_tracked(t) for t in tables)


def test_digit_sum_tables_fit_in_the_field():
    # every odd (p, k) under the cap, by the split's formula: no table is
    # built, which for a chunk of ceil(k/2) digits would take p^(k+1)
    # entries, p^2 ~ 4.3e9 at F_65521
    primes = [p for p in range(3, CARD_CAP + 1, 2) if _prime_divisors(p) == [p]]
    for p in primes:
        for k in range(1, _cap_exponent(p) + 1):
            P = fields._chunk(p, k)
            # (t*P + r)*P + l with t < p^(k % 2)
            assert P * P * p ** (k % 2) == p ** k, (p, k)
    # the table itself, digit by digit, on small chunks
    for p, P in ((3, 1), (3, 27), (5, 25), (7, 7), (251, 251)):
        s = fields._digit_sums(p, P)
        assert len(s) == P * P
        for a in random.Random(p).sample(range(P), min(P, 12)):
            for b in range(P):
                da, db = fields._digits(a, p, 3), fields._digits(b, p, 3)
                want = sum((x + y) % p * p ** i
                           for i, (x, y) in enumerate(zip(da, db)))
                assert s[a * P + b] == want, (p, a, b)


def test_each_absolute_field_has_one_kernel():
    k4 = fields._abs_tables(2, 2)
    assert base_field(4)._kernel is base_field(2).extension(2)._kernel is k4
    kappa = PrimeModulus(t_poly_ring(base_field(2)).poly([1, 1, 1])).kappa
    assert kappa._kernel is k4
    # two kinds: XOR in characteristic 2, Zech logarithms otherwise, prime
    # fields included
    for p in (2, 3, 5, 251):
        for k in range(1, min(_cap_exponent(p), 3) + 1):
            kind = "_Char2Kernel" if p == 2 else "_ZechKernel"
            assert type(fields._abs_tables(p, k)).__name__ == kind, (p, k)


def _reference_embedding(kernel, k):
    """emb[c] for every index c of F_(p^k), digit by digit: the sum of
    c_i * root^i, with root the least root of F_(p^k)'s table modulus, found
    by evaluating it at every element."""
    p = kernel.p
    mod = fields._abs_tables(p, k).modulus_digits

    def value(x):
        acc = 0
        for c in reversed(mod):
            acc = kernel._add(kernel._mul(acc, x), c)
        return acc

    root = next(x for x in range(kernel.card) if not value(x))
    emb = []
    for c in range(p ** k):
        acc = 0
        for i, digit in enumerate(fields._digits(c, p, k)):
            acc = kernel._add(acc, kernel._mul(digit, kernel._pow(root, i)))
        emb.append(acc)
    return emb


@pytest.mark.parametrize("p, degree", _table_sizes(4096))
def test_embeddings_match_the_digit_by_digit_sums(p, degree):
    kernel = fields._abs_tables(p, degree)
    for k in range(1, degree + 1):
        if degree % k == 0:
            assert kernel.embedding(k) == _reference_embedding(kernel, k), k


# --- prime fields against plain ints mod p ----------------------------------

def _scalar_sample(p):
    if p <= 13:
        return range(p)
    return sorted({0, 1, 2, p - 2, p - 1} |
                  set(random.Random(p).sample(range(p), 60)))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 251, 65521])
def test_prime_field_scalars_are_ints_mod_p(p):
    k = base_field(p)._kernel
    sample = _scalar_sample(p)
    for i in sample:
        assert k._neg(i) == -i % p
        for j in sample:
            assert k._add(i, j) == (i + j) % p, (i, j)
            assert k._mul(i, j) == i * j % p, (i, j)
        for e in list(range(min(2 * p + 2, 40))) + [p - 1, p, 2 * p - 1,
                                                     p ** 2 + 3, 12345]:
            assert k._pow(i, e) == pow(i, e, p), (i, e)
        if i:
            assert k._inv(i) == pow(i, -1, p)
            assert k._pow(i, -3) == pow(i, -3, p)
    with pytest.raises(ZeroDivisionError):
        k._inv(0)


# ascending int lists mod p with no trailing zeros, schoolbook
def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _ref_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x + y) % p for x, y in zip(a, b)])


def _ref_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _ref_divmod(a, b, p):
    inv = pow(b[-1], -1, p)
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % p
    return _trim(quot), _trim(rem[:len(b) - 1])


def _ref_gcd(a, b, p):
    while b:
        a, b = b, _ref_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


@st.composite
def _prime_polys(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 251, 65521]))
    coeff = st.one_of(st.just(0), st.integers(1, p - 1))
    a, b, dst = (draw(st.lists(coeff, max_size=n)) for n in (12, 8, 24))
    return p, _trim(a), _trim(b), dst


@settings(max_examples=120, deadline=None)
@given(_prime_polys(), st.data())
def test_prime_field_polynomials_are_ints_mod_p(case, data):
    p, a, b, dst = case
    k = base_field(p)._kernel
    assert k.add_polys(a, b) == _ref_add(a, b, p)
    assert k.mul_polys(a, b) == _ref_mul(a, b, p)
    if a or b:
        assert k.gcd(a, b) == _ref_gcd(a, b, p)
    if b:
        assert k.divmod_polys(a, b) == _ref_divmod(a, b, p)
    if a:
        # dst[off + i] += c * a[i], whatever room dst leaves after the row
        c = data.draw(st.integers(1, p - 1))
        off = data.draw(st.integers(0, 4))
        dst = dst + [0] * max(off + len(a) - len(dst), 0)
        want = list(dst)
        for i, x in enumerate(a):
            want[off + i] = (want[off + i] + c * x) % p
        k._addmul(dst, off, c, k._row(a))
        assert dst == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 4), (3, 1), (3, 4), (5, 2), (7, 3), (3, 8),
                        (65521, 1)]), st.booleans(), st.data())
def test_polynomial_sums_match_the_scalar_sums(pk, cancel, data):
    # the kind's `_add_terms` against `_add` mapped over the pairs, with the
    # cancelled top terms trimmed
    k = fields._abs_tables(*pk)
    x = st.one_of(st.just(0), st.integers(1, k.card - 1))
    a = _trim(data.draw(st.lists(x, max_size=10)))
    b = _trim(data.draw(st.lists(x, max_size=10)))
    if cancel:
        # b cancels the top of a, from a drawn term up
        cut = data.draw(st.integers(0, len(a)))
        b = _trim((b + [0] * cut)[:cut] + [k._neg(y) for y in a[cut:]])
    if data.draw(st.booleans()):
        a, b = b, a
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    want = _trim(list(map(k._add, longer, shorter)) + longer[len(shorter):])
    assert k.add_polys(a, b) == want
    assert k.add_polys(b, a) == want
    if cancel:
        assert len(want) <= max(len(a), len(b))
    neg_b = [k._neg(y) for y in b]
    assert k.sub_polys(a, b) == k.add_polys(a, neg_b)


@st.composite
def _copies(draw):
    """A kernel of at most 256 elements and (u, c, shift) copies for its
    `sum_copies`: dense and sparse maps, keys that repeat across copies,
    scales 1, -1 and others, negative shifts, and a copy followed by its
    negation or by itself, which cancel or double."""
    k = fields._abs_tables(*draw(st.sampled_from(
        [(2, 1), (2, 3), (2, 8), (3, 1), (3, 2), (3, 5), (5, 3), (7, 2),
         (13, 1), (251, 1)])))
    x = st.integers(1, k.card - 1)
    dense = st.lists(x, max_size=16).map(lambda xs: dict(enumerate(xs)))
    sparse = st.dictionaries(st.integers(-60, 60), x, max_size=6)
    copies = draw(st.lists(st.tuples(
        st.one_of(dense, sparse), st.one_of(st.just(1), st.just(k._neg(1)), x),
        st.integers(-20, 20)), max_size=8))
    if copies:
        u, c, shift = draw(st.sampled_from(copies))
        copies.append((u, draw(st.sampled_from([c, k._neg(c)])), shift))
    return k, copies


@settings(max_examples=150, deadline=None)
@given(_copies())
def test_sum_copies_adds_alike_through_the_table_and_add(case):
    # up to _SUMS_CARD_MAX elements `sum_copies` reads the card x card table
    # of sums; with the bound lowered, the same fields add by `_add`
    k, copies = case
    by_table = k.sum_copies(copies)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_SUMS_CARD_MAX", 1)
        by_add = k.sum_copies(copies)
    assert by_table == by_add
    assert all(by_table.values())


# --- evaluate, dilate and powers against element arithmetic ----------------

_EVAL_FIELDS = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
                + [(p, 1) for p in (5, 7, 13, 251)])


@st.composite
def _eval_cases(draw):
    """(E, k, x): E = F_(p^n) and a point x of it, 0 included.  For k None
    the coefficients are E's own; otherwise E is built over F_(p^k), whose
    elements `evaluate` reads through `embedding(k)` and E through
    `embed_from_base`."""
    p, n = draw(st.sampled_from(_EVAL_FIELDS))
    k = draw(st.sampled_from([None] + [k for k in range(1, n + 1)
                                       if n % k == 0]))
    E = base_field(p ** n) if k is None else \
        base_field(p ** k).extension(n // k)
    return E, k, draw(st.one_of(st.just(0), st.integers(1, E.card - 1)))


@settings(max_examples=200, deadline=None)
@given(_eval_cases(), st.data())
def test_kernel_evaluate_matches_element_arithmetic(case, data):
    E, k, x = case
    B, lift = (E, E.coerce) if k is None else (E.base, E.embed_from_base)
    term = st.tuples(st.integers(-9, 30), st.integers(1, B.card - 1))
    # few keys, so that most draws repeat one
    rows = data.draw(st.lists(st.tuples(st.integers(0, 2),
                                        st.lists(term, max_size=5)),
                              max_size=5))
    K = E._kernel
    if not x:
        with pytest.raises(DomainError):
            K.evaluate(rows, x, k)
        return
    X = E.from_index(x)
    want = {}
    for r, terms in rows:
        want[r] = want.get(r, E.zero) + sum(
            (lift(B.from_index(c)) * X ** e for e, c in terms), E.zero)
    assert K.evaluate(rows, x, k) == {r: v.index for r, v in want.items()}
    # the terms of nonnegative degree, all rows as one polynomial, at x
    terms = [(e, c) for _, ts in rows for e, c in ts if e >= 0]
    coeffs = [E.zero] * (max((e for e, _ in terms), default=-1) + 1)
    for e, c in terms:
        coeffs[e] += lift(B.from_index(c))
    value = PolyRing(E, "s").poly(coeffs)(X)
    assert K.evaluate([(0, terms)], x, k) == {0: value.index}


@settings(max_examples=200, deadline=None)
@given(_eval_cases(), st.data())
def test_kernel_dilate_matches_element_arithmetic(case, data):
    E, _, x = case
    K = E._kernel
    index = st.one_of(st.just(0), st.integers(1, E.card - 1))
    a = _trim(data.draw(st.lists(index, max_size=12)))
    if not x:
        with pytest.raises(DomainError):
            K.dilate(a, x)
        return
    X = E.from_index(x)
    got = K.dilate(a, x)
    assert got == [(E.from_index(c) * X ** j).index for j, c in enumerate(a)]
    # a(x s) at y, by Poly.__call__
    S, y = PolyRing(E, "s"), E.from_index(data.draw(index))
    assert S.poly(E._elements(got))(y) == S.poly(E._elements(a))(X * y)


@settings(max_examples=200, deadline=None)
@given(_eval_cases(), st.lists(st.integers(-(2 ** 40), 2 ** 40), max_size=12))
def test_kernel_powers_match_element_arithmetic(case, es):
    E, _, x = case
    K = E._kernel
    if not x:
        with pytest.raises(DomainError):
            K.powers(x, es)
        return
    X = E.from_index(x)
    assert K.powers(x, es) == [(X ** e).index for e in es]


@pytest.mark.parametrize("p, k", [(2, 1), (2, 7), (2, 8), (2, 9), (2, 10),
                                  (3, 1), (3, 5), (3, 6), (5, 3), (7, 2),
                                  (13, 1), (17, 2)])
def test_kernel_root_matches_brute_force(p, k):
    # every index, at every n | m1, against the n-th powers of all of F_(p^k):
    # F_(2^8) and F_(2^9) sit on both sides of the 8/16-bit slot boundary
    K = fields._abs_tables(p, k)
    for n in (n for n in range(1, K.m1 + 1) if K.m1 % n == 0):
        roots = {}
        for x in range(K.card):
            roots.setdefault(K._pow(x, n), set()).add(x)
        for i in range(K.card):
            r = K._root(i, n)
            if i in roots:
                assert r in roots[i], (p, k, n, i)
            else:
                assert r is None, (p, k, n, i)


# the longest coefficient list drawn per q: the list form, the reference,
# takes time about q^2 n log_q(n) on dense input of length n
_COMPOSE_LENGTHS = {2: 240, 4: 240, 8: 240, 16: 96, 32: 40, 64: 16, 128: 12,
                    256: 8}


@st.composite
def _compose_cases(draw):
    k = draw(st.integers(1, 16))
    q = draw(st.sampled_from(sorted(_COMPOSE_LENGTHS)))
    n = draw(st.integers(0, _COMPOSE_LENGTHS[q]))
    # zeros are common, so that interior and trailing zeros are too
    index = st.one_of(st.just(0), st.integers(0, 2 ** k - 1))
    return k, q, draw(st.lists(index, min_size=n, max_size=n))


def _dense(k, n):
    return [(7 * i + 3) % 2 ** k or 1 for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(_compose_cases())
# empty, one coefficient, trailing zeros; lengths q^e and q^e + 1; and the
# largest indices of F_(2^8) and F_(2^9), on both sides of the 8/16-bit slot
# boundary
@example((8, 2, []))
@example((8, 4, [5]))
@example((8, 4, [0]))
@example((9, 4, [3, 0, 7, 0, 0]))
@example((8, 2, _dense(8, 32)))
@example((8, 2, _dense(8, 33)))
@example((9, 4, _dense(9, 16)))
@example((9, 4, _dense(9, 17)))
@example((12, 4, _dense(12, 64)))
@example((12, 4, _dense(12, 65)))
@example((9, 8, _dense(9, 64)))
@example((9, 8, _dense(9, 65)))
@example((16, 16, _dense(16, 16)))
@example((16, 16, _dense(16, 17)))
@example((8, 4, [255] * 17))
@example((9, 4, [511] * 17))
@example((8, 256, [255, 1]))
@example((9, 256, [1, 511]))
@example((16, 256, [65535, 65535]))
def test_packed_compose_in_S_matches_the_list_form(case):
    k, q, coeffs = case
    K = base_field(2 ** k)._kernel
    assert type(K).compose_in_S is not IndexKernel.compose_in_S
    assert K.compose_in_S(coeffs, q) == IndexKernel.compose_in_S(K, coeffs, q)


@st.composite
def _vector_cases(draw):
    """A kernel of F_(2^k), k <= 16, with k = 8 and k = 9 on either side of
    the 8/16-bit slot boundary drawn often, two index lists, a scalar and a
    slot offset.  The lists reach past 256 slots, so a scale grows the
    kernel's row of ones after shorter ones, and reads a longer row after
    longer ones."""
    k = draw(st.one_of(st.sampled_from([8, 9]), st.integers(1, 16)))
    index = st.one_of(st.just(0), st.integers(1, 2 ** k - 1),
                      st.just(2 ** k - 1))
    a, b = (_trim(draw(st.lists(index, max_size=n))) for n in (300, 40))
    c = draw(st.one_of(st.just(0), st.just(1), index))
    return k, a, b, c, draw(st.integers(0, 300))


@settings(max_examples=150, deadline=None)
@given(_vector_cases())
@example((8, [255] * 300, [255], 255, 300))
@example((9, [511] * 300, [1, 511], 511, 0))
@example((16, [65535] * 300, [0, 0, 65535], 65535, 7))
def test_packed_vectors_match_the_list_forms(case):
    # `_Char2Kernel`'s packed scale, add and place against the index-list
    # forms that the other kernels' vectors are
    k, a, b, c, off = case
    K = base_field(2 ** k)._kernel
    assert type(K).vector_scale is not IndexKernel.vector_scale
    X, Y = K.vector(a), K.vector(b)
    assert K.vector_list(X) == a
    assert K.vector_list(K.vector_scale(c, X)) == K.scale(c, a)
    assert K.vector_list(K.vector_add(X, Y)) == K.add_polys(a, b)
    assert K.vector_list(K.vector_add(X, X)) == []
    placed = [0] * off + a if a else []
    assert K.vector_list(K.vector_place(X, off)) == placed
    assert K.vector_list(K.vector_scale(c, K.vector_place(X, off))) == \
        K.scale(c, placed)


# q = p^e <= 81 per odd p, and the degrees k of the fields F_(p^k) drawn
# for each p: S has coefficients in F_p, so F_q need not lie in F_(p^k)
_ODD_COMPOSE_QS = {3: (3, 9, 27, 81), 5: (5, 25), 7: (7, 49), 11: (11,),
                   13: (13,)}
_ODD_COMPOSE_DEGREES = {3: (1, 2, 4, 8), 5: (1, 2), 7: (1, 2), 11: (1,),
                        13: (1, 2)}


@st.composite
def _odd_compose_cases(draw):
    p = draw(st.sampled_from(sorted(_ODD_COMPOSE_QS)))
    k = draw(st.sampled_from(_ODD_COMPOSE_DEGREES[p]))
    q = draw(st.sampled_from(_ODD_COMPOSE_QS[p]))
    # the residue form, the reference, slows with the q^2 n slots of R(S)
    n = draw(st.integers(0, min(60, 3 * 81 ** 2 // q ** 2)))
    index = st.one_of(st.just(0), st.integers(0, p ** k - 1))
    return p ** k, q, draw(st.lists(index, min_size=n, max_size=n))


def _odd_dense(card, n):
    return [(7 * i + 3) % card or 1 for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(_odd_compose_cases())
# empty, one coefficient, zeros at either end; lengths q^e and q^e + 1
@example((27, 3, []))
@example((27, 3, [0]))
@example((27, 3, [5]))
@example((25, 5, [0, 0, 3, 0, 7, 0, 0]))
@example((6561, 9, [0, 0, 0] + _odd_dense(6561, 10) + [0, 0, 0]))
@example((9, 3, _odd_dense(9, 27)))
@example((9, 3, _odd_dense(9, 28)))
@example((81, 9, _odd_dense(81, 81)))
@example((81, 9, _odd_dense(81, 82)))
@example((49, 7, _odd_dense(49, 49)))
@example((49, 7, _odd_dense(49, 50)))
@example((169, 13, _odd_dense(169, 13)))
@example((169, 13, _odd_dense(169, 14)))
@example((6561, 27, _odd_dense(6561, 27)))
@example((6561, 27, _odd_dense(6561, 28)))
@example((6561, 81, _odd_dense(6561, 2)))
def test_compose_in_S_matches_the_residue_form(case):
    card, q, coeffs = case
    K = base_field(card)._kernel
    assert type(K).compose_in_S is IndexKernel.compose_in_S
    # the residue form gives R(S) in s: zero off the (q-1)-stride, and R(Y)
    # in y = s^(q-1) on it
    want = compose_in_S_by_residues(K, coeffs, q)
    assert not any(want[i] for i in range(len(want)) if i % (q - 1))
    assert K.compose_in_S(coeffs, q) == want[::q - 1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_in_S_returns_degree_q_deg_R_in_y(data):
    # R(S) is a polynomial in s^(q-1), and either kernel returns it in
    # y = s^(q-1): R(Y), of degree q deg R
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    q = data.draw(st.sampled_from(
        [p ** e for e in range(1, 7) if 2 < p ** e <= 81]))
    k = data.draw(st.sampled_from([1, 2, 3, 4] if p < 5 else [1, 2]))
    K = base_field(p ** k)._kernel
    n = data.draw(st.integers(1, 6 if q > 9 else 40))
    coeffs = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(0, K.card - 1)),
        min_size=n - 1, max_size=n - 1)) + [
        data.draw(st.integers(1, K.card - 1))]
    out = K.compose_in_S(coeffs, q)
    assert len(out) == q * (n - 1) + 1 and out[-1]


def _coerced_operators():
    """(value, operator names) of each ring element class whose binary
    operators coerce their operand through `_coerce_other`."""
    from drinfeld_deuring.multipoly import Frac, MultiRing

    F4 = base_field(4)
    A = t_poly_ring(base_field(2))
    M = MultiRing(F4, ("a",))
    return [
        (F4.gen, ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                  "__rtruediv__")),
        (A.gen, ("__add__", "__sub__", "__rsub__", "__mul__", "__divmod__")),
        (OreContext(A, 2).tau, ("__mul__", "__rmul__")),
        (LaurentRing(A).one, ("__add__", "__sub__", "__rsub__", "__mul__")),
        (M.gens()[0], ("__add__", "__sub__", "__rsub__", "__mul__", "__eq__")),
        (Frac(M.gens()[0]), ("__add__", "__sub__", "__rsub__", "__mul__",
                             "__truediv__", "__rtruediv__", "__eq__")),
    ]


def test_coerced_operators_decline_a_foreign_operand():
    cases = [(v, name) for v, names in _coerced_operators() for name in names]
    assert len(cases) == 29
    foreign = object()
    for v, name in cases:
        assert getattr(v, name)(foreign) is NotImplemented, (type(v), name)
    # so Python raises TypeError for the expression
    with pytest.raises(TypeError):
        base_field(4).gen + foreign


def test_coerced_operators_take_index_0():
    # FieldElement's coercion returns the index, 0 for a zero operand
    F = base_field(3)
    x = F.from_index(2)
    assert x + 0 == x and x - F.zero == x and 0 - x == 1
    assert x * 0 == F.zero and F.zero / x == F.zero
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_power_makes_no_square_after_the_top_bit():
    from drinfeld_deuring.fields import _power

    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for e in range(40):
        calls.clear()
        assert _power(3, e, 1, mul) == 3 ** e
        # one square per bit below the top one, one product per set bit
        assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")


def test_elements_builds_each_missing_index_once(monkeypatch):
    # a field of its own: a gen_name no other test uses keys a new instance,
    # whose cache holds little more than 0 and 1
    F = base_field(2).extension(10, gen_name="elements_once")
    a, b, c = [i for i in range(2, F.card) if i not in F._elt_cache][:3]
    cached = F.from_index(c)
    built = []
    real = F.from_index

    def counted(i):
        built.append(i)
        return real(i)

    monkeypatch.setattr(F, "from_index", counted)
    idx = [a, c, 0, a, b, 1, b, a, c]
    got = F._elements(idx)
    assert sorted(built) == [a, b]
    assert [x.index for x in got] == idx
    # each element is the cached object, so a second read builds nothing
    assert got[1] is cached and got[2] is F.zero and got[5] is F.one
    assert all(x is F._elt_cache[i] for x, i in zip(got, idx))
    assert F._elements(idx) == got and sorted(built) == [a, b]
    with pytest.raises(DomainError):
        F._elements([c, F.card])
    with pytest.raises(DomainError):
        F._elements([-1])


# the modulus search's answer at every (p, k, m) that the CI console script,
# the CLI golden commands and the benchmark workloads (seeds 0-2) build,
# as the search answered before it refused f(0) = 0 and p-th powers up front
_LEAST_IRREDUCIBLE = {
    (2, 1, 1): (0, 1),
    (2, 1, 2): (1, 1, 1),
    (2, 1, 3): (1, 1, 0, 1),
    (2, 1, 4): (1, 1, 0, 0, 1),
    (2, 1, 5): (1, 0, 1, 0, 0, 1),
    (2, 1, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 1, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 1, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 1, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 1, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 1, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 1, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 1, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 1, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 2, 2): (2, 1, 1),
    (2, 3, 2): (1, 1, 1),
    (2, 5, 2): (1, 1, 1),
    (2, 6, 2): (32, 1, 1),
    (2, 7, 2): (1, 1, 1),
    (2, 8, 2): (32, 1, 1),
    (3, 1, 1): (0, 1),
    (3, 1, 2): (1, 0, 1),
    (3, 1, 3): (1, 2, 0, 1),
    (3, 1, 4): (2, 1, 0, 0, 1),
    (3, 1, 5): (1, 2, 0, 0, 0, 1),
    (3, 1, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 1, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 1, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 1, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2, 2): (4, 0, 1),
    (3, 3, 2): (1, 0, 1),
    (3, 4, 2): (3, 0, 1),
    (3, 5, 2): (1, 0, 1),
    (5, 1, 1): (0, 1),
    (5, 1, 2): (2, 0, 1),
    (5, 1, 3): (1, 1, 0, 1),
    (5, 1, 4): (2, 0, 0, 0, 1),
    (7, 1, 1): (0, 1),
    (7, 1, 2): (1, 0, 1),
    (13, 1, 1): (0, 1),
    (13, 1, 2): (2, 0, 1),
    (13, 1, 4): (2, 0, 0, 0, 1),
    (61, 1, 1): (0, 1),
    (251, 1, 1): (0, 1),
    (65521, 1, 1): (0, 1),
}


def test_least_irreducible_is_pinned():
    # past the lru_cache, which earlier tests fill: every key is searched
    search = fields._least_irreducible.__wrapped__
    for (p, k, m), want in _LEAST_IRREDUCIBLE.items():
        assert search(p, k, m) == want, (p, k, m)


def test_extension_root_is_found_once_per_kernel(monkeypatch):
    # kappa_2 = F_(2^12) over F_64 reached through F_4 and through F_8:
    # both ask F_(2^12)'s kernel for the root of the same least modulus
    # over F_64, and only the first finds it
    K = fields._abs_tables(2, 12)
    K.embedding(6)  # F_64's own root in F_(2^12), memoised apart
    kappas = [base_field(4).extension(3, gen_name="u"),
              base_field(8).extension(2, gen_name="u")]
    assert kappas[0] != kappas[1] and kappas[0].card == kappas[1].card == 64
    monkeypatch.setattr(K, "_extension_roots", {})
    calls, real = [], IndexKernel.one_root

    def counted(self, g):
        calls.append(self)
        return real(self, g)

    monkeypatch.setattr(IndexKernel, "one_root", counted)
    k2s = [kappa.extension(2) for kappa in kappas]
    assert calls == [K]
    assert k2s[0].gen.index == k2s[1].gen.index == K.designated_root(
        [K.embedding(6)[c] for c in fields._least_irreducible(2, 6, 2)], 64)
    # a modulus given outright still has its root sought
    modulus = kappas[1]._elements(fields._least_irreducible(2, 6, 2))
    assert kappas[1].extension_with_modulus(
        modulus, gen_name="v").gen.index == k2s[0].gen.index
    assert calls == [K] * 3
