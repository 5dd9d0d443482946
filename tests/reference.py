"""Element-level references for tests: routines the package replaced with
faster ones, kept to check those against, and `ReferenceField`, the
table-free field that every index kernel is checked against."""

import functools
import itertools
import operator

from drinfeld_deuring import universal
from drinfeld_deuring.drinfeld import LambdaModule
from drinfeld_deuring.errors import AmbientTooSmallError, \
    ConsistencyError, DomainError
from drinfeld_deuring.fields import _power, _prime_divisors, base_field, \
    embed
from drinfeld_deuring.isogeny_graph import IsogenyGraph, _checked, \
    _eliminator, _neighbor_solver
from drinfeld_deuring.multipoly import Frac, MultiRing
from drinfeld_deuring.ore import OreContext, drinfeld_image
from drinfeld_deuring.poly import Poly, PolyRing, poly_gcd, \
    roots_in_extension
from drinfeld_deuring.tower import IdentityReport
from drinfeld_deuring.universal import _T_STRIDE, _check_stride, \
    _derivative, _u_degree


def monic_polys(ring, degree):
    """Every monic polynomial of the given degree over a finite field: the
    candidates that the modulus search and the prime enumeration replaced.

    Digit i of the running index is the degree-i coefficient, so the
    leading-end coefficients change slowest: the order is lexicographic on
    the coefficients read from the leading end down, comparing by index.
    """
    K = ring.base
    for idx in range(K.card ** degree):
        coeffs = []
        for _ in range(degree):
            idx, c = divmod(idx, K.card)
            coeffs.append(K.from_index(c))
        coeffs.append(K.one)
        yield Poly(ring, coeffs)


def exact_div(f, g):
    """f / g, which must leave no remainder."""
    q, r = divmod(f, g)
    if r:
        raise DomainError(f"division of {f!r} by {g!r} leaves remainder {r!r}")
    return q


def check_simple_roots_generic(field, i):
    """gcd(u_i, d/ds u_i) = 1 over F_q(T), by a sufficient certificate:
    u_i(0) != 0 and W_i = -prod_{0<j<i} (T^(q^j) - T) * s^(q + ... +
    q^(i-1)), the generic form of the Casoratian of `universal._certified`,
    which no `verify` row runs.  W_i is formed by products: read off the
    recurrence that built u_i, it would prove nothing."""
    # the products u_i * u_(i-1)' reach s^(deg u_i + deg u_(i-1) - 1)
    if i > 0:
        _check_stride("W_{i}", field.card, i,
                      lambda q, i: _u_degree(q, i) + _u_degree(q, i - 1) - 1)
    # through the module, where a test may put a mutant u_i
    u = universal._u_terms(field, i)
    if i == 0:
        return True  # u_0 = 1
    um, ui = u[i - 1:]
    q, neg, kernel = field.card, field._neg, field._kernel
    # P = prod (T^(q^j) - T); the identity reads W_i + P * s^E = 0
    P = {0: 1}
    for j in range(1, i):
        P = kernel.sum_copies(((P, 1, q ** j * _T_STRIDE),
                               (P, neg(1), _T_STRIDE)))
    copies = [(ui, c, k) for k, c in _derivative(field, um).items()]
    copies += [(um, neg(c), k) for k, c in _derivative(field, ui).items()]
    copies.append((P, 1, sum(q ** j for j in range(1, i))))
    return (any(not k % _T_STRIDE for k in ui)
            and not kernel.sum_copies(copies))


def coprime_over_fraction_field(f, g):
    """gcd(f, g) = 1 over the fraction field of A, for f and g over A[s]
    with A = F_q[T]: a primitive pseudo-remainder sequence, which the
    Casoratian certificate of `check_simple_roots_generic` replaced."""
    if not g:
        return f.degree == 0
    f, g = _primitive(f), _primitive(g)
    while True:
        if g.degree == 0:
            return True
        r = _pseudo_rem(f, g)
        if not r:
            return False
        f, g = g, _primitive(r)


def _content(f):
    cs = [c for c in f.coeffs if c]
    g = cs[0]
    for c in cs[1:]:
        g = poly_gcd(g, c)
        if g.degree == 0:
            break
    return g


def _primitive(f):
    c = _content(f)
    if c.degree == 0 and c.lead == c.ring.base.one:
        return f
    return f.map_coeffs(lambda x: exact_div(x, c), f.ring)


def _pseudo_rem(f, g):
    lc = g.lead
    while f and f.degree >= g.degree:
        f = f * lc - g.shifted(f.degree - g.degree) * f.lead
    return f


def distinct_roots(kernel, g):
    """kernel.distinct_roots(g), as the kernel ran it before it kept its
    parts as a tree: each round's trace, reduced modulo g, is reduced again
    modulo every part."""
    p, k = kernel.p, kernel.degree
    # frob[i] = x^(p^i) mod g, up to frob[k] = x^card
    frob = kernel._frobenius_powers(g, k)
    parts = [kernel.gcd(kernel.sub_polys(frob[k], [0, 1]), g)]
    for i in range(k):
        if all(len(P) <= 2 for P in parts):
            break
        beta = p ** i
        trace = []
        for j in range(k):
            trace = kernel.add_polys(
                trace, kernel.scale(kernel._pow(beta, p ** j), frob[j]))
        split = []
        for P in parts:
            if len(P) <= 2:
                split.append(P)
                continue
            t = kernel.mod(trace, P)
            for c in range(p - 1):
                piece = kernel.gcd(kernel.sub_polys(t, [c] if c else []), P)
                if len(piece) > 1:
                    split.append(piece)
                    P = kernel.divmod_polys(P, piece)[0]
                    if len(P) == 1:
                        break
            if len(P) > 1:
                split.append(P)
        parts = split
    return sorted(kernel._neg(P[0]) for P in parts if len(P) == 2)


def neighbor_pass(prime, ambient, vertices):
    """The edge targets of each of the distinct nonzero ambient indices
    `vertices`, as lists of ambient indices, by one pass over the nonzero Y
    of the ambient field: the route that the linear solve replaced.

    Y is a root of the neighbor polynomial of Delta0 exactly when
    f(Y) = -gamma(T^q) * (Y+1)^(q-1) * Y is Delta0, and both f(Y) and
    Delta1(Y) are read off the logs of Y and Y+1.  Y runs in ascending index
    order, the order in which root finding gives the roots; f(0) = f(-1) = 0
    is never a vertex, so those two Y are skipped.
    """
    q, K = prime.q, ambient._kernel
    log, exp, m1, add = K.log, K.exp, K.m1, K._add
    l_f = log[K._neg(embed(prime.alpha ** q, ambient).index)]
    l_g = log[K._neg(embed(prime.alpha, ambient).index)]
    e = q - 1
    hits = {v: [] for v in vertices}
    for y in range(1, K.card):
        y1 = add(y, 1)
        if y1:
            ly, ly1 = log[y], log[y1]
            ts = hits.get(exp[(l_f + e * ly1 + ly) % m1])
            if ts is not None:
                # Delta1 = -gamma(T) * Y^q / (Y+1)^(q-1)
                ts.append(exp[(l_g + q * ly - e * ly1) % m1])
    return [hits[v] for v in vertices]


def neighbor_solve_by_elimination(prime, ambient):
    """`isogeny_graph._neighbor_solver(prime, ambient)` as it was before the
    map was factored once per graph: for each Delta0, a * W^q + W = 1 with
    a = -Delta0 / gamma(T^q) by an elimination of its own, every solution
    being one particular solution plus the span of the map's kernel."""
    q, K = prime.q, ambient._kernel
    p, add, neg, mul, inv = K.p, K._add, K._neg, K._mul, K._inv
    basis = [p ** i for i in range(K.degree)]
    bq = [K._pow(b, q) for b in basis]
    f = inv(neg(embed(prime.alpha ** q, ambient).index))
    g = neg(embed(prime.alpha, ambient).index)

    def solve(delta0):
        a = mul(delta0, f)
        kernel, preimage = _eliminator(
            K, [add(mul(a, b_q), b) for b, b_q in zip(basis, bq)])
        w = preimage(1)
        if w is None:
            return []
        sols = [w]
        for u in kernel:
            sols = [add(s, mul(c, u)) for c in range(p) for s in sols]
        ys = sorted((add(inv(w), neg(1)), w) for w in sols)
        return [mul(g, mul(K._pow(y, q), K._pow(w, q - 1))) for y, w in ys]

    return solve


def graph_by_pass(prime, h):
    """`graph_by_walk_from_h(prime, h)` as it was built before the walk:
    every root of h in kappa_2 by root finding, and every edge from one
    `neighbor_pass` over kappa_2."""
    ambient = prime.kappa.extension(2)
    verts = roots_in_extension(h, 2)
    if len(set(verts)) != h.degree:
        raise ConsistencyError(
            f"h of degree {h.degree} has {len(set(verts))} distinct roots "
            "in kappa_2")
    index = {v.index: i for i, v in enumerate(verts)}
    targets = neighbor_pass(prime, ambient, list(index))
    for ts in targets:
        if len(ts) < prime.q:
            raise ConsistencyError(
                f"in kappa_2, only {len(ts)} of {prime.q} neighbor roots "
                "lie in the ambient field")
    edges = {}
    strays = []
    for i, ts in enumerate(targets):
        for t in ts:
            j = index.get(t)
            if j is None:
                strays.append((i, ambient.from_index(t)))
            else:
                edges[i, j] = edges.get((i, j), 0) + 1
    return IsogenyGraph(prime, ambient, 2, tuple(verts), edges, tuple(strays))


def graph_by_walk_from_h(prime, h):
    """build_supersingular_graph(prime) from h = u_d mod p, as it was built
    before the walk tested roots by the u-recurrence: one root of h in
    kappa_2 from one branch of the root split of gcd(x^|kappa_2| - x, h),
    whose degree counts the distinct roots, and each target tested by
    evaluating h."""
    ambient = prime.kappa.extension(2)
    K = ambient._kernel
    g = [ambient._base_emb[c.index] for c in h.coeffs]
    count, root = K.one_root(g)
    if count != h.degree:
        raise ConsistencyError(
            f"h of degree {h.degree} has {count} distinct roots in kappa_2")
    h_terms = [[(i, c) for i, c in enumerate(g) if c]]
    solve = _neighbor_solver(prime, ambient)
    targets = {root: None}
    strays = set()
    walk = [root]
    for v in walk:
        try:
            ts = targets[v] = _checked(solve(v), prime.q)
        except AmbientTooSmallError as exc:
            raise ConsistencyError(f"in kappa_2, {exc}") from None
        for t in ts:
            if t not in targets and t not in strays:
                if not K.evaluate(h_terms, t)[0]:
                    targets[t] = None
                    walk.append(t)
                else:
                    strays.add(t)
    if len(walk) != h.degree:
        raise ConsistencyError(
            f"the walk from one root of h reached {len(walk)} of its "
            f"{h.degree} roots in kappa_2")
    walk.sort()
    index = {v: i for i, v in enumerate(walk)}
    edges = {}
    stray_targets = []
    for i, v in enumerate(walk):
        for t in targets[v]:
            j = index.get(t)
            if j is None:
                stray_targets.append((i, ambient.from_index(t)))
            else:
                edges[i, j] = edges.get((i, j), 0) + 1
    return IsogenyGraph(prime, ambient, 2, tuple(ambient._elements(walk)),
                        edges, tuple(stray_targets))


def is_irreducible_by_rabin(kernel, f):
    """kernel.is_irreducible(f) for f of degree >= 2, as it ran before it
    refused f(0) = 0 and p-th powers up front: Rabin's test alone, x^(card^n)
    = x mod f and gcd(x^(card^(n/r)) - x, f) = 1 for each prime r | n."""
    n = len(f) - 1
    ts = kernel._frobenius_powers(f, n * kernel.degree)[::kernel.degree]
    if ts[n] != ts[0]:
        return False
    return all(len(kernel.gcd(kernel.sub_polys(ts[n // r], [0, 1]), f)) == 1
               for r in _prime_divisors(n))


def generator_by_powers(p, degree, modulus_digits):
    """`fields._generator` as it ran before it read the primes r | p - 1
    off the norm: the least index c (from p in a proper extension) with
    c^((p^n - 1)/r) != 1 for every prime r | p^n - 1, each a power of c on
    the reference field."""
    R = ReferenceField(p, modulus_digits)
    return next(c for c in range(p if degree > 1 else 1, R.card)
                if all(R._pow(c, (R.card - 1) // r) != 1
                       for r in _prime_divisors(R.card - 1)))


def compose_in_S_by_residues(kernel, coeffs, q):
    """R(S) in s for S = (s^q - s)^(q-1), as odd characteristic's
    `compose_in_S` ran it before it composed in y = s^(q-1) bottom up,
    split top down by residue mod q.

    S has coefficients in F_p, so S(s)^q = S(s^q), and
    R(x) = sum_(r<q) x^r R_r(x^q) gives R(S) = sum_(r<q) S^r * [R_r(S)](s^q):
    each level recurses on q parts of a q-th of the length, stretches their
    results by s -> s^q and sums them by Horner's rule in S."""
    S = [0] * (q * (q - 1) + 1)
    S[q - 1::q - 1] = [1] * q
    add, mul = kernel.add_polys, kernel.mul_polys

    def compose(cs):
        if len(cs) <= 1:
            return [c for c in cs if c]
        acc = []
        for r in reversed(range(min(q, len(cs)))):
            inner = compose(cs[r::q])
            part = [0] * (q * len(inner) - q + 1)
            part[::q] = inner
            acc = add(mul(acc, S), part) if acc else part
        return acc

    return compose(coeffs)


def compose_in_S_by_mul_polys(kernel, coeffs, q):
    """R(Y) in y = s^(q-1), as odd characteristic's `compose_in_S` ran it
    before each product by Y(y^m) became `times_Y`: the same base-q levels
    and Horner's rule in Y(y^m), each product by `mul_polys` with Y(y^m)
    built as a list of q ones at y^m, ..., y^(qm)."""
    add, mul = kernel.add_polys, kernel.mul_polys
    parts = [[c] if c else [] for c in coeffs]
    m = 1
    while len(parts) > 1:
        Y = [0] * (q * m + 1)
        Y[m::m] = [1] * q
        level = []
        for i in range(0, len(parts), q):
            acc = []
            for part in reversed(parts[i:i + q]):
                acc = add(mul(acc, Y), part) if acc else part
            level.append(acc)
        parts = level
        m *= q
    return parts[0] if parts else []


def U_over_kappa_by_mul_polys(prime):
    """U_d over kappa as an index list in y = s^(q-1), as
    `universal.U_mod_prime` ran it before each product by Y(y^(q^i))
    became `times_Y`: the same recurrence, each P_i = U_i * Y(y^(q^i)) by
    `mul_polys` with Y(y^(q^i)) built as a list."""
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    cur, carried = [1], []
    for i in range(prime.d):
        qi = q ** i
        Q = q * qi
        Y = [0] * (Q + 1)
        Y[qi::qi] = [1] * q
        P = K.mul_polys(cur, Y)
        nxt = K.add_polys(P, K.scale(K._pow(a, -(q - 1) * qi), cur))
        gamma = K._add(K._pow(a, 1 - q * Q), K._neg(K._pow(a, Q - q * Q)))
        cur, carried = K.add_polys(nxt, carried), K.scale(gamma, P)
    return cur


def U_over_kappa_by_term_maps(prime):
    """U_d over kappa as a term map {e: index} of its nonzero terms c * s^e:
    the U-recurrence as `universal.U_mod_prime` ran it before it ran in
    y = s^(q-1) on index lists.  With C = (s^q - s)^(q-1) = sum_k
    s^(k(q-1)), k = 1..q, and Q = q^(i+1), a step is 3q + 1 scaled,
    key-shifted copies of U_i and U_(i-1), added by `sum_copies`:

    U_(i+1) = (C(s^(q^i)) + alpha^(-(q-1)q^i)) * U_i
              - (alpha^(q^i - Q) - alpha^(1 - Q)) * C(s^(q^(i-1))) * U_(i-1)
    """
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    prev, cur = {}, {0: 1}
    for i in range(prime.d):
        qi = q ** i
        Q = q * qi
        copies = [(cur, K._pow(a, -(q - 1) * qi), 0)]
        for e in range(q - 1, q * (q - 1) + 1, q - 1):
            copies += [(cur, 1, e * qi),
                       (prev, K._neg(K._pow(a, qi - Q)), e * qi // q),
                       (prev, K._pow(a, 1 - Q), e * qi // q)]
        prev, cur = cur, K.sum_copies(copies)
    return cur


def u_over_kappa_by_term_maps(prime):
    """u_d over kappa as a term map {e: index}, as the separability
    certificate ran it before it ran on digit masks: four scaled,
    key-shifted copies per step, added by `sum_copies`:

    u_(i+1) = (s^(q^i) + alpha^(q^(i+1))) * u_i
              - (alpha^(q^i) - alpha) * s^(q^i) * u_(i-1)
    """
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    prev, cur = {}, {0: 1}
    for i in range(prime.d):
        qi = q ** i
        prev, cur = cur, K.sum_copies((
            (cur, 1, qi), (cur, K._pow(a, q * qi), 0),
            (prev, K._neg(K._pow(a, qi)), qi), (prev, a, qi)))
    return cur


def u_on_masks(prime):
    """u_d over kappa as an index list in s, by the recurrence on digit
    masks, as the separability certificate ran it before it read the
    closed form: slot m of u_i holds the coefficient of s^(sum_{j in m}
    q^j), m an i-bit mask, and for m < 2^i

    u_(i+1)[m] = alpha^(q^(i+1))*u_i[m],
    u_(i+1)[m + 2^i] = u_i[m] - (alpha^(q^i) - alpha)*u_(i-1)[m].

    The masks become exponents once, at the end."""
    K, a, q = prime.kappa._kernel, prime.alpha.index, prime.q
    prev, cur = [], [1]
    for i in range(prime.d):
        qi = q ** i
        shifted = K.add_polys(cur, K.scale(K._add(a, K._neg(K._pow(a, qi))),
                                           prev))
        prev, cur = cur, K.scale(K._pow(a, q * qi), cur) + shifted
    return prime._on_exponents(cur)


def t_by_bits(q, d, m):
    """t(m) of the closed form of u_d (`universal` module docstring), read
    off its definition bit by bit: over the clear bits i < d of the d-bit
    mask m, 1 if bit i+1 is set, else q^(i+1)."""
    return sum(1 if m >> (i + 1) & 1 else q ** (i + 1)
               for i in range(d) if not m >> i & 1)


def tau(q, w):
    """tau(w) of the closed form of U_d (`universal` module docstring), read
    off its definition digit by digit: over the i with w_i = 0, 1 - q^(i+1)
    if i > 0 and w_(i-1) != 0, else -(q-1)*q^i."""
    return sum(1 - q ** (i + 1) if i and w[i - 1] else -(q - 1) * q ** i
               for i, wi in enumerate(w) if not wi)


def H_by_closed_form(prime):
    """H = U_d mod p from the closed form of U_d, with no recurrence:
    alpha^(tau(w)) summed at y^(sum_i w_i q^i), y = s^(q-1), over the
    (q+1)^d digit words w in {0, ..., q}^d."""
    K, a, q, d = prime.kappa._kernel, prime.alpha.index, prime.q, prime.d
    out = [0] * (q * (q ** d - 1) // (q - 1) + 1)
    for w in itertools.product(range(q + 1), repeat=d):
        e = sum(wi * q ** i for i, wi in enumerate(w))
        out[e] = K._add(out[e], K._pow(a, tau(q, w)))
    return prime._poly_in_y(out)


def g_lists_by_dense_horner(prime, k_max):
    """g_0..g_{k_max} of psi_{p(T)} as kappa index lists in Delta, as the
    direct route ran them before it ran on digit masks: Horner's rule for
    p(psi_T) on dense lists, every product truncated at tau^(k_max), by

    (f * psi_T)_k = f_k * alpha^(q^k) - f_(k-1) * (Delta^Q + alpha^Q)
                    + f_(k-2) * Delta^(Q/q),        Q = q^(k-1)."""
    K, q = prime.kappa._kernel, prime.q
    ap = [K._pow(prime.alpha.index, q ** k) for k in range(k_max + 1)]
    emb = prime.kappa._base_emb
    cs = [emb[c.index] for c in prime.p_poly.coeffs]
    neg = K._neg(1)
    g = [[cs[-1]]] + [[]] * k_max
    for c in reversed(cs[:-1]):
        nxt = [K.add_polys(K.scale(ap[0], g[0]), [c])]
        for k in range(1, k_max + 1):
            Q = q ** (k - 1)
            f = K.add_polys(K.scale(ap[k], g[k]),
                            K.scale(K._neg(ap[k - 1]), g[k - 1]))
            if g[k - 1]:
                f = K.add_polys(f, [0] * Q + K.scale(neg, g[k - 1]))
            if k > 1 and g[k - 2]:
                f = K.add_polys(f, [0] * (Q // q) + g[k - 2])
            nxt.append(f)
        g = nxt
    return g


def is_supersingular_by_ore_image(module, prime):
    """Whether psi has no tau^d term in psi_{p(T)}, as
    `drinfeld.is_supersingular` read it before it ran the u-recurrence at
    the point: the whole image of p(T) under T -> psi_T in L{tau}, by
    Horner's rule on twisted polynomials, with the same input checks."""
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


def power_by_squaring(x, e):
    """x^e for a MultiPoly, or a Frac of MultiPolys, by square-and-multiply,
    as `MultiPoly.__pow__` formed every power before it split the exponent
    into base-p digits and took Frobenius images."""
    if isinstance(x, Frac):
        return Frac(power_by_squaring(x.num, e), power_by_squaring(x.den, e))
    return _power(x, e, x.ring.one, operator.mul)


def j_chain_by_cross_product(q):
    """The report of `tower.j_chain_check` as it was formed before the
    factor identity: A/B == C/D by the dense-by-dense products A*D and C*B,
    whose term counts the report gives, with every power by squaring."""
    F = base_field(q)
    R = MultiRing(F, ("T", "Y"))
    T, Y = R.gens()
    d0 = Frac(-power_by_squaring(T, q) * power_by_squaring(Y + 1, q - 1) * Y)
    d1 = Frac(-T * power_by_squaring(Y, q), power_by_squaring(Y + 1, q - 1))
    lhs = power_by_squaring(d0 + power_by_squaring(T, q), q + 1) \
        / power_by_squaring(d0, q)
    rhs = power_by_squaring(d1 + T, q + 1) / d1
    cross_l = lhs.num * rhs.den
    cross_r = rhs.num * lhs.den
    ok = cross_l == cross_r

    S = MultiRing(F, ("T", "s", "c"))
    T2, s, c = S.gens()
    w = power_by_squaring(power_by_squaring(s, q) - s, q - 1)
    num = power_by_squaring(T2, q) * power_by_squaring(1 + w, q + 1) \
        - c * power_by_squaring(power_by_squaring(s, q) - s, q * q - q)
    ok = ok and num.degree("s") == q ** 3 - q

    return IdentityReport("j-chain", q, ok,
                          len(cross_l.packed), len(cross_r.packed))


class ElementPoly:
    """The element path of `Poly` over a finite field, before a polynomial
    there held its kernel index tuple: coefficients as an ascending tuple
    of `FieldElement`s with no trailing zeros, and the arithmetic that ran
    on them, by the elements' own operators.  `Poly` kept sums, negation,
    `monic`, `derivative`, `shifted` and evaluation this way; products and
    division are the schoolbook loops.  Each method takes and returns
    element tuples; the index path is checked against them."""

    def __init__(self, field):
        self.field = field

    @staticmethod
    def trimmed(cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return tuple(cs)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = out[i] + c
        return self.trimmed(out)

    def neg(self, a):
        return tuple(-c if c else c for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.field.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return self.trimmed(out)

    def divmod(self, a, b):
        rem, quot = list(a), [self.field.zero] * max(len(a) - len(b) + 1, 0)
        inv = b[-1].inverse()
        for k in range(len(a) - len(b), -1, -1):
            c = rem[k + len(b) - 1] * inv
            quot[k] = c
            for j, y in enumerate(b):
                rem[k + j] = rem[k + j] - c * y
        return self.trimmed(quot), self.trimmed(rem)

    def monic(self, a):
        inv = a[-1].inverse()
        return tuple(c * inv for c in a)

    def derivative(self, a):
        return self.trimmed(c * i for i, c in enumerate(a) if i)

    def shifted(self, a, k):
        return (self.field.zero,) * k + a if a else a

    def value(self, a, x):
        acc = x * 0
        for c in reversed(a):
            acc = acc * x + c
        return acc


def trim(a):
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


class ReferenceField:
    """F_p[z]/(m), m the monic modulus `modulus_digits` (ascending), by
    slow, obvious, table-free arithmetic: the contract that every
    `IndexKernel` kind is held to in tests/test_kernel_contract.py.

    Digit i of an index in base p is the coefficient of z^i, so an index is
    its own coordinate vector, and no log, exp or Zech table is read.  Sums
    are digit-wise mod p, products schoolbook products of digit lists
    reduced by m, and inverses the power card - 2.  Polynomials are index
    lists with no trailing zeros, as the kernel's are, with schoolbook
    arithmetic, roots found by scanning, and Ben-Or's irreducibility test.
    The methods take the kernel's names and arguments."""

    def __init__(self, p, modulus_digits):
        self.p = p
        self.modulus = tuple(modulus_digits)
        self.degree = len(self.modulus) - 1
        self.card = p ** self.degree

    # scalars ----------------------------------------------------------------

    def digits(self, i):
        out = []
        for _ in range(self.degree):
            i, d = divmod(i, self.p)
            out.append(d)
        return out

    def index(self, digits):
        i = 0
        for d in reversed(list(digits)):
            i = i * self.p + d % self.p
        return i

    def _add(self, i, j):
        return self.index(x + y for x, y in zip(self.digits(i),
                                                self.digits(j)))

    def _neg(self, i):
        return self.index(-x for x in self.digits(i))

    def _mul(self, i, j):
        k, m = self.degree, self.modulus
        a, b = self.digits(i), self.digits(j)
        prod = [0] * (2 * k - 1)
        for s, x in enumerate(a):
            if x:
                for t, y in enumerate(b):
                    prod[s + t] += x * y
        # z^n = z^(n-k) * (z^k - m) modulo m, from the top down
        for n in range(2 * k - 2, k - 1, -1):
            c = prod[n]
            if c:
                for t in range(k + 1):
                    prod[n - k + t] -= c * m[t]
        return self.index(prod[:k])

    def _pow(self, i, e):
        if not i:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        # i^(card - 1) = 1, which also takes a negative e to its inverse
        out = 1
        for bit in bin(e % (self.card - 1))[2:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(out, i)
        return out

    def _inv(self, i):
        if not i:
            raise ZeroDivisionError("inverse of zero")
        return self._pow(i, -1)

    def conjugates(self, x, Q):
        """The orbit x, x^Q, x^(Q^2), ... of x under x -> x^Q."""
        orbit = [x]
        while (y := self._pow(orbit[-1], Q)) != x:
            orbit.append(y)
        return orbit

    def minimal_polynomial(self, x, Q):
        """The product of y - c over the conjugates c of x under x -> x^Q:
        the minimal polynomial of x over F_Q, irreducible there."""
        f = [1]
        for c in self.conjugates(x, Q):
            f = self.mul_polys(f, [self._neg(c), 1])
        return f

    # polynomials ------------------------------------------------------------

    def add_polys(self, a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return trim([self._add(x, y) for x, y in zip(a, b)])

    def sub_polys(self, a, b):
        return self.add_polys(a, [self._neg(y) for y in b])

    def scale(self, c, a):
        return trim([self._mul(c, x) for x in a])

    def mul_polys(self, a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y:
                    out[i + j] = self._add(out[i + j], self._mul(x, y))
        return trim(out)

    def divmod_polys(self, a, b):
        n, inv = len(b) - 1, self._inv(b[-1])
        rem, quot = list(a), [0] * max(len(a) - n, 0)
        for k in reversed(range(len(quot))):
            quot[k] = c = self._mul(rem[k + n], inv)
            for j, y in enumerate(b):
                if c and y:
                    rem[k + j] = self._add(rem[k + j],
                                           self._neg(self._mul(c, y)))
        return quot, trim(rem[:n])

    def mod(self, a, b):
        return self.divmod_polys(a, b)[1]

    def monic(self, a):
        return self.scale(self._inv(a[-1]), a)

    def gcd(self, a, b):
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def powmod(self, g, e, f):
        if e < 0:
            raise DomainError("powers must be non-negative")
        out, g = self.mod([1], f), self.mod(g, f)
        for bit in bin(e)[2:]:
            out = self.mod(self.mul_polys(out, out), f)
            if bit == "1":
                out = self.mod(self.mul_polys(out, g), f)
        return out

    def value(self, a, x):
        """a(x), by Horner's rule."""
        acc = 0
        for c in reversed(a):
            acc = self._add(self._mul(acc, x), c)
        return acc

    def distinct_roots(self, g):
        return [x for x in range(self.card) if not self.value(g, x)]

    def is_irreducible(self, f):
        """Ben-Or: f of degree n >= 2 is irreducible exactly when it has no
        factor of degree j <= n/2, that is, when gcd(x^(card^j) - x, f) = 1
        for each such j."""
        t = [0, 1]
        for _ in range((len(f) - 1) // 2):
            t = self.powmod(t, self.card, f)
            if len(self.gcd(self.sub_polys(t, [0, 1]), f)) > 1:
                return False
        return True

    def split(self, part):
        """The gcds of P with Tr(beta*x) - c, c in F_p, that have positive
        degree, for the first beta = z^i, z^(i+1), ... giving two or
        more; frob[j] = x^(p^j) modulo a multiple of P."""
        P, i, frob = part
        while True:
            beta, i = self.p ** i, i + 1
            t = []
            for j, f in enumerate(frob):
                t = self.add_polys(t, self.scale(self._pow(beta, self.p ** j),
                                                 f))
            pieces = [g for c in range(self.p)
                      if len(g := self.gcd(self.sub_polys(t, [c]), P)) > 1]
            if len(pieces) > 1:
                return [(g, i, frob) for g in pieces]

    def frobenius_orbits(self, q, d):
        """(minimal polynomial, least element) of each orbit of x -> x^q of
        length d, ordered by the least log in each orbit: the logs to the
        least primitive element, by walking its powers."""
        m1, g = self.card - 1, generator_by_powers(self.p, self.degree,
                                                   self.modulus)
        exp = [1]
        while len(exp) < m1:
            exp.append(self._mul(exp[-1], g))
        orbits = {}
        for l in range(m1):
            orbit = frozenset(exp[l * q ** i % m1] for i in range(d))
            if len(orbit) == d:
                orbits.setdefault(orbit, l)
        return [(self.minimal_polynomial(min(o), q), min(o))
                for o, _ in sorted(orbits.items(), key=lambda kv: kv[1])]

    def times_Y(self, a, m, q):
        """a * Y(y^m) for Y(y) = y + ... + y^q, by a product with Y(y^m)
        built as a list."""
        Y = [0] * (q * m + 1)
        Y[m::m] = [1] * q
        return self.mul_polys(a, Y)

    def compose_in_S(self, coeffs, q):
        """R(Y) for Y = y + y^2 + ... + y^q, by Horner's rule in Y."""
        Y = [0] + [1] * q
        acc = []
        for c in reversed(coeffs):
            acc = self.add_polys(self.mul_polys(acc, Y), [c])
        return acc

    # the kernel's other maps ------------------------------------------------

    def is_least_root(self, g, r, Q):
        """Whether r is a root of g and the least of its deg g conjugates
        under x -> x^Q, which are then every root of g."""
        orbit = self.conjugates(r, Q)
        return not self.value(g, r) and r == min(orbit) \
            and len(orbit) == len(g) - 1

    def evaluate(self, rows, x, lift=None):
        """The kernel's evaluate(rows, x, k), each coefficient c read as
        lift[c] (the kernel's `embedding(k)`) for a given lift."""
        if not x:
            raise DomainError("evaluation at 0")
        lift = lift or range(self.card)
        return [functools.reduce(self._add, (
            self._mul(lift[c], self._pow(x, e)) for e, c in terms), 0)
            for terms in rows]

    def dilate(self, a, x):
        if not x:
            raise DomainError("dilation by 0")
        return [self._mul(c, self._pow(x, j)) for j, c in enumerate(a)]

    def powers(self, x, es):
        if not x:
            raise DomainError("powers of 0")
        return [self._pow(x, e) for e in es]

    def span(self, rows):
        # product() varies its last argument fastest, so rows go in reversed
        return [functools.reduce(self._add, t, 0)
                for t in itertools.product(*reversed(rows))]

    def sum_copies(self, copies):
        out = {}
        for u, c, shift in copies:
            for key, x in u.items():
                k = key + shift
                out[k] = self._add(out.get(k, 0), self._mul(c, x))
        return {k: x for k, x in out.items() if x}
