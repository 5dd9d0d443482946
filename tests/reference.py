"""Element-level references for tests: routines the package replaced with
faster ones, kept to check those against."""

import itertools

from drinfeld_deuring.drinfeld import LambdaModule
from drinfeld_deuring.errors import AmbientTooSmallError, \
    ConsistencyError, DomainError
from drinfeld_deuring.fields import _prime_divisors, embed
from drinfeld_deuring.isogeny_graph import IsogenyGraph, _checked, \
    _eliminator, _neighbor_solver
from drinfeld_deuring.ore import OreContext, drinfeld_image
from drinfeld_deuring.poly import Poly, PolyRing, poly_gcd, \
    roots_in_extension


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
    h_terms = [(0, [(i, c) for i, c in enumerate(g) if c])]
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
