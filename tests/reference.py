"""Element-level references for tests: routines the package replaced with
faster ones, kept to check those against."""

from drinfeld_deuring.errors import ConsistencyError, DomainError
from drinfeld_deuring.fields import embed
from drinfeld_deuring.isogeny_graph import IsogenyGraph
from drinfeld_deuring.poly import Poly, poly_gcd, roots_in_extension


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


def graph_by_pass(prime, h):
    """isogeny_graph._graph_from_h(prime, h) as it was built before the
    walk: every root of h in kappa_2 by root finding, and every edge from
    one `neighbor_pass` over kappa_2."""
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
