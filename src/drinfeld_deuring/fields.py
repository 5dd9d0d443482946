"""Finite fields as explicit towers with table-driven arithmetic.

Every field is realized over its prime field F_p with elements encoded as
integers: the element sum(c_i * z^i) is stored as the integer sum(c_i * p^i),
where z is a root of a deterministic irreducible modulus: the least monic
one of its degree, coefficients compared by index from the leading end down,
which `_least_irreducible` finds on the kernel once per absolute base field
and degree, for the tables and for `extension` alike.  Multiplication goes
through exp/log tables for a fixed primitive element, the least primitive
index (`_generator`).  A candidate c must have c^((p^n - 1)/r) != 1 for
each prime r | p^n - 1; for r | p - 1 that power is N(c)^((p - 1)/r), N(c)
= Res(m, c) being c's norm to F_p, so one resultant on c's digits and a
power in plain ints mod p decide it, exactly as the power of c would, and
only the other r take a power of c.  Addition is XOR in characteristic 2
and Zech logarithms otherwise, prime fields included.  One index kernel
per absolute field (`IndexKernel`: the tables, whose layout no other module
reads, the scalar arithmetic, that of polynomials over the field on index
lists, slot vectors, `evaluate`, `dilate`, and `sum_copies`, the one
routine of sparse term maps) is shared between all tower instances with
that absolute field.

A field built as an extension remembers its base field, the defining modulus
over the base, and a designated root of that modulus (the least conjugate of
one root the kernel finds without a scan, `IndexKernel.designated_root`; a
reducible modulus is refused), so elements can be moved up the tower and
decomposed over the base.  The base embeds by sending the root z of its
table modulus to that modulus's designated root in the extension's tables
(one map per subfield degree, `IndexKernel.embedding`).  The coordinates
over the base invert the map (c_j) -> sum(c_j * gen^j), tabulated on the
first lookup (`_coord_indices`, which `coords_over_base` and the grammar
read).  Both maps are basis changes, and one
routine tabulates each of them, `IndexKernel.span`.  A caller that already
holds the designated root of the defining modulus passes it in:
`modulus.primes_of_degree` reads it off the Frobenius orbit whose minimal
polynomial the modulus is (`IndexKernel.frobenius_orbits`), so the residue
fields of enumerated primes split nothing.

Each field also carries a `q` attribute: the cardinality of the designated
base field of its tower.  This is the exponent base used by `frobenius` and by
all twisted-polynomial arithmetic, and it is deliberately not part of
structural field equality: `_Keyed`, the one home of equality of fields,
rings and primes, compares their keys, here p, the degree and the tower's
moduli.
"""

from __future__ import annotations

import array
import functools
import gc
import itertools
import operator
import sys

from .errors import CapExceededError, DomainError

CARD_CAP = 1 << 16
# the largest field whose card x card table of sums `sum_copies` reads
_SUMS_CARD_MAX = 1 << 8


def _cap_exponent(card):
    """The largest e with card^e <= CARD_CAP, for card >= 2."""
    e = 0
    while card ** (e + 1) <= CARD_CAP:
        e += 1
    return e


def check_cap(what, card, e=None):
    """CapExceededError unless `what`, of cardinality card, or card^e for a
    given e, fits under CARD_CAP.  card^e is never formed, so a huge e is
    refused at once, and printed as a power."""
    if card > CARD_CAP if e is None else e > _cap_exponent(card):
        size = card if e is None else f"{card}^{e}"
        raise CapExceededError(
            f"{what} of cardinality {size} exceeds the {CARD_CAP} cap")


def _digits(n, p, length):
    out = []
    for _ in range(length):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _prime_divisors(n):
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return fs


def _trim(a):
    """Cut the trailing zeros off a list that ends in 0, in place, with one
    scan from the top in C and one del.  Callers test the top entry first:
    most lists end in a nonzero, and a call would cost more than the test."""
    del a[len(a) - len(list(itertools.takewhile(operator.not_,
                                                 reversed(a)))):]


def _coerced(op):
    """The binary operator op(self, other) of a ring element class, with
    `other` coerced by `self._coerce_other`: NotImplemented where that gives
    None.  The test is `is None`, since a coerced operand may be index 0."""

    @functools.wraps(op)
    def coerced(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return op(self, o)

    return coerced


class _Keyed:
    """`==` and `hash` by the `_key` and `_hash = hash(_key)` each
    structure sets when built."""

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


def _rendered(self):
    """`__repr__` of the ring element classes: the value's grammar text."""
    from . import grammar

    return grammar.render(self)


def _power(x, e, one, mul):
    """x^e for an int e >= 0 by square-and-multiply, starting from `one`,
    with no square after the top bit, which no later bit would use."""
    if e < 0:
        # -1 >> 1 is -1: the loop below would never end
        raise DomainError("powers must be non-negative")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _vector_arithmetic(p, degree, modulus_digits):
    """(mul, to_vec, to_index) of F_p[z]/(m) on coefficient vectors packed
    into ints, on which `_generator` takes its powers and `IndexKernel`
    forms the images of the basis under the generator.

    In characteristic 2 a vector is the packed int of its bits, which is the
    element index itself, and products are carry-less.  Otherwise digit i of
    the index sits in slot i, of s bits (Kronecker substitution): one int
    product gives every coefficient of a product of polynomials, s being
    wide enough that none carries into the next slot, even after the top
    coefficients are folded back through the packed z^(degree + k) mod m.
    """
    if p == 2:
        m = sum(c << i for i, c in enumerate(modulus_digits))
        top = 1 << degree

        def mul(a, b):
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= m
            return acc

        def same(a):
            return a

        return mul, same, same
    # a folded slot holds at most (2 degree - 1) (p - 1)^2
    s = (2 * degree * (p - 1) ** 2).bit_length()
    slot, width = (1 << s) - 1, s * degree
    shifts = range(0, width, s)
    weights = [p ** i for i in range(degree)]

    def pack(digits):
        return sum(d << sh for d, sh in zip(digits, shifts))

    def digits(a):
        return [(a >> sh & slot) % p for sh in shifts]

    # folds[k] = z^(degree + k) mod m, from z^degree, the negated low part
    # of the modulus
    red = [(-c) % p for c in modulus_digits[:degree]]
    folds, r = [], red
    for _ in range(degree - 1):
        folds.append(pack(r))
        t = r[-1]
        r = [(x + t * y) % p for x, y in zip([0] + r[:-1], red)]
    low = (1 << width) - 1

    def mul(a, b):
        c = a * b
        acc = c & low
        c >>= width
        for f in folds:
            acc += (c & slot) % p * f
            c >>= s
        return pack(digits(acc))

    def to_index(a):
        return sum(d * w for d, w in zip(digits(a), weights))

    return mul, (lambda i: pack(_digits(i, p, degree))), to_index


def _norm(p, m, c):
    """N(c) = Res(m, c) in F_p, for the monic modulus m of degree n and a
    nonzero c of degree < n, both ascending digit lists (c may end in
    zeros): the product of c over the n roots of m, c^((p^n - 1)/(p - 1)).

    Euclid's algorithm on the pair: for A = Q B + R of degrees a, b and r,
    Res(A, B) = (-1)^(ab) lc(B)^(a - r) Res(B, R), since A = R at each
    root of B; at a constant B, Res(A, B) = B^a.  A zero R would be a
    common factor, which an irreducible m and a nonzero c never have.
    """
    a, b = list(m), list(c)
    if not b[-1]:
        _trim(b)
    res = 1
    while len(b) > 1:
        # a mod b in place, by the inverse of b's lead
        nb, inv = len(b) - 1, pow(b[-1], -1, p)
        for k in range(len(a) - 1 - nb, -1, -1):
            t = a[k + nb] * inv % p
            if t:
                for j in range(nb):
                    a[k + j] = (a[k + j] - t * b[j]) % p
        da, r = len(a) - 1, a[:nb]
        if not r[-1]:
            _trim(r)
        if da & nb & 1:
            res = -res
        res = res * pow(b[-1], da - len(r) + 1, p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _generator(p, degree, modulus_digits):
    """The least primitive index of F_p[z]/(m), m the monic modulus_digits
    of the given degree; in a proper extension no element of F_p is
    primitive, so the candidates start at p.

    A candidate c is primitive when c^((p^n - 1)/r) != 1 for each prime
    r | p^n - 1.  For r | p - 1 that power is N(c)^((p - 1)/r), N(c) =
    c^((p^n - 1)/(p - 1)) being the norm to F_p, which `_norm` reads off
    c's digits by one resultant: the same test in plain ints mod p, and so
    the same generator.  Only the primes r that do not divide p - 1 take
    a power of c, on `_vector_arithmetic`.  In characteristic 2 no prime
    divides p - 1, and in a prime field every prime does, with N(c) = c.
    """
    m1 = p ** degree - 1
    by_norm, by_power = [], []
    for r in _prime_divisors(m1):
        if (p - 1) % r:
            by_power.append(m1 // r)
        else:
            by_norm.append((p - 1) // r)
    mul, to_vec, to_index = _vector_arithmetic(p, degree, modulus_digits)
    one = to_vec(1)
    for cand in range(p if degree > 1 else 1, m1 + 1):
        if by_norm:
            n = _norm(p, modulus_digits, _digits(cand, p, degree))
            if any(pow(n, e, p) == 1 for e in by_norm):
                continue
        c = to_vec(cand)
        if all(to_index(_power(c, e, one, mul)) != 1 for e in by_power):
            return cand


def _chunk(p, degree):
    """P = p^(degree // 2).  An index of F_(p^degree) is (t*P + r)*P + l
    with r, l < P and t < p^(degree % 2): the r and l chunks add on the
    P*P-entry `_digit_sums` table, which has at most card entries, and t
    adds mod p."""
    return p ** (degree // 2)


def _digit_sums(p, P):
    """The flat table s[a * P + b], for a, b < P a power of p, of the
    digit-wise sums mod p of a and b in base p: on a chunk of the digits of
    an index, the digits of the sum of two elements."""
    s, n, digit = [0], 1, list(range(p))
    while n < P:
        # a = a0 + p*a1 and b = b0 + p*b1, with a1, b1 < n: row a is the
        # low digits (a0 + b0) % p, range(p) turned by a0, plus p times
        # row a1 of the last level with each entry repeated for b0 < p
        tiles = [(digit[a0:] + digit[:a0]) * n for a0 in range(p)]
        rows, high = [], [0] * (n * p)
        for a1 in range(0, n * n, n):
            scaled = [p * x for x in s[a1:a1 + n]]
            for b0 in range(p):
                high[b0::p] = scaled
            for tile in tiles:
                rows += map(operator.add, tile, high)
        s = rows
        n *= p
    return s


@functools.lru_cache(maxsize=None)
def _abs_tables(p, degree):
    """The `IndexKernel` of F_(p^degree): one per absolute field."""
    return (_Char2Kernel if p == 2 else _ZechKernel)(
        p, degree, _least_irreducible(p, 1, degree))


@functools.lru_cache(maxsize=None)
def _least_irreducible(p, k, m):
    """The first monic irreducible of degree m over F_(p^k), as an ascending
    tuple of element indices.

    Digit i of a running index is the coefficient of y^i, so the leading
    coefficients change slowest: the order is lexicographic on the
    coefficients read from the leading end down, comparing by index.  Every
    tower instance of F_(p^k) shares one kernel and its indices, so the
    answer depends on (p, k, m) alone.  At m = 1 the first candidate, y,
    is taken untested: F_p's own kernel is built from it.
    """
    card = p ** k
    check_cap("extension", card, m)
    if m == 1:
        return (0, 1)
    test = _abs_tables(p, k).is_irreducible
    for i in range(card ** m):
        f = _digits(i, card, m) + [1]
        if test(f):
            return tuple(f)


class IndexKernel:
    """The absolute field F_p[z]/(m) on element indices: its tables, scalars,
    and polynomials as ascending index lists with no trailing zeros ([] is 0).

    Products read the log/exp tables.  Sums are the field kind's own: XOR in
    characteristic 2 and Zech logarithms otherwise, a prime field being the
    degree-1 case.  A subclass per kind gives `_powers`, the walk that
    builds the tables, `_add` and `_neg`, `_add_terms(a, b)`, the sum of a
    and b term by term for len(a) >= len(b), and the one row primitive the
    polynomial loops run on: `_addmul(dst, off, c, row)`, which adds c
    times the row into dst at offset off.  The row of a polynomial has one
    form for every kind, `_row`: the (position, log) pairs of its nonzero
    terms, so a sparse divisor or factor costs its nonzero terms alone.
    Every polynomial operation over a finite field runs here, with no
    FieldElement built in between.

    The tables and their layout are private to `fields`.  Other modules
    use the scalar operations, which every `FiniteField` of this absolute
    field takes as its own `_add`, `_neg`, `_mul`, `_inv` and `_pow`, the
    kernel's `_root`, and the public methods: the polynomial ones, the slot
    vectors, `embedding`, `span`, `evaluate` and `dilate`, public so that
    `perfbench`'s span tracer reports them as spans of their own.  The
    package does not export the class; `fields._abs_tables` builds one per
    absolute field.
    """

    def __init__(self, p, degree, modulus_digits):
        self.p = p
        self.degree = degree
        self.card = n = p ** degree
        self.m1 = m1 = n - 1
        self.modulus_digits = modulus_digits
        self._embeddings, self._emb_logs, self._extension_roots = {}, {}, {}
        # the least primitive index, tested by its norm to F_p for each
        # prime r | p - 1 (c^((card-1)/r) = N(c)^((p-1)/r), so the same
        # index as by powers of c alone) and by a power for the others
        self.generator = gen = _generator(p, degree, modulus_digits)
        # x -> x * gen is F_p-linear: the kind's walk tabulates it from the
        # images z^j * gen of the basis and reads one power per step
        mul, to_vec, to_index = _vector_arithmetic(p, degree, modulus_digits)
        g = to_vec(gen)
        exp, log = self._powers(
            [to_index(mul(to_vec(p ** j), g)) for j in range(degree)])
        # tuples: a collection stops tracking a tuple of ints once it has
        # seen it, where it would traverse a list of them every time
        self.log = tuple(log)
        # exp twice over, so a sum of two logs needs no % m1
        self.exp = tuple(exp) * 2
        # zech[k] = log(1 + g^k) in odd characteristic: 1 + e adds 1 to the
        # lowest digit of e, and 1 + (p - 1) is 0
        self.zech = None if p == 2 else tuple([
            log[e - e % p + (e + 1) % p] if e != p - 1 else -1 for e in exp])
        self.half = m1 // 2  # log of -1 in odd characteristic
        # the card x card table of index sums, built on first use
        self._sums = None
        del exp, log
        # A collection untracks a tuple of ints the first time it sees
        # one, and that pass over large tables (0.3-0.8 ms at F_(3^8) and
        # F_(2^12)) would fall on whichever later call set off the next
        # young collection.  Pay it here, where the tables are built, and
        # only for tables far above the young threshold: a collection
        # after every build would promote more and move an older one
        # into later calls instead.
        if gc.isenabled() and len(self.exp) > 10 * gc.get_threshold()[0]:
            gc.collect(0)

    def embedding(self, k):
        """emb[c], the index here of the element of index c of F_(p^k), for
        k dividing the degree.  The embedding sends the root z of F_(p^k)'s
        table modulus to its designated root here, the least of its roots,
        read off the conjugates over F_p of one root.  Memoised per k."""
        emb = self._embeddings.get(k)
        if emb is None:
            root = 1
            if k > 1:
                root = self.designated_root(
                    list(_abs_tables(self.p, k).modulus_digits), self.p)
            # digit i of c is the coefficient of z^i, which maps to root^i
            emb = self._embeddings[k] = self.span(
                [[self._mul(c, self._pow(root, i)) for c in range(self.p)]
                 for i in range(k)])
        return emb

    def extension_root(self, k):
        """The designated root here of `_least_irreducible(p, k, n)`, the
        modulus over F_(p^k) of this field of degree k*n, moved in by
        `embedding(k)`.  Every tower instance of F_(p^k) builds its degree-n
        extension with that modulus and asks for that root, so it is
        memoised per k, as `embedding` is: one root per divisor of the
        degree, whatever other moduli fields are built with."""
        root = self._extension_roots.get(k)
        if root is None:
            emb = self.embedding(k)
            root = self._extension_roots[k] = self.designated_root(
                [emb[c] for c in _least_irreducible(self.p, k,
                                                    self.degree // k)],
                self.p ** k)
        return root

    def evaluate(self, rows, x, k=None):
        """[index of sum(c * x^e)] over the term lists of `rows`, one value
        per list: each term is an (e, c) pair, e any int and c a nonzero
        index here or, for a given k, of F_(p^k) read through
        `embedding(k)`, whose logs are memoised.  x = 0 raises
        DomainError."""
        if not x:
            raise DomainError("evaluation at 0")
        log, exp, m1, add = self.log, self.exp, self.m1, self._add
        logs = log if k is None else self._emb_logs.get(k)
        if logs is None:
            logs = self._emb_logs[k] = [log[c] for c in self.embedding(k)]
        # c * x^e = exp[log c + e log x]; both logs are < m1
        lx, out = log[x], []
        for terms in rows:
            acc = 0
            for e, c in terms:
                acc = add(acc, exp[logs[c] + e * lx % m1])
            out.append(acc)
        return out

    def dilate(self, a, x):
        """[a_j * x^j] over the index list a, for a nonzero index x: the
        polynomial a(x s).  x = 0 raises DomainError."""
        if not x:
            raise DomainError("dilation by 0")
        log, exp, m1, lx = self.log, self.exp, self.m1, self.log[x]
        return [exp[log[c] + j * lx % m1] if c else 0
                for j, c in enumerate(a)]

    def powers(self, x, es):
        """[x^e] over the ints es, for a nonzero index x: one table read
        each.  x = 0 raises DomainError."""
        if not x:
            raise DomainError("powers of 0")
        exp, m1, lx = self.exp, self.m1, self.log[x]
        return [exp[e * lx % m1] for e in es]

    def span(self, rows):
        """[sum_j rows[j][d_j]] over every digit tuple d, at the index whose
        digits in base len(rows[0]), lowest first, are d: the map of a basis
        change, rows[j] holding the multiples of the j-th basis element."""
        out = [0]
        add = self._add
        for row in rows:
            out = [add(e, x) for x in row for e in out]
        return out

    # scalars ----------------------------------------------------------------

    def _mul(self, i, j):
        if i and j:
            return self.exp[self.log[i] + self.log[j]]
        return 0

    def _inv(self, i):
        if not i:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[self.m1 - self.log[i]]

    def _pow(self, i, e):
        if not i:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.exp[self.log[i] * e % self.m1]

    def _root(self, i, n):
        # an n-th root of i, or None, for n | m1: x^n = g^l is solvable
        # exactly when n | l
        if not i:
            return 0
        l = self.log[i]
        return None if l % n else self.exp[l // n]

    def sums(self):
        """The table of index sums: sums()[i][j] is the index of i + j."""
        if self._sums is None:
            add, n = self._add, self.card
            self._sums = tuple(tuple([add(i, j) for j in range(n)])
                               for i in range(n))
        return self._sums

    def sum_copies(self, copies):
        """The term map {key: index} of sum(c * m * u) over the (u, c, shift)
        triples: u a term map of nonzero indices, m the monomial whose key is
        `shift` (keys add under products) and c a nonzero index: the generic
        u_i and U_i over F_q, the key identity and `MultiPoly`.  Above
        _SUMS_CARD_MAX elements it adds with `_add` and scales by log/exp."""
        out = {}
        if self.card > _SUMS_CARD_MAX:
            add, log, exp = self._add, self.log, self.exp
            for u, c, shift in copies:
                lc = log[c]
                for key, x in u.items():
                    k = key + shift
                    out[k] = add(out.get(k, 0), exp[lc + log[x]])
            return {k: x for k, x in out.items() if x}
        q = self.card
        add = self.sums()
        # the copies share a few scales, mostly 1 and -1
        scales = {1: list(range(q))}
        for u, c, shift in copies:
            scale = scales.get(c)
            if scale is None:
                scale = scales[c] = self.scale(c, range(q))
            for key, x in u.items():
                k = key + shift
                out[k] = add[out.get(k, 0)][scale[x]]
        return {k: x for k, x in out.items() if x}

    # polynomials ------------------------------------------------------------

    def scale(self, c, a):
        if not c:
            return []
        if c == 1:
            return list(a)
        log, exp = self.log, self.exp
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in a]

    def add_polys(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = self._add_terms(a, b)
        if out and not out[-1]:
            _trim(out)
        return out

    def sub_polys(self, a, b):
        neg = self._neg
        return self.add_polys(a, [neg(x) for x in b])

    # slot vectors -----------------------------------------------------------
    # A vector holds one index per slot, in a form that is the kernel's
    # own: here an index list with no trailing zeros, in `_Char2Kernel` one
    # packed int.  `vector` and `vector_list` convert at the edge; in
    # between a vector is only scaled, added and placed at a slot offset.
    # The direct route runs on them, one slot per digit mask.

    def vector(self, a):
        """The vector whose slots hold the index list a (no trailing
        zeros)."""
        return a

    vector_scale = scale
    vector_add = add_polys

    def vector_place(self, a, off):
        """a moved up by off slots."""
        return [0] * off + a if a else []

    def vector_list(self, a):
        """The index list of a's slots, with no trailing zeros."""
        return a

    def compose_in_S(self, coeffs, q):
        """R(Y) for R = sum_n coeffs[n] x^n and Y(y) = y + y^2 + ... + y^q,
        q a power of p, as an index list in y with no trailing zeros: the
        substitution that builds the companion H.

        S = (s^q - s)^(q-1) is the sum of s^(k(q-1)) over k = 1..q, so
        S = Y(y) with y = s^(q-1), and R(S) is R(Y) with y stretched to
        s^(q-1); the caller places it on that stride.  Y has coefficients
        in F_p, which the Frobenius x -> x^p fixes, and a p-th power of a
        sum is the sum of the p-th powers, so Y(y)^(q^i) = Y(y^(q^i)): a
        power q^i of Y costs no product.

        For m = 1, q, q^2, ... write R = sum_(r<q) x^(rm) R_r over
        contiguous chunks R_r of length m.  Then
        R(Y) = sum_(r<q) Y(y^m)^r * R_r(Y), so the composition runs bottom
        up: at level m each group of q consecutive chunk results, those of
        level m/q (the coefficients themselves at m = 1), is summed by
        Horner's rule in Y(y^m), whose q ones sit at y^m, y^(2m), ...,
        y^(qm).  Its only products are by Y(y^m), each one `times_Y`: q
        placed copies, with element adds only where they overlap.  A
        product is 0 below y^m, so the chunk result added to it is placed
        there and added only above.  The last level's result is R(Y).  Odd
        characteristic runs this form; `_Char2Kernel` overrides it with a
        packed form in s that makes no product.
        """
        add, times_Y = self._add_terms, self.times_Y
        parts = [[c] if c else [] for c in coeffs]
        m = 1
        while len(parts) > 1:
            level = []
            for i in range(0, len(parts), q):
                acc = []
                for part in reversed(parts[i:i + q]):
                    if not acc:
                        acc = part
                        continue
                    # acc * Y(y^m) is 0 below y^m, where part is placed;
                    # the rest of part, of degree at most q(m - 1), adds
                    # below the product's lead, of degree at least q*m
                    acc, n = times_Y(acc, m, q), len(part)
                    acc[:min(n, m)] = part[:m]
                    if n > m:
                        acc[m:n] = add(acc[m:n], part[m:])
                level.append(acc)
            parts = level
            m *= q
        return parts[0] if parts else []

    def times_Y(self, a, m, q):
        """a * Y(y^m) for Y(y) = y + y^2 + ... + y^q: q copies of a, placed
        at y^m, y^(2m), ..., y^(qm) with coefficient 1, the product of
        `compose_in_S` and of `universal.U_mod_prime`.  The F_p element 1
        has index 1 in every field, so this serves every field.

        For n = len(a) <= 2m, as in both callers, a slot meets at most two
        copies.  Split a into lo = a[:m], padded to m slots, and hi = a[m:]:
        the product is m zeros, lo, q - 1 blocks of lo + hi (hi added on
        lo's lowest n - m slots, by the kind's `_add_terms`) and hi, cut to
        q*m + n slots.  That is one add of n - m slots and one list
        repetition; for n <= m nothing is added.  Past 2m each copy is
        placed in turn, and `_add_terms` adds only on the n - m slots where
        it meets what the copies below it wrote, at any depth of overlap.
        The top slot is a's lead, so the product has no trailing zeros."""
        n = len(a)
        if not n:
            return []
        if n <= 2 * m:
            lo, hi = a[:m] + [0] * (m - n), a[m:]
            mid = self._add_terms(lo, hi)
            return ([0] * m + lo + mid * (q - 1) + hi)[:q * m + n]
        ov, add = n - m, self._add_terms
        out = [0] * (q * m + n)
        out[m:m + n] = a
        low, high = a[:ov], a[ov:]
        for k in range(2 * m, q * m + 1, m):
            out[k:k + ov] = add(out[k:k + ov], low)
            out[k + ov:k + n] = high
        return out

    def mul_polys(self, a, b):
        if not a or not b:
            return []
        if len(b) == 1:
            return self.scale(b[0], a)
        if len(a) == 1:
            return self.scale(a[0], b)
        # one _addmul of a's row per nonzero term of b: the fewer calls
        # are the way round with the more nonzero terms in a's row (a
        # q^k-stretched operand is mostly zeros, which `compress` skips
        # in C)
        if len(a) - a.count(0) < len(b) - b.count(0):
            a, b = b, a
        row = self._row(a)
        out = [0] * (len(a) + len(b) - 1)
        addmul = self._addmul
        for i in itertools.compress(range(len(b)), b):
            addmul(out, i, b[i], row)
        return out

    def _row(self, a):
        """The (position, log) pairs of the nonzero terms of a: the form of
        a polynomial that `_addmul` adds into a list."""
        log = self.log
        return [(i, log[a[i]]) for i in itertools.compress(range(len(a)), a)]

    def _divisor(self, b):
        """The row of -b/lead(b) without its lead term, and 1/lead(b)."""
        inv = self._inv(b[-1])
        return self._row(self.scale(self._neg(inv), b[:-1])), inv

    def _reduce(self, rem, n, row):
        """Reduce rem in place modulo the degree-n divisor with `_divisor`
        row `row`; returns the quotient by that divisor made monic."""
        addmul = self._addmul
        quot = [0] * max(len(rem) - n, 0)
        for k in range(len(rem) - n - 1, -1, -1):
            top = rem[k + n]
            if top:
                quot[k] = top
                addmul(rem, k, top, row)
        del rem[n:]
        if rem and not rem[-1]:
            _trim(rem)
        return quot

    def divmod_polys(self, a, b):
        """(quotient, remainder) of a by b != 0."""
        row, inv = self._divisor(b)
        rem = list(a)
        quot = self._reduce(rem, len(b) - 1, row)
        return (quot if inv == 1 else self.scale(inv, quot)), rem

    def mod(self, a, b):
        return self.divmod_polys(a, b)[1]

    def monic(self, a):
        return a if a[-1] == 1 else self.scale(self._inv(a[-1]), a)

    def gcd(self, a, b):
        """The monic gcd of a and b, not both zero."""
        while b:
            a, b = b, self.mod(a, b)
        return self.monic(a)

    def powmod(self, g, e, f):
        """g^e mod f, for f != 0 and e >= 0."""
        row, _ = self._divisor(f)
        return self._powmod(g, e, len(f) - 1, row)

    def _powmod(self, g, e, n, row):
        # g^e modulo the degree-n divisor whose `_divisor` row is `row`
        reduce, mul = self._reduce, self.mul_polys

        def mulmod(a, b):
            out = mul(a, b)
            reduce(out, n, row)
            return out

        one = [1]
        reduce(one, n, row)
        g = list(g)
        reduce(g, n, row)
        return _power(g, e, one, mulmod)

    def _frobenius(self, h, n, row):
        """h^p modulo the degree-n divisor whose `_divisor` row is `row`.

        In characteristic p, (sum h_j x^j)^p = sum h_j^p x^(p j): the p-th
        power is a stretch, and reducing it costs (p - 1) deg h division
        steps.  Square-and-multiply costs about 2 log2(p) products and
        reductions, which is less from p = 13 on.
        """
        p, m1, log, exp = self.p, self.m1, self.log, self.exp
        if p > 11:
            return self._powmod(h, p, n, row)
        if not h:
            return []
        out = [0] * (p * (len(h) - 1) + 1)
        out[::p] = [exp[log[c] * p % m1] if c else 0 for c in h]
        self._reduce(out, n, row)
        return out

    def _frobenius_powers(self, g, count):
        """[x^(p^i) mod g for i in 0..count], for g != 0."""
        n = len(g) - 1
        row, _ = self._divisor(g)
        t = [0, 1]
        self._reduce(t, n, row)
        out = [t]
        for _ in range(count):
            out.append(self._frobenius(out[-1], n, row))
        return out

    def is_irreducible(self, f):
        """Rabin's test, for f of degree n >= 2: x^(Q^n) = x mod f, Q the
        card, and gcd(x^(Q^(n/r)) - x, f) = 1 for each prime r | n.

        Two kinds of reducible f are refused before any Frobenius power is
        formed: those with f(0) = 0, and p-th powers, whose exponents with
        a nonzero coefficient are all divisible by p (over a perfect field
        sum c_j x^(pj) = (sum c_j^(1/p) x^j)^p).  The powers x^(Q^i) are
        formed in turn, and a gcd taken as its power is reached stops the
        test at a factor of degree dividing n/r, with the later powers
        unformed.
        """
        p, k = self.p, self.degree
        if not f[0] or not any(c for j, c in enumerate(f) if j % p):
            return False
        n = len(f) - 1
        row, _ = self._divisor(f)
        checks = {n // r for r in _prime_divisors(n)}
        x = t = [0, 1]
        later = []
        for i in range(1, n + 1):
            for _ in range(k):
                t = self._frobenius(t, n, row)
            if i in checks:
                # a gcd costs about 4 to 7 Frobenius steps, so where it could
                # spare at most 6 it waits for the test x^(Q^n) = x, which
                # refuses most reducible f by itself; but not at n = 2,
                # where every squarefree f passes that test
                if (n - i) * k <= 6 and n > 2:
                    later.append(t)
                elif len(self.gcd(self.sub_polys(t, x), f)) != 1:
                    return False
        return t == x and all(len(self.gcd(self.sub_polys(u, x), f)) == 1
                              for u in later)

    def distinct_roots(self, g):
        """The distinct roots of g != 0 here, ascending: the linear parts
        that `split` breaks `root_part(g)` into, with each part's Frobenius
        powers reduced modulo it, once, from its parent's degree."""
        roots, parts = [], [self.root_part(g)]
        while parts:
            P, i, frob = parts.pop()
            if len(P) == 2:
                roots.append(self._neg(P[0]))
            elif len(P) > 2:
                n = len(P)
                frob = [f if len(f) < n else self.mod(f, P) for f in frob]
                parts += self.split((P, i, frob))
        return sorted(roots)

    def one_root(self, g):
        """(the number of distinct roots of g != 0 here, one of them or
        None), by following the least part of each trace split."""
        part = self.root_part(g)
        count = len(part[0]) - 1
        while len(part[0]) > 2:
            part = min(self.split(part), key=lambda pt: len(pt[0]))
        return count, self._neg(part[0][0]) if count else None

    def designated_root(self, g, Q):
        """The least root of g here if g, of degree n, is irreducible over
        the subfield F_Q, and None if not: exactly then the conjugates
        r^(Q^i), i < n, of the root r of `one_root` are n distinct roots."""
        r, n = self.one_root(g)[1], len(g) - 1
        if r is None:
            return None
        conjugates = {self._pow(r, Q ** i) for i in range(n)}
        return min(conjugates) if len(conjugates) == n else None

    def root_part(self, g):
        """(P, 0, frob) for g != 0: P = gcd(x^card - x, g), one linear factor
        per root of g here, and frob[j] = x^(p^j) mod g for j < degree."""
        frob = self._frobenius_powers(g, self.degree)
        return self.gcd(self.sub_polys(frob.pop(), [0, 1]), g), 0, frob

    def split(self, part):
        """The parts (Q, i', frob) that a part (P, i, frob) splits into, for
        deg P >= 2 and frob[j] = x^(p^j) modulo a multiple of P: the gcds of
        P with Tr(beta*x) - c, c in F_p, for the first of beta = z^i,
        z^(i+1), ... that splits P.  Two roots differ in some Tr(beta*root),
        as the trace form is nondegenerate, so beta stays in the F_p-basis.
        Deterministic; see von zur Gathen & Gerhard, Modern Computer
        Algebra, ch. 14."""
        P, i, frob = part
        p = self.p
        while True:
            beta, i = p ** i, i + 1
            t = []
            for j, f in enumerate(frob):
                t = self.add_polys(t, self.scale(self._pow(beta, p ** j), f))
            # P is the product of its gcds with t - c over c in F_p; the
            # last one is what the others leave of P
            pieces, rest = [], P
            for c in range(p - 1):
                piece = self.gcd(self.sub_polys(t, [c] if c else []), rest)
                if len(piece) > 1:
                    pieces.append(piece)
                    rest = self.divmod_polys(rest, piece)[0]
                    if len(rest) == 1:
                        break
            if len(rest) > 1:
                pieces.append(rest)
            if len(pieces) > 1:
                return [(Q, i, frob) for Q in pieces]

    def frobenius_orbits(self, q, d):
        """(minimal polynomial, least element) of each orbit of x -> x^q of
        length d, for q^d the card, in order of the orbits' least logs.

        The minimal polynomial prod (y - x) over the orbit is an ascending
        index list with its coefficients in the subfield F_q, the fixed
        field of x -> x^q.  x^q is exp[log x * q mod m1], so the walk reads
        only logs; 0, alone in its orbit, is left out.
        """
        m1, exp = self.m1, self.exp
        seen = bytearray(m1)
        out = []
        for start in range(m1):
            if seen[start]:
                continue
            orbit = [start]
            j = start * q % m1
            while j != start:
                orbit.append(j)
                j = j * q % m1
            for j in orbit:
                seen[j] = 1
            if len(orbit) == d:
                roots = [exp[j] for j in orbit]
                f = [1]
                for x in roots:
                    # f * (y - x) = y f - x f
                    f = self.add_polys([0] + f, self.scale(self._neg(x), f))
                out.append((f, min(roots)))
        return out


@functools.lru_cache(maxsize=64)
def _half_run_mask(run, n):
    """The int of n little-endian bytes that are 0xff in the upper half of
    each aligned run of 2 * run bytes and 0 elsewhere: a mask of
    `_Char2Kernel.compose_in_S`, memoised per (run, n).  A composition
    reads at most log2(q) masks per base-q level, 12 in all at (64, 2)
    and at (16, 3), so the bound holds the masks of several shapes; the
    largest, at (64, 2), are about 0.5 MB each."""
    reps = n // (2 * run) + 1
    return int.from_bytes(((bytes(run) + b"\xff" * run) * reps)[:n],
                          "little")


class _Char2Kernel(IndexKernel):
    """F_(2^k): sums are XOR, and `_addmul` XORs one table read per
    (position, log) pair of the row.

    An index's bits are its coordinates in the basis z^j, so a sum of
    indices is their XOR, with no carry from one to the next.  A packed int
    holds one index per slot of 8 bits up to 256 elements and 16 up to
    CARD_CAP (a kernel for larger fields must widen it), lowest slot
    first: `_pack` and `_unpack` are the one home of that layout, which
    `compose_in_S` and the vectors share.  A vector is such an int: an add
    is ^, a place is <<, and `vector_scale` takes k passes over the int."""

    _add = staticmethod(operator.xor)
    # -i = i in characteristic 2
    _neg = staticmethod(operator.pos)
    vector_add = staticmethod(operator.xor)

    def __init__(self, p, degree, modulus_digits):
        super().__init__(p, degree, modulus_digits)
        self._typecode = "B" if self.card <= 256 else "H"
        self._slot_bits = 8 * array.array(self._typecode).itemsize
        # 1 in the lowest bit of each slot, for as many slots as the
        # longest vector scaled so far
        self._ones = 0

    def _pack(self, slots):
        """The int whose slots, lowest first, hold the indices `slots`."""
        slots = array.array(self._typecode, slots)
        if sys.byteorder == "big":
            slots.byteswap()
        return int.from_bytes(slots, "little")

    def _unpack(self, X):
        """The slots of the packed int X, up to its top nonzero slot, as an
        array of indices."""
        bits = self._slot_bits
        out = array.array(self._typecode, X.to_bytes(
            -(-X.bit_length() // bits) * (bits // 8), "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out

    def vector(self, a):
        return self._pack(a)

    def vector_list(self, a):
        return self._unpack(a).tolist()

    def vector_place(self, a, off):
        return a << self._slot_bits * off

    def vector_scale(self, c, a):
        """c * a on packed slots: the XOR over j < k of a's bit-j plane,
        (a >> j) & ones with one 0 or 1 per slot, times the index of
        c * z^j, which stays inside its slot.  This is the bitsliced scalar
        product of Boothby and Bradshaw (arXiv:0901.1413), its slices
        interleaved in slots."""
        if not c or not a:
            return 0
        if c == 1:
            return a
        if self._ones.bit_length() < a.bit_length():
            self._ones = self._pack(
                [1] * (2 * a.bit_length() // self._slot_bits + 1))
        ones, mul = self._ones, self._mul
        out = 0
        for j in range(self.degree):
            out ^= (a >> j & ones) * mul(c, 1 << j)
        return out

    def _powers(self, images):
        """(exp, log) of the powers of the generator, whose products with
        the basis z^j are `images`: the product of x with the generator is
        the XOR of the images of its low and of its high bits, each side
        tabulated as the `span` of its half of the images: `_add` is XOR
        before any table exists."""
        h = self.degree // 2
        low = self.span([[0, v] for v in images[:h]])
        high = self.span([[0, v] for v in images[h:]])
        mask, m1 = (1 << h) - 1, self.m1
        exp, log = [0] * m1, [0] * self.card
        cur = 1
        for i in range(m1):
            exp[i] = cur
            log[cur] = i
            cur = low[cur & mask] ^ high[cur >> h]
        assert cur == 1
        return exp, log

    def compose_in_S(self, coeffs, q):
        """R(Y) as in `IndexKernel.compose_in_S`, by additive composition
        in s on one packed int: log2(q) mask-shift-XOR passes per base-q
        level, and no field product.  R(S) is a polynomial in s^(q-1), and
        its every (q-1)-th slot is R(Y).

        Here S = P^(q-1) with P = s^q + s, so R(S) = G(P) for
        G(x) = R(x^(q-1)) = sum_j g_j x^j.  For m a power of q,
        P^m = s^(qm) + s^m, so P^j is the product over the base-q digits j_l
        of j of (s^(q m) + s^m)^(j_l), m = q^l.  By Lucas's theorem
        binom(j_l, e) is odd iff the bits of e lie inside those of j_l, so
        that factor is s^(qm j_l) times the product over the bits b of j_l
        of (1 + s^(-(q-1)bm)).  This is the Taylor expansion at x^q - x of
        Gao and Mateer (Additive Fast Fourier Transforms over Finite
        Fields, IEEE Trans. Inf. Theory 56(12), 2010) run backwards.

        So put g_j at s^(qj), the top term of P^j, and apply the factors
        level by level, m = 1, q, q^2, ..., and bit by bit, b = 1, 2, ...,
        q/2: X ^= (X & M_b) >> (q-1)bm slots, where M_b selects the blocks
        of qm slots whose index has bit b set, the upper half of each
        aligned run of 2b blocks.  The masks find the right terms: at the
        start of level m what is left of g_j's term is s^(qmJ) P^(j mod m),
        J = j // m, of degree below qm(J + 1), so it lies in block J.  A
        copy that the level's bits e != 0 below b have shifted down lies in
        block J - e, or spills into block J - e + 1.  J - e has e's bits
        cleared, so the carry of the + 1 stops below b, and bit b of the
        block index is that of J.  Indices add by XOR, with no carry between
        slots.

        X has the slots of `_pack`.  Each mask is `_half_run_mask`, cut to
        the bytes of the slot array: Python ints have no leading zeros, so a
        mask for whole runs could be up to q times longer.  That length
        depends on q and len(coeffs) alone, so every composition of one
        shape, as at each prime of one (q, d), shares its masks.
        """
        if len(coeffs) <= 1:
            return [c for c in coeffs if c]
        top = (q - 1) * (len(coeffs) - 1)  # the degree of G
        typecode = self._typecode
        slots = array.array(typecode, [0]) * (q * top + 1)
        slots[::q * (q - 1)] = array.array(typecode, coeffs)
        X = self._pack(slots)
        size = slots.itemsize
        n = len(slots) * size
        m = 1
        while m <= top:
            b = 1
            while b < q and b * m <= top:
                # bytes per half-run of 2b blocks
                mask = _half_run_mask(b * q * m * size, n)
                X ^= (X & mask) >> ((q - 1) * b * m * 8 * size)
                b *= 2
            m *= q
        # the top slot, on the stride, holds X's top bit: no trailing zeros
        return self._unpack(X)[::q - 1].tolist()

    def _add_terms(self, a, b):
        out = list(map(operator.xor, a, b))
        out += a[len(b):]
        return out

    def _addmul(self, dst, off, c, row):
        exp = self.exp
        lc = self.log[c]
        for i, v in row:
            dst[off + i] ^= exp[lc + v]


class _ZechKernel(IndexKernel):
    """F_(p^k), p odd: a + b = a * (1 + b/a), with the Zech logarithm
    zech[k] = log(1 + g^k), -1 where 1 + g^k = 0, which `_addmul` reads
    once per (position, log) pair of the row."""

    def _add(self, i, j):
        if not i:
            return j
        if not j:
            return i
        log = self.log
        li = log[i]
        z = self.zech[log[j] - li]
        return self.exp[li + z] if z >= 0 else 0

    def _neg(self, i):
        return self.exp[self.log[i] + self.half] if i else 0

    def _powers(self, images):
        """(exp, log) of the powers of the generator, whose products with
        the basis z^j are `images`, on indices alone.

        An index is (t*P + r)*P + l with P = `_chunk(p, degree)`, so t < p
        at odd degree and t = 0 at even.  The product of x with the
        generator is the digit-wise sum of that of its low part l and of
        its high part t*P + r, each tabulated split into its (t, r, l); the
        sum reads t off a 2p-entry list and r and l off `_digit_sums`.
        """
        p, m1 = self.p, self.m1
        h = self.degree // 2
        P = _chunk(p, self.degree)
        dsum = _digit_sums(p, P)
        tmod = [i % p for i in range(2 * p)]

        def span(vs):
            # the split of sum_j d_j * vs[j] at the index whose digits are d
            out = [(0, 0, 0)]
            for v in vs:
                t2, r2, l2 = v // (P * P), v // P % P, v % P
                # entry k + p^j is entry k plus vs[j]
                for k in range((p - 1) * len(out)):
                    t1, r1, l1 = out[k]
                    out.append((tmod[t1 + t2], dsum[r1 * P + r2],
                                dsum[l1 * P + l2]))
            return out

        # low holds (t, r*P, l*P) and tsum[i] = (i mod p)*P, so the next
        # (t*P + r, l) is two tuple reads and three table reads
        low = [(t, r * P, l * P) for t, r, l in span(images[:h])]
        high = span(images[h:])
        tsum = [t * P for t in tmod]
        exp, log = [0] * m1, [0] * self.card
        hi, lo = start = divmod(1, P)
        for i in range(m1):
            cur = hi * P + lo
            exp[i] = cur
            log[cur] = i
            t1, r1, l1 = low[lo]
            t2, r2, l2 = high[hi]
            hi = tsum[t1 + t2] + dsum[r1 + r2]
            lo = dsum[l1 + l2]
        assert (hi, lo) == start
        return exp, log

    def _add_terms(self, a, b):
        # `_add` per pair, written out
        log, exp, zech = self.log, self.exp, self.zech
        out = list(a)
        for k, y in enumerate(b):
            if y:
                x = out[k]
                if x:
                    lx = log[x]
                    z = zech[log[y] - lx]
                    out[k] = exp[lx + z] if z >= 0 else 0
                else:
                    out[k] = y
        return out

    def _addmul(self, dst, off, c, row):
        log, exp, zech, m1 = self.log, self.exp, self.zech, self.m1
        lc = log[c]
        for i, v in row:
            k = off + i
            lp = lc + v
            if lp >= m1:
                lp -= m1
            a = dst[k]
            if a:
                z = zech[log[a] - lp]
                dst[k] = exp[lp + z] if z >= 0 else 0
            else:
                dst[k] = exp[lp]


class FiniteField(_Keyed):
    """A finite field in a tower, with designated base-field cardinality q."""

    def __init__(self, p, base, modulus, q, gen_name, _token=None,
                 _root=None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use base_field() or the extension methods")
        self.p = p
        self.base = base
        self.q = q
        self.gen_name = gen_name
        # the base-field indices of the defining modulus
        self._modulus = modulus
        if base is None:
            self.degree = 1
            self.ext_degree = 1
            chain = ()
        else:
            self.ext_degree = len(modulus) - 1
            self.degree = base.degree * self.ext_degree
            chain = base._key[2] + (modulus,)
        self.card = p ** self.degree
        check_cap("field", self.card)
        k = self._kernel = _abs_tables(p, self.degree)
        self._add, self._neg, self._mul = k._add, k._neg, k._mul
        self._inv, self._pow = k._inv, k._pow
        self._ext_cache = {}
        self._coords = None
        self._elt_cache = {}
        # the grammar text of each index rendered so far (`grammar`): at
        # most one string per element, dropped with the field
        self._texts = {}
        self.zero = self.from_index(0)
        self.one = self.from_index(1)
        self._init_base_maps(_root)
        self._key = (p, self.degree, chain)
        self._hash = hash(self._key)

    def _init_base_maps(self, root):
        base = self.base
        if base is None:
            self.gen = self.one
            self._base_emb = None
            return
        self._base_emb = self._kernel.embedding(base.degree)
        if root is None:
            root = self._kernel.designated_root(
                [self._base_emb[c] for c in self._modulus], base.card)
            if root is None:
                raise DomainError(
                    "defining modulus is reducible over the base field")
        self.gen = self.from_index(root)

    @property
    def modulus_over_base(self):
        """The defining modulus over the base field, as elements; None for
        a prime field."""
        if self.base is None:
            return None
        return tuple(self.base._elements(self._modulus))

    # element-level API ------------------------------------------------------

    def from_index(self, i):
        if not 0 <= i < self.card:
            raise DomainError(f"index {i} out of range for field of size {self.card}")
        elt = self._elt_cache.get(i)
        if elt is None:
            elt = self._elt_cache[i] = FieldElement(self, i)
        return elt

    def _elements(self, idx):
        """The elements of the given indices.  The cache always holds 0, so
        every zero comes back as the shared `zero`."""
        cache = self._elt_cache
        try:
            return [cache[i] for i in idx]
        except KeyError:
            # build each missing index once, then read the list once
            for i in set(idx).difference(cache):
                self.from_index(i)
            return [cache[i] for i in idx]

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field is self:
                return v
            if v.field == self:
                return self.from_index(v.index)
            raise DomainError(f"cannot coerce element of {v.field!r} into {self!r}")
        if isinstance(v, int):
            return self.from_index(v % self.p)
        raise DomainError(f"cannot coerce {v!r} into {self!r}")

    def elements(self):
        for i in range(self.card):
            yield self.from_index(i)

    def extension(self, m, gen_name="b", q=None):
        """Extension of degree m with the deterministic smallest modulus."""
        if m < 1:
            raise DomainError("extension degree must be positive")
        # the search checks the cap before the new kernel is built
        modulus = _least_irreducible(self.p, self.degree, m)
        return self._extension_of_indices(
            tuple(modulus), gen_name, q,
            _abs_tables(self.p, self.degree * m).extension_root(self.degree))

    def extension_with_modulus(self, coeffs, gen_name="b", q=None, _root=None):
        """Extension defined by a given monic modulus over this field.

        A reducible modulus raises DomainError: the designated root, the
        least Frobenius conjugate of one root, must have deg conjugates
        (`IndexKernel.designated_root`).  A caller that knows the designated
        root of the modulus in the new field's tables (`extension`,
        `modulus.primes_of_degree`) passes its index as `_root`, which
        spares the root finding.
        """
        return self._extension_of_indices(
            tuple(self.coerce(c).index for c in coeffs), gen_name, q, _root)

    def _extension_of_indices(self, modulus, gen_name, q, _root):
        """`extension_with_modulus` of the modulus's coefficient indices, a
        tuple, with no element built."""
        if len(modulus) < 2:
            raise DomainError("modulus must have positive degree")
        if modulus[-1] != 1:
            raise DomainError("modulus must be monic")
        key = ("mod", modulus, gen_name, q)
        field = self._ext_cache.get(key)
        if field is None:
            field = FiniteField(self.p, self, modulus,
                                q if q is not None else self.q,
                                gen_name, _token=_FIELD_TOKEN, _root=_root)
            self._ext_cache[key] = field
        return field

    def embed_from_base(self, x):
        if self.base is None:
            raise DomainError("prime field has no base")
        return self.from_index(self._base_emb[self.base.coerce(x).index])

    def coords_over_base(self, x):
        """Decompose x as sum(c_j * gen^j) with c_j in the base field.

        On first use the field tabulates the forward map (c_j) -> sum(c_j *
        gen^j) with `IndexKernel.span` and keeps its inverse, so each call
        reads one table entry and splits it into base-|B| digits."""
        if self.base is None:
            raise DomainError("prime field has no base")
        return tuple(self.base._elements(self._coord_indices(
            self.coerce(x).index)))

    def _coord_indices(self, i):
        """The base-field indices of the coordinates of the index i, as
        `coords_over_base` gives them, for a field with a base."""
        if self._coords is None:
            g = self.gen.index
            table = self._kernel.span(
                [[self._mul(e, self._pow(g, j)) for e in self._base_emb]
                 for j in range(self.ext_degree)])
            self._coords = coords = [0] * self.card
            for c, x in enumerate(table):
                coords[x] = c
        return _digits(self._coords[i], self.base.card, self.ext_degree)

    def __repr__(self):
        if self.base is None:
            return f"GF({self.card})"
        return f"GF({self.card}) in {self.gen_name} over GF({self.base.card})"


_FIELD_TOKEN = object()


class FieldElement:
    __slots__ = ("field", "index")

    def __init__(self, field, index):
        self.field = field
        self.index = index

    def _coerce_other(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other.index
            return None
        if isinstance(other, int):
            return other % self.field.p
        return None

    @_coerced
    def __add__(self, j):
        return self.field.from_index(self.field._add(self.index, j))

    __radd__ = __add__

    @_coerced
    def __sub__(self, j):
        return self.field.from_index(self.field._add(self.index, self.field._neg(j)))

    @_coerced
    def __rsub__(self, j):
        return self.field.from_index(self.field._add(j, self.field._neg(self.index)))

    def __neg__(self):
        return self.field.from_index(self.field._neg(self.index))

    @_coerced
    def __mul__(self, j):
        return self.field.from_index(self.field._mul(self.index, j))

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, j):
        return self.field.from_index(self.field._mul(self.index, self.field._inv(j)))

    @_coerced
    def __rtruediv__(self, j):
        return self.field.from_index(self.field._mul(j, self.field._inv(self.index)))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return self.field.from_index(self.field._pow(self.index, e))

    def inverse(self):
        return self.field.from_index(self.field._inv(self.index))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.index == other.index and self.field == other.field
        if isinstance(other, int):
            # an int equals only its own prime-subfield element, so that
            # equal values hash alike
            return other == self.index < self.field.p
        return NotImplemented

    def __hash__(self):
        if self.index < self.field.p:
            return hash(self.index)
        return hash((self.field._hash, self.index))

    def __bool__(self):
        return self.index != 0

    __repr__ = _rendered


@functools.lru_cache(maxsize=None)
def base_field(q):
    """The field F_q, marked as the Drinfeld base (its own q)."""
    if q < 2:
        raise DomainError("q must be a prime power >= 2")
    # before the trial division, which is slow for a huge q
    check_cap("field", q)
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise DomainError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p ** e < q:
        e += 1
    if e == 1:
        return FiniteField(p, None, None, p, None, _token=_FIELD_TOKEN)
    return base_field(p).extension(e, gen_name="x", q=q)


def embed(x, target):
    """Move x into the field `target`, which must sit above x's field."""
    if not isinstance(x, FieldElement):
        raise DomainError("embed expects a field element")
    if x.field == target:
        return target.from_index(x.index)
    chain = []
    t = target
    while t is not None and t != x.field:
        chain.append(t)
        t = t.base
    if t is None:
        raise DomainError(f"{x.field!r} is not a subfield in the tower of {target!r}")
    for f in reversed(chain):
        x = f.embed_from_base(x)
    return x


def frobenius(x, k):
    """x^(q^k), where q is the designated base cardinality of x's field."""
    if k < 0:
        raise DomainError("frobenius power must be non-negative")
    return x ** (x.field.q ** k)
