"""Finite fields as explicit towers with table-driven arithmetic.

Every field is realized over its prime field F_p with elements encoded as
integers: the element sum(c_i * z^i) is stored as the integer sum(c_i * p^i),
where z is a root of a deterministic irreducible modulus (the
lexicographically smallest monic one of the right degree, coefficients
compared from the leading end down).  Multiplication goes through exp/log
tables for a fixed primitive element; addition uses Zech logarithms in odd
characteristic and XOR in characteristic 2.  Tables are shared between all
tower instances with the same absolute field.

A field built as an extension remembers its base field, the defining modulus
over the base, and a designated root of that modulus (the first one in element
order), so elements can be moved up the tower and decomposed over the base.

Each field also carries a `q` attribute: the cardinality of the designated
base field of its tower.  This is the exponent base used by `frobenius` and by
all twisted-polynomial arithmetic, and it is deliberately not part of
structural field equality.
"""

from __future__ import annotations

import functools
import operator

from .errors import CapExceededError, DomainError

CARD_CAP = 1 << 16


def _cap_exponent(card):
    """The largest e with card^e <= CARD_CAP, for card >= 2."""
    e = 0
    while card ** (e + 1) <= CARD_CAP:
        e += 1
    return e


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


def _vector_arithmetic(p, degree, modulus_digits):
    """(mul, add, to_vec, to_index) of F_p[z]/(m) on coefficient vectors.

    In characteristic 2 a vector is the packed int of its bits, which is the
    element index itself, and sums are XOR.  Otherwise it is the list of the
    `degree` base-p digits of the index, lowest first.
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

        return mul, operator.xor, same, same
    # z^degree reduced: the negated low part of the modulus
    red = [(-c) % p for c in modulus_digits[:degree]]
    weights = [p ** i for i in range(degree)]

    def add(a, b):
        return [(x + y) % p for x, y in zip(a, b)]

    def mul(a, b):
        acc = [0] * degree
        for db in b:
            if db:
                acc = [(x + db * y) % p for x, y in zip(acc, a)]
            t = a[-1]
            a = [0] + a[:-1]
            if t:
                a = [(x + t * r) % p for x, r in zip(a, red)]
        return acc

    def to_index(a):
        return sum(d * w for d, w in zip(a, weights))

    return mul, add, (lambda i: _digits(i, p, degree)), to_index


class _AbsTables:
    """Shared arithmetic tables for the absolute field F_p[z]/(m)."""

    def __init__(self, p, degree, modulus_digits):
        self.p = p
        self.degree = degree
        self.card = p ** degree
        self.modulus_digits = modulus_digits
        self.root_cache = {}
        n = self.card
        mul, add, to_vec, to_index = _vector_arithmetic(
            p, degree, modulus_digits)

        def pow_raw(a, e):
            r = to_vec(1)
            while e:
                if e & 1:
                    r = mul(r, a)
                a = mul(a, a)
                e >>= 1
            return to_index(r)

        m1 = n - 1
        prime_factors = _prime_divisors(m1)
        gen = None
        for cand in range(p, n):
            if all(pow_raw(to_vec(cand), m1 // r) != 1 for r in prime_factors):
                gen = cand
                break
        assert gen is not None
        # x -> x * gen is F_p-linear: tabulate it on the low and the high
        # half of the index, so each power costs one vector sum
        half = p ** (degree // 2)
        g = to_vec(gen)
        low = [mul(to_vec(i), g) for i in range(half)]
        high = [mul(to_vec(i * half), g) for i in range(n // half)]
        exp = [0] * m1
        log = [0] * n
        cur = 1
        for i in range(m1):
            exp[i] = cur
            log[cur] = i
            hi, lo = divmod(cur, half)
            cur = to_index(add(low[lo], high[hi]))
        assert cur == 1
        self.exp = exp
        self.log = log
        self.generator = gen
        if p != 2:
            zech = [0] * m1
            for k in range(m1):
                e = exp[k]
                d0 = e % p
                e1 = e - d0 + ((d0 + 1) % p)
                zech[k] = log[e1] if e1 else -1
            self.zech = zech
            self.half = m1 // 2
        else:
            self.zech = None
            self.half = 0


@functools.lru_cache(maxsize=None)
def _abs_tables(p, degree):
    mod = _canonical_modulus_digits(p, degree)
    return _AbsTables(p, degree, mod)


@functools.lru_cache(maxsize=None)
def _canonical_modulus_digits(p, degree):
    """Smallest monic irreducible of the given degree over F_p, as a digit list
    (ascending), compared lexicographically from the leading coefficient down."""
    return tuple(c.index for c in base_field(p)._search_modulus(degree))


class FiniteField:
    """A finite field in a tower, with designated base-field cardinality q."""

    def __init__(self, p, base, modulus_over_base, q, gen_name, _token=None):
        if _token is not _FIELD_TOKEN:
            raise TypeError("use base_field() or the extension methods")
        self.p = p
        self.base = base
        self.q = q
        self.gen_name = gen_name
        if base is None:
            self.degree = 1
            self.ext_degree = 1
            self.modulus_over_base = None
        else:
            self.ext_degree = len(modulus_over_base) - 1
            self.degree = base.degree * self.ext_degree
            self.modulus_over_base = tuple(modulus_over_base)
        self.card = p ** self.degree
        if self.card > CARD_CAP:
            raise CapExceededError(
                f"field of cardinality {self.card} exceeds the {CARD_CAP} cap")
        self._direct = self.degree == 1
        if not self._direct:
            self._tables = _abs_tables(p, self.degree)
        else:
            self._tables = None
        self._ext_cache = {}
        self._coords_rows = None
        self._elt_cache = {}
        self.zero = self.from_index(0)
        self.one = self.from_index(1)
        self._init_base_maps(modulus_over_base)
        self._hash = hash(("FiniteField", p, self.degree, self._chain_key()))

    def _chain_key(self):
        if self.base is None:
            return ()
        mod = tuple(c.index for c in self.modulus_over_base)
        return self.base._chain_key() + (mod,)

    def _init_base_maps(self, modulus_over_base):
        base = self.base
        if base is None:
            self.gen = self.one
            self._base_root_pows = None
            return
        if base.degree == 1:
            pows = [self.one]
        else:
            key = ("subfield", base.degree)
            root = self._tables.root_cache.get(key)
            if root is None:
                coeffs = list(base._tables.modulus_digits)
                root = self._first_root(coeffs)
                if root is None:
                    raise DomainError("polynomial has no root in this field")
                self._tables.root_cache[key] = root
            pows = [self.one]
            cur = self.one.index
            for _ in range(base.degree - 1):
                cur = self._mul(cur, root)
                pows.append(self.from_index(cur))
        self._base_root_pows = pows
        emb = [self.embed_from_base(c) for c in modulus_over_base]
        gen_idx = self._first_root([e.index for e in emb])
        if gen_idx is None:
            raise DomainError("defining modulus has no root in the extension; "
                              "it is reducible or of the wrong degree")
        self.gen = self.from_index(gen_idx)

    def _first_root(self, coeffs):
        # coeffs are element indices, ascending; None when there is no root
        for x in range(self.card):
            acc = 0
            for c in reversed(coeffs):
                acc = self._add(self._mul(acc, x), c)
            if acc == 0:
                return x
        return None

    # index-level arithmetic -------------------------------------------------

    def _add(self, i, j):
        if self._direct:
            return (i + j) % self.p
        if self.p == 2:
            return i ^ j
        if i == 0:
            return j
        if j == 0:
            return i
        t = self._tables
        li = t.log[i]
        lj = t.log[j]
        zk = t.zech[(lj - li) % (t.card - 1)]
        if zk < 0:
            return 0
        return t.exp[(li + zk) % (t.card - 1)]

    def _neg(self, i):
        if self.p == 2:
            return i
        if self._direct:
            return (-i) % self.p
        if i == 0:
            return 0
        t = self._tables
        return t.exp[(t.log[i] + t.half) % (t.card - 1)]

    def _mul(self, i, j):
        if self._direct:
            return (i * j) % self.p
        if i == 0 or j == 0:
            return 0
        t = self._tables
        return t.exp[(t.log[i] + t.log[j]) % (t.card - 1)]

    def _inv(self, i):
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._direct:
            return pow(i, self.p - 2, self.p)
        t = self._tables
        return t.exp[(-t.log[i]) % (t.card - 1)]

    def _pow(self, i, e):
        if i == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._direct:
            return pow(i, e % (self.p - 1), self.p)
        t = self._tables
        return t.exp[(t.log[i] * e) % (t.card - 1)]

    # element-level API ------------------------------------------------------

    def from_index(self, i):
        if not 0 <= i < self.card:
            raise DomainError(f"index {i} out of range for field of size {self.card}")
        elt = self._elt_cache.get(i)
        if elt is None:
            elt = FieldElement(self, i)
            if len(self._elt_cache) < 4096:
                self._elt_cache[i] = elt
        return elt

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
        key = ("search", m, gen_name, q)
        field = self._ext_cache.get(key)
        if field is None:
            # over F_p, reuse the cached search that the field's tables need
            mod = (_canonical_modulus_digits(self.p, m) if self.base is None
                   else self._search_modulus(m))
            field = self.extension_with_modulus(mod, gen_name=gen_name, q=q)
            self._ext_cache[key] = field
        return field

    def _search_modulus(self, m):
        from . import poly

        if self.card ** m > CARD_CAP:
            raise CapExceededError(
                f"extension of cardinality {self.card ** m} exceeds the {CARD_CAP} cap")
        ring = poly.PolyRing(self, "y")
        return next(f for f in poly._monic_polys(ring, m)
                    if poly.is_irreducible(f)).coeffs

    def extension_with_modulus(self, coeffs, gen_name="b", q=None):
        """Extension defined by a given monic modulus over this field.

        The caller is responsible for irreducibility; a reducible modulus may
        still produce a field (any root is taken) but the degree will not match.
        """
        coeffs = tuple(self.coerce(c) for c in coeffs)
        if len(coeffs) < 2:
            raise DomainError("modulus must have positive degree")
        if coeffs[-1] != self.one:
            raise DomainError("modulus must be monic")
        key = ("mod", tuple(c.index for c in coeffs), gen_name, q)
        field = self._ext_cache.get(key)
        if field is None:
            field = FiniteField(self.p, self, coeffs,
                                q if q is not None else self.q,
                                gen_name, _token=_FIELD_TOKEN)
            self._ext_cache[key] = field
        return field

    def embed_from_base(self, x):
        if self.base is None:
            raise DomainError("prime field has no base")
        x = self.base.coerce(x)
        ds = _digits(x.index, self.p, self.base.degree)
        acc = 0
        for d, pw in zip(ds, self._base_root_pows):
            if d:
                acc = self._add(acc, self._mul(d, pw.index))
        return self.from_index(acc)

    def coords_over_base(self, x):
        """Decompose x as sum(c_j * gen^j) with c_j in the base field."""
        if self.base is None:
            raise DomainError("prime field has no base")
        x = self.coerce(x)
        if self._coords_rows is None:
            self._build_coords()
        p = self.p
        vec = _digits(x.index, p, self.degree)
        sol = [sum(r * v for r, v in zip(row, vec)) % p for row in self._coords_rows]
        k = self.base.degree
        out = []
        for j in range(self.ext_degree):
            idx = 0
            for i in reversed(range(k)):
                idx = idx * p + sol[j * k + i]
            out.append(self.base.from_index(idx))
        return tuple(out)

    def _build_coords(self):
        p, D, k = self.p, self.degree, self.base.degree
        cols = []
        gp = self.one.index
        for j in range(self.ext_degree):
            for i in range(k):
                v = self._mul(gp, self._base_root_pows[i].index) if k > 1 else gp
                cols.append(_digits(v, p, D))
            gp = self._mul(gp, self.gen.index)
        # invert the basis matrix over F_p by Gauss-Jordan
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
        self._coords_rows = inv

    # ------------------------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p == other.p and self.degree == other.degree
                and self._chain_key() == other._chain_key())

    def __hash__(self):
        return self._hash

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

    def __add__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
        return self.field.from_index(self.field._add(self.index, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
        return self.field.from_index(self.field._add(self.index, self.field._neg(j)))

    def __rsub__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
        return self.field.from_index(self.field._add(j, self.field._neg(self.index)))

    def __neg__(self):
        return self.field.from_index(self.field._neg(self.index))

    def __mul__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
        return self.field.from_index(self.field._mul(self.index, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
        return self.field.from_index(self.field._mul(self.index, self.field._inv(j)))

    def __rtruediv__(self, other):
        j = self._coerce_other(other)
        if j is None:
            return NotImplemented
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

    def __repr__(self):
        from . import grammar

        return grammar.render(self)


@functools.lru_cache(maxsize=None)
def base_field(q):
    """The field F_q, marked as the Drinfeld base (its own q)."""
    if q < 2:
        raise DomainError("q must be a prime power >= 2")
    # before the trial division, which is slow for a huge q
    if q > CARD_CAP:
        raise CapExceededError(
            f"field of cardinality {q} exceeds the {CARD_CAP} cap")
    p, e = _split_prime_power(q)
    if e == 1:
        return FiniteField(p, None, None, p, None, _token=_FIELD_TOKEN)
    return base_field(p).extension(e, gen_name="x", q=q)


def _split_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise DomainError(f"{q} is not a prime power")
            return p, e
    raise DomainError(f"{q} is not a prime power")


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
