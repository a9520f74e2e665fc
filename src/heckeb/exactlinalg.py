"""
Sparse exact linear algebra over Q and over the rational function field.

Matrices are stored as {(row, col): entry} with structurally nonzero entries
only.  Entries may be any exact field elements supporting +, -, *, /, bool and
equality (Fraction and RationalFunction both qualify), or Python ints standing
for rationals; each matrix carries its multiplicative unit so code never has
to guess the field.  An int unit means Z inside Q: every elimination over such
a matrix runs over Q, never in floating point.

A Subspace is kept in reduced column echelon form, which is a canonical
representative: two subspaces are equal iff their stored bases are equal.
Only canonical bases build one: `column_space`, the element and diagram
routes of `schur`, and the `minimal_polynomial` oracle.  A rank eliminates
forward only.  Over the rational function field and mod p it is one pivoted
sparse elimination, `_eliminate`, whose pivot is chosen for sparsity and, over
the function field, for entries of few terms; the canonicalizing scalar
arithmetic keeps expression swell in check.

A vector offered to a forward echelon basis is reduced by one pair,
`_reduce` and `_insert`, over Z, mod p and over a field alike.  Over Q
(Fraction or int entries) it runs on Python ints: a span does not change
when a vector is scaled by a nonzero rational, so each vector is cleared of
denominators, reduced on integers by steps v <- a v - b w (a and b divided
by their gcd; no step divides by an earlier pivot, so entries can grow) and
divided by its content.  So a rank and a column space run over Z (`integer_echelon`), and
so do spectra: `krylov_annihilators` yields the integer annihilator of each
Krylov chain of L m, with the coordinates in the powers of L m along.
`minimal_polynomial`, the lcm of those annihilators taken over Fraction, is
kept as the independent oracle that the tests read; no CLI command reaches
it.

`intertwiner_dimension` is the nullity of one Sylvester system, so over Q it
is an integer rank as above; its unknowns are only those on the blocks that
the diagonal generators leave (`_sylvester`): the coideal's weight blocks.
`matrix_algebra_dimension` grows the closure of span(I) under the
generators (`_closure`): over Z at a point, over the function field
symbolically, and mod p for the sandwich below.

A dual pair of commuting families takes all four of its dimensions from one
sandwich certificate mod a prime, exact at any height, and the exact routes
above take each dimension when it does not close: the proof is in
`dual_pair_dimensions`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, count, islice
from math import gcd, lcm


class ShapeMismatch(ValueError):
    pass


def _term_count(x):
    f = getattr(x, "term_count", None)
    return f() if f is not None else 1


def _field_one(one):
    """The unit of the field an elimination divides in: Q for an int unit."""
    return Fraction(one) if isinstance(one, int) else one


def _sub_multiple(dst, f, src):
    """dst -= f * src for sparse vectors {index: entry}, in place; entries
    that cancel are dropped."""
    for k, v in src.items():
        w = dst.get(k)
        w = -f * v if w is None else w - f * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


class ExactMatrix:
    __slots__ = ("nrows", "ncols", "entries", "one")

    def __init__(self, nrows, ncols, entries=None, one=Fraction(1)):
        self.nrows = nrows
        self.ncols = ncols
        self.one = one
        e = {}
        if entries:
            for k, v in entries.items():
                if v:
                    e[k] = v
        self.entries = e

    # -- constructors

    @staticmethod
    def identity(n, one=Fraction(1)):
        return ExactMatrix(n, n, {(i, i): one for i in range(n)}, one)

    @staticmethod
    def zeros(nrows, ncols, one=Fraction(1)):
        return ExactMatrix(nrows, ncols, None, one)

    @staticmethod
    def from_columns(nrows, cols, one=Fraction(1)):
        e = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    e[(i, j)] = v
        return ExactMatrix(nrows, len(cols), e, one)

    # -- views

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def rows(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self):
        return ExactMatrix(
            self.ncols, self.nrows, {(c, r): v for (r, c), v in self.entries.items()}, self.one
        )

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    # -- arithmetic

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix addition shape mismatch")
        e = dict(self.entries)
        for k, v in other.entries.items():
            w = e.get(k)
            w = v if w is None else w + v
            if w:
                e[k] = w
            else:
                e.pop(k, None)
        out = ExactMatrix.zeros(self.nrows, self.ncols, self.one)
        out.entries = e
        return out

    def __neg__(self):
        out = ExactMatrix.zeros(self.nrows, self.ncols, self.one)
        out.entries = {k: -v for k, v in self.entries.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return ExactMatrix.zeros(self.nrows, self.ncols, self.one)
        out = ExactMatrix.zeros(self.nrows, self.ncols, self.one)
        out.entries = {k: c * v for k, v in self.entries.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ShapeMismatch("matrix product shape mismatch")
            rows = self.rows()
            orows = other.rows()
            e = {}
            for i, row in enumerate(rows):
                acc = {}
                for k, a in row.items():
                    for j, b in orows[k].items():
                        v = acc.get(j)
                        v = a * b if v is None else v + a * b
                        if v:
                            acc[j] = v
                        else:
                            acc.pop(j, None)
                for j, v in acc.items():
                    e[(i, j)] = v
            out = ExactMatrix.zeros(self.nrows, other.ncols, self.one)
            out.entries = e
            return out
        return self.scale(other)

    def apply(self, vec):
        """Apply to a sparse column vector {row: entry}."""
        out = {}
        for (r, c), a in self.entries.items():
            b = vec.get(c)
            if b is not None:
                v = out.get(r)
                v = a * b if v is None else v + a * b
                if v:
                    out[r] = v
                else:
                    out.pop(r, None)
        return out

    def kron(self, other):
        e = {}
        for (r1, c1), a in self.entries.items():
            for (r2, c2), b in other.entries.items():
                e[(r1 * other.nrows + r2, c1 * other.ncols + c2)] = a * b
        return ExactMatrix(self.nrows * other.nrows, self.ncols * other.ncols, e, self.one)

    # -- elimination

    def rank(self):
        """Forward elimination only: over Q the rows go through
        `integer_echelon`, or the columns when there are fewer of them
        (rank(A) = rank(A^T), and a tall Sylvester system reduces faster
        by its columns); over any other field the rows go through
        `_eliminate`, which takes longer on the columns of a tall system."""
        if isinstance(self.one, (Fraction, int)):
            vectors = self.columns() if self.ncols < self.nrows else self.rows()
            return len(integer_echelon(_over_z(vectors)))
        return len(_eliminate(self.rows(), self.ncols))

    def nullity(self):
        """dim of {x : A x = 0}, counted by rank without building a basis."""
        return self.ncols - self.rank()

    def column_space(self):
        """Over Q the columns are first cut to independent integer vectors
        (`integer_echelon`), so the canonical basis is reduced from those."""
        cols = self.columns()
        if isinstance(self.one, (Fraction, int)):
            cols = integer_echelon(_over_z(cols))
        return Subspace(self.nrows, cols, self.one)

    def __repr__(self):
        return "ExactMatrix(%d x %d, %d nonzero)" % (self.nrows, self.ncols, len(self.entries))


def vstack(mats):
    one = mats[0].one
    ncols = mats[0].ncols
    e = {}
    off = 0
    for m in mats:
        if m.ncols != ncols:
            raise ShapeMismatch("vstack column mismatch")
        for (r, c), v in m.entries.items():
            e[(r + off, c)] = v
        off += m.nrows
    return ExactMatrix(off, ncols, e, one)


def hstack(mats):
    one = mats[0].one
    nrows = mats[0].nrows
    e = {}
    off = 0
    for m in mats:
        if m.nrows != nrows:
            raise ShapeMismatch("hstack row mismatch")
        for (r, c), v in m.entries.items():
            e[(r, c + off)] = v
        off += m.ncols
    return ExactMatrix(nrows, off, e, one)


class Subspace:
    """A subspace of the standard N-dimensional column space, canonical form.

    The basis is in reduced column echelon form: each basis vector has a pivot
    row (its minimal nonzero row), pivot entries are 1, pivot rows of other
    basis vectors are cleared, and vectors are sorted by pivot row.
    """

    __slots__ = ("ambient", "pivots", "one")

    def __init__(self, ambient, vectors=(), one=Fraction(1)):
        self.ambient = ambient
        self.one = _field_one(one)
        self.pivots = {}  # pivot row -> reduced vector
        for v in vectors:
            self.insert(v)

    def insert(self, vec):
        """Add one vector; returns True if the dimension grew."""
        vec = {r: v for r, v in vec.items() if v}
        # reduce against every existing pivot (each basis vector is already
        # clear of the other pivot rows, so one pass per pivot suffices)
        for p in sorted(set(vec) & set(self.pivots)):
            f = vec.get(p)
            if f:
                _sub_multiple(vec, f, self.pivots[p])
        if not vec:
            return False
        p = min(vec)
        c = vec[p]
        if not (c == self.one):
            inv = self.one / c
            vec = {r: inv * v for r, v in vec.items()}
        # clear row p from existing basis vectors
        for bv in self.pivots.values():
            f = bv.get(p)
            if f:
                _sub_multiple(bv, f, vec)
        self.pivots[p] = vec
        return True

    @property
    def dim(self):
        return len(self.pivots)

    def basis(self):
        return [self.pivots[p] for p in sorted(self.pivots)]

    def contains(self, vec):
        return self.coordinates(vec) is not None

    def coordinates(self, vec):
        """Coordinates in the echelon basis, or None if not in the subspace."""
        vec = {r: v for r, v in vec.items() if v}
        order = sorted(self.pivots)
        coords = {}
        for idx, p in enumerate(order):
            c = vec.get(p)
            if c:
                coords[idx] = c
                _sub_multiple(vec, c, self.pivots[p])
        if vec:
            return None
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
        )

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient)


def integer_echelon(vectors):
    """Independent primitive integer vectors with the span of the given
    integer vectors {index: int}, one per pivot (its minimal index), sorted
    by pivot: each is reduced fraction-free by `_insert`."""
    basis = {}
    for vec in vectors:
        _insert(basis, {k: v for k, v in vec.items() if v})
    return [basis[p] for p in sorted(basis)]


def _reduce(basis, vec, p=0):
    """vec (a dict of nonzero entries, consumed) reduced forward against the
    echelon basis {pivot: vector with nothing before it} until its pivot is
    free: {} when it lies in the span.  Over Z, mod p (p > 0) and over a
    field alike, the step is v <- a v - b w, with a, b the pivot entries of
    w and v divided by their gcd.  No step divides by an earlier pivot, so
    over Z the entries can grow; mod p and over a field every lead is 1,
    so a = 1 and no gcd is taken.  Mod p each entry is
    reduced mod p."""
    while vec and (k := min(vec)) in basis:
        w = basis[k]
        a, b = w[k], vec[k]
        if a != 1:
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                vec = {i: a * v for i, v in vec.items()}
        for i, v in w.items():
            x = vec.get(i)
            x = -b * v if x is None else x - b * v
            if p:
                x %= p
            if x:
                vec[i] = x
            else:
                del vec[i]
    return vec


def _insert(basis, vec, p=0):
    """Add vec (nonzero entries; left as it is) to the echelon basis of
    `_reduce`, in the normal form of `_primitive`; True if it grew."""
    vec = _reduce(basis, dict(vec), p)
    if vec:
        basis[min(vec)] = _primitive(vec, p)
    return bool(vec)


def _primitive(vec, p=0):
    """A vector of nonzero entries made primitive over Z (divided by the gcd
    of its entries), or divided by its lead mod p and over a field."""
    lead = vec[min(vec)]
    if isinstance(lead, int) and not p:
        g = gcd(*vec.values())
        return {k: v // g for k, v in vec.items()} if g > 1 else vec
    if lead == 1:
        return vec
    if p:
        inv = pow(lead, -1, p)
        return {k: v * inv % p for k, v in vec.items()}
    return {k: v / lead for k, v in vec.items()}


def _over_z(vectors):
    """Rational vectors (int or Fraction entries) as integer vectors with the
    same spans: each is scaled by the lcm of its denominators."""
    out = []
    for vec in vectors:
        den = lcm(*{v.denominator for v in vec.values()})
        out.append({k: v.numerator * (den // v.denominator) for k, v in vec.items()})
    return out


def _eliminate(rows, ncols, p=0):
    """Forward elimination of sparse rows {col: nonzero entry}, which it
    consumes: mod p for p > 0 (residues), else over the field of the
    entries, where an int stands for a rational (a Fraction, never a float).

    Returns the pivots [(col, row)] in the order chosen, each row scaled to a
    unit pivot; a pivot row holds no earlier pivot column.  Each pivot column
    is cleared from the rows still live only: enough for a rank.  The pivot
    is the sparsest live row, in it the entry of fewest terms (every residue
    has one), then the column shared by the fewest live rows.
    """
    if not p:
        rows = [{c: Fraction(v) if type(v) is int else v for c, v in r.items()} for r in rows]
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    done = set()
    pivots = []
    fewest = lambda c: (len(col_rows[c]), c)  # every residue has one term
    key = fewest if p else lambda c: (_term_count(row[c]),) + fewest(c)
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if i in done or size != len(row) or not row:
            continue  # a stale heap entry, or a row eliminated to zero
        done.add(i)
        pc = min(row, key=key)
        if row[pc] != 1:
            inv = pow(row[pc], -1, p) if p else 1 / row[pc]
            rows[i] = row = {c: v * inv % p if p else v * inv for c, v in row.items()}
        for c in row:
            col_rows[c].discard(i)
        for j in list(col_rows[pc]):
            dst = rows[j]
            f = dst[pc]
            for c, v in row.items():
                w = dst.get(c)
                if w is None:
                    dst[c] = -f * v % p if p else -f * v
                    col_rows[c].add(j)
                elif w := (w - f * v) % p if p else w - f * v:
                    dst[c] = w
                else:
                    del dst[c]
                    col_rows[c].discard(j)
            heapq.heappush(heap, (len(dst), j))
        pivots.append((pc, row))
    return pivots


# ---------------------------------------------------------------------------
# univariate polynomials over the entry field (dense coefficient lists), and
# the minimal polynomial over it: the oracle of `krylov_annihilators`


def poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(p, r):
    if not p or not r:
        return []
    zero = p[0] - p[0]
    out = [zero] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(r):
                if b:
                    out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(p, r):
    if not r:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    zero = r[-1] - r[-1]
    quot = [zero] * max(len(p) - len(r) + 1, 0)
    lead = r[-1]
    while p and len(p) >= len(r):
        d = len(p) - len(r)
        c = p[-1] / lead
        quot[d] = c
        for i, b in enumerate(r):
            p[d + i] = p[d + i] - c * b
        poly_trim(p)
    return poly_trim(quot), p


def poly_monic(p):
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd_monic(p, r):
    p, r = list(p), list(r)
    while r:
        p, r = r, poly_divmod(p, r)[1]
    return poly_monic(p)


def poly_lcm(p, r):
    if not p:
        return list(r)
    if not r:
        return list(p)
    g = poly_gcd_monic(p, r)
    return poly_monic(poly_mul(poly_divmod(p, g)[0], r))


def poly_derivative(p):
    return poly_trim([p[i] * i for i in range(1, len(p))])


def poly_is_squarefree(p):
    if len(p) <= 2:
        return True
    g = poly_gcd_monic(p, poly_derivative(p))
    return len(g) == 1


def poly_eval_matrix(p, m):
    out = ExactMatrix.zeros(m.nrows, m.ncols, m.one)
    ident = ExactMatrix.identity(m.nrows, m.one)
    for c in reversed(p):
        out = out * m + ident.scale(c)
    return out


# ---------------------------------------------------------------------------


def minimal_polynomial(m: ExactMatrix):
    """Monic minimal polynomial of a square matrix, as a coefficient list.

    Krylov spaces of standard basis vectors are accumulated until they span;
    the answer is the lcm of the local annihilators.
    """
    if m.nrows != m.ncols:
        raise ShapeMismatch("minimal polynomial of a non-square matrix")
    n = m.nrows
    one = _field_one(m.one)
    zero = one - one
    if n == 0:
        return [one]
    seen = Subspace(n, (), one)
    result = []
    for j in range(n):
        if seen.contains({j: one}):
            continue
        # local Krylov chain from e_j with coordinate tracking
        chain = Subspace(n, (), one)
        reps = {}  # pivot row -> coords (dict power -> coeff) of stored vector
        vec = {j: one}
        power = 0
        coeffs = None
        while True:
            cur = dict(vec)
            coords = {power: one}
            # reduce cur against chain, tracking coordinates
            while cur:
                p = min(cur)
                base = chain.pivots.get(p)
                if base is None:
                    break
                f = cur[p]
                _sub_multiple(cur, f, base)
                _sub_multiple(coords, f, reps[p])
            if not cur:
                # annihilator: sum coords[k] t^k = 0
                deg = max(coords)
                lead = coords[deg]
                coeffs = [zero] * (deg + 1)
                for k, v in coords.items():
                    coeffs[k] = v / lead
                break
            p = min(cur)
            c = cur[p]
            if not (c == one):
                inv = one / c
                cur = {r: inv * v for r, v in cur.items()}
                coords = {k: inv * v for k, v in coords.items()}
            chain.pivots[p] = cur
            reps[p] = coords
            vec = m.apply(vec)
            power += 1
        result = poly_lcm(result, coeffs)
        for v in chain.pivots.values():
            seen.insert(v)
        if seen.dim == n:
            break
    return poly_monic(result)


def krylov_annihilators(m: ExactMatrix):
    """Yields (j, c) for each Krylov chain of M = L m, L > 0 the lcm of the
    entry denominators of m (Fraction or int entries): the chain starts at
    e_j, and c, constant first and of content 1, is the integer annihilator
    of e_j of least degree, sum_k c_k M^k e_j = 0.  A chain starts at each
    e_j not yet in the span of the earlier chains, so the lcm of the c is the
    minimal polynomial of M.

    Over Z and forward only, by `_reduce`: each chain vector v is M
    times the last one kept, and carries its integer coordinates c_k in the
    powers of M at the indices n + k, past the n entries of v (n x n is the
    size of m).  So v <- a v - b w reduces the coordinates with v, and a
    survivor is divided by the joint content of both.  When v reduces to 0,
    what is left is the annihilator."""
    if m.nrows != m.ncols:
        raise ShapeMismatch("Krylov chains of a non-square matrix")
    n = m.nrows
    cols = _integer_matrix(m).columns()
    seen = {}  # an echelon basis over Z of the chains so far
    for j in range(n):
        if len(seen) == n:
            return
        if not _reduce(seen, {j: 1}):
            continue
        chain = {}
        vec = {j: 1, n: 1}
        while min(vec := _reduce(chain, vec)) < n:
            vec = chain[min(vec)] = _primitive(vec)
            out = {}
            for c, x in vec.items():
                if c < n:
                    for r, a in cols[c].items():
                        out[r] = out.get(r, 0) + a * x
                else:
                    out[c + 1] = x
            vec = {k: v for k, v in out.items() if v}
        vec = _primitive(vec)
        yield j, [vec.get(k, 0) for k in range(n, max(vec) + 1)]
        # the earlier chains span an M-invariant W: once a chain vector lies
        # in W plus the ones before it, so do all later ones
        for v in chain.values():
            if not _insert(seen, {k: x for k, x in v.items() if k < n}):
                break


# ---------------------------------------------------------------------------
# the primes of the sandwich

def _is_prime(m):
    """Miller-Rabin at the bases 2, 7 and 61, which decide every odd m > 61
    below 4,759,123,141 (Jaeschke 1993)."""
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = 2^s t, t odd
    xs = (pow(a, (m - 1) >> s, m) for a in (2, 7, 61))
    return all(x == 1 or any(pow(x, 1 << i, m) == m - 1 for i in range(s)) for x in xs)


def sandwich_primes(lucky):
    """The first two primes below 2^30, walking down, at which lucky(p): at
    each a residue is one digit of a Python int."""
    return tuple(islice((m for m in range(2**30 - 1, 61, -2) if _is_prime(m) and lucky(m)), 2))


# ---------------------------------------------------------------------------
# dimensions of intertwiner spaces and matrix algebras


def _sylvester(gens_u, gens_w, rows=None):
    """The system phi g_u = g_w phi over the generator pairs, for a w x u phi
    on rows S (all w by default), unknowns phi[i, c] numbered row-major; row
    i's equations join when row i of g_w stays in S (why: dual_pair_dimensions).
    A pair diagonal on both sides says phi[i, c] (g_u[c, c] - g_w[i, i]) = 0:
    over any field and mod any p, phi[i, c] = 0 unless g_w[i, i] = g_u[c, c]
    for each such pair, where those equations hold.  So the unknowns are that
    support's, those pairs give no equations, and terms off it are dropped."""
    u = gens_u[0].nrows
    S = dict.fromkeys(range(gens_w[0].nrows) if rows is None else rows)
    one = gens_u[0].one
    zero = one - one
    pairs = list(zip(gens_u, gens_w))
    diagonal = [pair for pair in pairs if all(r == c for g in pair for r, c in g.entries)]

    def entries(side, x):  # entry (x, x) of g_u (side 0) or g_w (side 1) in each such pair
        return tuple(pair[side].entries.get((x, x), zero) for pair in diagonal)

    blocks = {}
    for c in range(u):
        blocks.setdefault(entries(0, c), []).append(c)
    coordinate = count()  # row i's unknowns {c: coordinate}, numbered row-major
    pos = {i: {c: next(coordinate) for c in blocks.get(entries(1, i), ())} for i in S}
    e, nrow = {}, 0
    for gu, gw in (pair for pair in pairs if pair not in diagonal):
        gu_rows, gw_rows = gu.rows(), gw.rows()
        # (phi gu - gw phi)[i, j] = sum_c phi[i,c] gu[c,j] - sum_r gw[i,r] phi[r,j]
        for i in S:
            if not gw_rows[i].keys() <= S.keys():
                continue
            terms = [(j, k, v) for c, k in pos[i].items() for j, v in gu_rows[c].items()]
            terms += [(j, k, -v) for r, v in gw_rows[i].items() for j, k in pos[r].items()]
            eqs = {}  # j: {coordinate: coefficient}
            for j, k, v in terms:
                eq = eqs.setdefault(j, {})
                eq[k] = eq.get(k, zero) + v
            for j in sorted(eqs):
                row = {(nrow, k): v for k, v in eqs[j].items() if v}
                e.update(row)
                nrow += bool(row)
    return ExactMatrix(nrow, sum(map(len, pos.values())), e, one)


def intertwiner_dimension(gens_u, gens_w):
    """dim of {phi : phi g_u = g_w phi for all generator pairs}: the nullity
    of the one system `_sylvester` builds, over Q an integer rank."""
    return _sylvester(gens_u, gens_w).nullity()


def commutant_dimension(gens):
    """dim of {X : Xg = gX for all g}: the self-intertwiners of the gens."""
    return intertwiner_dimension(gens, gens)


def matrix_algebra_dimension(gens):
    """Dimension of the unital algebra generated by the given matrices: the
    words `_closure` finds.  Over Q it runs over Z on `_integer_matrix`
    generators (the same unital algebra), as the sandwich does mod p; over
    any other field forward only, over that field."""
    if isinstance(gens[0].one, (Fraction, int)):
        gens = [_integer_matrix(g) for g in gens]
    return sum(1 for _ in _closure([g.rows() for g in gens], gens[0].nrows, gens[0].one, {}))


def _closure(grows, n, one, basis, p=0, rows=None):
    """The closure of span(I) under right multiplication by n x n matrices,
    given by their rows: it holds every word, so it is the unital algebra
    they generate.  Each product is vec'd (row-major) on rows S (all n by
    default; row i of M G reads only row i of M) and offered to
    `_insert(basis, vec, p)`, which grows the caller's basis over Z, mod p
    (p > 0) or over a field; why rows S cyclic for a commuting family lose
    no word: dual_pair_dimensions.  Yields each word that grew it, as
    (parent word, generator), the identity (None, None) first: a caller
    that knows the dimension stops there."""
    ident = {k * n + i: one for k, i in enumerate(range(n) if rows is None else rows)}
    _insert(basis, ident, p)
    yield None, None
    vecs = [ident]
    frontier = [0]
    while frontier:
        new = []
        for i in frontier:
            for gi, grow in enumerate(grows):
                prod = _times(vecs[i], grow, n, p)
                if _insert(basis, prod, p):
                    yield i, gi
                    vecs.append(prod)
                    new.append(len(vecs) - 1)
        frontier = new


def _times(vec, grows, n, p=0):
    """vec(M G) from vec(M) of an n x n M and the rows of G, reduced mod p
    when p > 0, zeros dropped.  A sum that is still zero takes the next
    product as it is: over RationalFunction, 0 + x canonicalises x."""
    out = {}
    for idx, a in vec.items():
        base = idx - idx % n
        for c, b in grows[idx % n].items():
            v = out.get(base + c)
            out[base + c] = v + a * b if v else a * b
    return {k: r for k, x in out.items() if (r := x % p if p else x)}


def _integer_matrix(g):
    """g scaled by the lcm of its denominators, over the integers (unit 1):
    it generates the same unital algebra and has the same commutant."""
    (entries,) = _over_z([g.entries])
    return ExactMatrix(g.nrows, g.ncols, entries, 1)


def _cyclic_rows(grows, n, offered, p):
    """Rows cyclic mod p under grows, the rows of n x n integer matrices: each
    offered, then each unit row not in the span joins, and its words grow it."""
    basis, rows = {}, []
    for j in chain(offered, range(n)):
        if len(basis) < n and _insert(basis, {j: 1}, p):
            rows.append(j)
            list(_closure(grows, n, 1, basis, p, [j]))
    return rows


def dual_pair_dimensions(gens_a, gens_b, primes, rows=()):
    """(dim alg(A), dim Comm(A), dim alg(B), dim Comm(B)) of two commuting
    families of Fraction matrices, by the sandwich certificate; or None.

    Each generator is scaled to an integer matrix, which generates the same
    unital algebra and has the same commutant.  Every a commutes with every b
    (checked exactly), so alg(A) lies in Comm(B).  At a prime p of `primes`,
    the Sylvester system of B has rank_p <= rank_Q, so
    dim Comm(B) <= u_B = (its width) - rank_p; and the closure of A mod p
    finds r_A words independent mod p, hence over Q: r_A <= dim alg(A).
    Thus r_A <= dim alg(A) <= dim Comm(B) <= u_B, so the closure stops once
    r_A reaches u_B, since no later word can grow it, and r_A = u_B makes all
    three exact; the same with A and B swapped.

    Both run on rows S cyclic for B mod p (`_cyclic_rows`, from the offered
    rows on; from the unit rows when swapped): the unit rows e_i, i in S,
    generate all rows under B.  If M commutes with B and e_i M = 0 for i in
    S, then e_i b M = e_i M b = 0 for every b, so M = 0: M -> M[S, :] is
    injective on Comm(B), and on Comm(B mod p), where alg(A mod p) lies.
    Words independent on S are independent, so r_A counted on S is the full
    count.  When the offered rows alone are cyclic (mod p, so over Q),
    phi -> phi[S, :] is injective on Comm(B) in the same way, and the
    equations of the rows i in S whose row of each b stays in S involve
    phi[S, :] only, so u_B takes those equations alone: on the dominant rows
    of permutation modules they are the stabilizer eigen-conditions, of the
    full nullity by Frobenius reciprocity.

    When the bounds fall short at one prime (no double centralizer, or p
    unlucky: say q = 0 or 1 mod p), the next is tried, so a rank mod p is
    never reported alone.  None when the pair does not commute, when every
    prime falls short, and for other fields.
    """
    if not isinstance(gens_a[0].one, Fraction):
        return None
    ints_a = [_integer_matrix(g) for g in gens_a]
    ints_b = [_integer_matrix(g) for g in gens_b]
    if any(a * b != b * a for a in ints_a for b in ints_b):
        return None
    n = gens_a[0].nrows
    grows_a, grows_b = ([g.rows() for g in ints] for ints in (ints_a, ints_b))
    sides = ((grows_a, ints_b, grows_b, rows), (grows_b, ints_a, grows_a, ()))
    for p in primes:
        dims = []
        for grows, other, other_rows, offered in sides:
            S = _cyclic_rows(other_rows, n, offered, p)
            # its rank is taken on its columns (the transpose eliminates faster)
            s = _sylvester(other, other, S if set(S) <= set(offered) else None)
            red = [{i: v % p for i, v in col.items() if v % p} for col in s.columns()]
            u = s.ncols - len(_eliminate(red, s.nrows, p))
            words = _closure(grows, n, 1, {}, p, S)
            if sum(1 for _ in islice(words, u)) != u:
                break
            dims.append(u)
        else:
            return dims[0], dims[1], dims[1], dims[0]
    return None
