"""
Hyperoctahedral combinatorics: signed permutations, index sets, orbits,
partitions and tableau counts.

The Weyl group of type B in rank d acts on {+-1, ..., +-d}; an element is
stored by its images (w(1), ..., w(d)) as signed integers.  Generators are
s_0 (negate the first value) and s_i (swap values at positions i, i+1).
The length function splits as l = l_0 + l_1 where l_0 counts occurrences of
s_0 in any reduced word and equals the number of negative images.

Basis indices of the n-dimensional space live in
    I_n = {-r, ..., r}                      (n = 2r + 1)
    I_n = {-(2r-1)/2, ..., -1/2, 1/2, ...}  (n = 2r)
and are stored *doubled* so they stay integers: even doubled values for odd n,
odd doubled values for even n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial


class SignedPermutation:
    """An element of the type B Weyl group of rank d, by its images."""

    __slots__ = ("images", "_word")

    def __init__(self, images):
        images = tuple(images)
        if sorted(abs(x) for x in images) != list(range(1, len(images) + 1)):
            raise ValueError("not a signed permutation: %r" % (images,))
        self.images = images
        self._word = None

    @staticmethod
    def identity(d):
        return SignedPermutation(range(1, d + 1))

    @staticmethod
    def generator(d, i):
        """s_0 negates the first value; s_i (i >= 1) swaps positions i, i+1."""
        if not 0 <= i < d:
            raise ValueError("generator index out of range")
        img = list(range(1, d + 1))
        if i == 0:
            img[0] = -1
        else:
            img[i - 1], img[i] = img[i], img[i - 1]
        return SignedPermutation(img)

    @property
    def rank(self):
        return len(self.images)

    def __call__(self, i):
        """Signed image; accepts any i with 1 <= |i| <= d."""
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def __mul__(self, other):
        """(v * w)(i) = v(w(i))."""
        return SignedPermutation(tuple(self(other.images[k]) for k in range(other.rank)))

    def inverse(self):
        img = [0] * self.rank
        for i, v in enumerate(self.images, start=1):
            if v > 0:
                img[v - 1] = i
            else:
                img[-v - 1] = -i
        return SignedPermutation(img)

    def act(self, a):
        """Left action on index tuples: position |w(i)| receives sign(w(i)) * a_i."""
        out = [0] * len(a)
        for i, v in enumerate(self.images):
            if v > 0:
                out[v - 1] = a[i]
            else:
                out[-v - 1] = -a[i]
        return tuple(out)

    # -- length

    def length_split(self):
        """(l_0, l_1): counts of s_0 and of the other generators in a reduced word."""
        w = self.images
        d = len(w)
        inv = 0
        nsp = 0
        neg = 0
        for i in range(d):
            if w[i] < 0:
                neg += 1
            for j in range(i + 1, d):
                if w[i] > w[j]:
                    inv += 1
                if w[i] + w[j] < 0:
                    nsp += 1
        return neg, inv + nsp

    def length(self):
        l0, l1 = self.length_split()
        return l0 + l1

    def reduced_word(self):
        """A reduced word (i_1, ..., i_l) with w = s_{i_1} * ... * s_{i_l}."""
        if self._word is not None:
            return self._word
        d = self.rank
        img = list(self.images)
        rev = []
        ln = SignedPermutation(img).length()
        while ln:
            for i in range(d):
                if i == 0:
                    desc = img[0] < 0
                else:
                    desc = img[i - 1] > img[i]
                if desc:
                    if i == 0:
                        img[0] = -img[0]
                    else:
                        img[i - 1], img[i] = img[i], img[i - 1]
                    rev.append(i)
                    ln -= 1
                    break
            else:
                raise AssertionError("no descent on a non-identity element")
        self._word = tuple(reversed(rev))
        return self._word

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "SignedPermutation(%r)" % (self.images,)

    def __str__(self):
        return "[" + " ".join(str(v) for v in self.images) + "]"


def from_word(d, word):
    w = SignedPermutation.identity(d)
    for i in word:
        w = w * SignedPermutation.generator(d, i)
    return w


def parabolic_elements(d, gens):
    """The parabolic subgroup of rank d generated by the s_i, i in gens, as
    {w: l(w)}: breadth first from the identity, so each Cayley-graph distance
    is a length.  gens = range(d) gives all 2^d d! elements."""
    start = SignedPermutation.identity(d)
    dist = {start: 0}
    frontier = [start]
    sgens = [SignedPermutation.generator(d, i) for i in gens]
    while frontier:
        new = []
        for w in frontier:
            for s in sgens:
                ws = w * s
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    new.append(ws)
        frontier = new
    return dist


# ---------------------------------------------------------------------------
# index sets (doubled integers)


def index_set(n):
    """Doubled basis indices of the n-dimensional space, ascending."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n % 2:
        r = (n - 1) // 2
        return tuple(range(-2 * r, 2 * r + 1, 2))
    return tuple(x for x in range(-(n - 1), n, 2))


def fmt_index(dv):
    """Render a doubled index as the underlying (half-)integer."""
    if dv % 2 == 0:
        return str(dv // 2)
    return "%d/2" % dv


# ---------------------------------------------------------------------------
# orbits of index tuples


def dominant_representative(a):
    """The weakly increasing, nonnegative representative of the orbit of a."""
    return tuple(sorted(abs(x) for x in a))


def orbit_with_minimal_reps(a):
    """BFS over the orbit of a dominant tuple.

    Returns a dict {tuple b: minimal w with w.act(a) = b}.  Minimality of the
    coset representative follows from the breadth-first order.
    """
    d = len(a)
    a = tuple(a)
    gens = [SignedPermutation.generator(d, i) for i in range(d)]
    reps = {a: SignedPermutation.identity(d)}
    frontier = [a]
    while frontier:
        new = []
        for b in frontier:
            w = reps[b]
            for s in gens:
                c = s.act(b)
                if c not in reps:
                    reps[c] = s * w
                    new.append(c)
        frontier = new
    return reps


def stabilizer_parabolic(a):
    """Generator indices of the standard parabolic stabilizing a dominant tuple."""
    out = []
    if a and a[0] == 0:
        out.append(0)
    for i in range(1, len(a)):
        if a[i - 1] == a[i]:
            out.append(i)
    return tuple(out)


def dominant_tuples(n, d):
    """All dominant index tuples in I_n^d (doubled values, weakly increasing)."""
    return list(combinations_with_replacement([v for v in index_set(n) if v >= 0], d))


# ---------------------------------------------------------------------------
# partitions and tableaux


@lru_cache(maxsize=None)
def partitions(k):
    """All partitions of k as weakly decreasing tuples, in a fixed order."""
    if k == 0:
        return ((),)
    out = []

    def rec(rem, mx, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rem, mx), 0, -1):
            acc.append(p)
            rec(rem - p, p, acc)
            acc.pop()

    rec(k, k, [])
    return tuple(out)


def bipartitions(d):
    """All ordered pairs (lam, mu) with |lam| + |mu| = d, in a fixed order."""
    out = []
    for a in range(d, -1, -1):
        for lam in partitions(a):
            for mu in partitions(d - a):
                out.append((lam, mu))
    return out


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def _hooks(lam):
    conj = conjugate(lam)
    out = []
    for i, p in enumerate(lam):
        for j in range(p):
            out.append((p - j) + (conj[j] - i) - 1)
    return out


def syt_count(lam):
    """Standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    out = factorial(n)
    for h in _hooks(lam):
        out //= h
    return out


def ssyt_count(lam, m):
    """Semistandard tableaux of shape lam with entries in 1..m (hook content)."""
    if not lam:
        return 1
    if len(lam) > m:
        return 0
    num = 1
    den = 1
    hooks = iter(_hooks(lam))
    for i, p in enumerate(lam):
        for j in range(p):
            num *= m + j - i
            den *= next(hooks)
    assert num % den == 0
    return num // den


def ssyt_bounds(n):
    """(bound for the first shape, bound for the second shape) for V_n."""
    r = n // 2
    if n % 2:
        return r + 1, r
    return r, r


def standard_bitableaux_count(shape):
    lam, mu = shape
    d = sum(lam) + sum(mu)
    return comb(d, sum(lam)) * syt_count(lam) * syt_count(mu)


def semistandard_bitableaux_count(shape, n):
    """Semistandard bitableaux of the shape in the bounds of V_n
    (ssyt_bounds): 0 exactly when the shape does not fit, since ssyt_count is
    0 for a side with more rows than its bound."""
    lam, mu = shape
    bp, bm = ssyt_bounds(n)
    return ssyt_count(lam, bp) * ssyt_count(mu, bm)


# ---------------------------------------------------------------------------
# compositions and index-shift maps


def composition_to_index(theta, n):
    """The index tuple of the orbit vector attached to a composition of d.

    theta has one part per basis index of V_n; part k of theta contributes
    that many copies of the negated k-th index, matching the convention that
    the first part pairs with the largest index.
    """
    ds = index_set(n)
    if len(theta) != n:
        raise ValueError("composition length must equal n")
    out = []
    for k, part in enumerate(theta):
        out.extend([-ds[k]] * part)
    return tuple(out)


def shift_outward(dv, dj):
    """Index map for adding a pair of zero parts at doubled position dj > 0."""
    if dv >= dj:
        return dv + 2
    if dv <= -dj:
        return dv - 2
    return dv


def shift_center(dv):
    """Index map for adding a middle zero part (n even -> n + 1)."""
    if dv > 0:
        return dv + 1
    if dv < 0:
        return dv - 1
    raise ValueError("center shift undefined at zero")


# ---------------------------------------------------------------------------
# special group elements


def shuffle_element(a, b):
    """The element moving the first block of size a past the block of size b:
    w(i) = a + i for i <= b and w(b + j) = j for j <= a."""
    img = [0] * (a + b)
    for i in range(1, b + 1):
        img[i - 1] = a + i
    for j in range(1, a + 1):
        img[b + j - 1] = j
    return SignedPermutation(img)


def column_reading_element(lam):
    """Permutation sending k to the k-th entry of the column reading of the
    row-filled tableau of shape lam, as a positive signed permutation."""
    d = sum(lam)
    if d == 0:
        return SignedPermutation.identity(0)
    rows = []
    nxt = 1
    for p in lam:
        rows.append(list(range(nxt, nxt + p)))
        nxt += p
    img = []
    for j in range(lam[0]):
        for row in rows:
            if j < len(row):
                img.append(row[j])
    return SignedPermutation(img)


def block_transposition(i, e, d):
    """The e-block analogue of s_i: swap blocks i and i+1 of size e in rank d*e."""
    if not 1 <= i <= d - 1:
        raise ValueError("block index out of range")
    img = list(range(1, d * e + 1))
    lo = (i - 1) * e
    for k in range(e):
        img[lo + k] = lo + e + k + 1
        img[lo + e + k] = lo + k + 1
    return SignedPermutation(img)


def block_flip(e, d):
    """The e-block analogue of s_0: negate the first e values in rank d*e."""
    img = list(range(1, d * e + 1))
    for k in range(e):
        img[k] = -(k + 1)
    return SignedPermutation(img)
