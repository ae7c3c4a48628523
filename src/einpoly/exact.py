"""Exact rational arithmetic, integer lattice routines, and univariate
polynomial algebra over Z.

Everything here is exact: rationals are `fractions.Fraction`, matrices are
nested sequences, no floating point anywhere.

Elimination has one routine per job:

* one fraction-free Bareiss row step (`_bareiss_row`) adds an integer row
  to an elimination and skips a dependent one.  It gives `det` and the
  volume's one row per face in `polytope`;
* over Z, the column Hermite form A U = H (`_column_hnf`) gives the
  lattice chart of an affine hull (`LatticeChart`) and `lattice_index`,
  and no stand-alone kernel: the chart is one Hermite form of its
  difference rows, and its equations (the saturated kernel of those rows),
  coordinates and lift are all read off the unimodular U, with no
  back-substitution;
* over Z[x], one subresultant chain in y gives the `resultant`, its last
  member with the sign of the Sylvester determinant, and, through
  `subresultants`, its members from the lowest up for the d = 3 fiber
  gcds of `solver`.  For inputs p and q it runs on plain integers: each
  coefficient in Z[x] is packed as its value at x = 2^k (Kronecker
  substitution), for 2^(k-1) above the bound
  (sum |p_i|_1)^(deg q) (sum |q_i|_1)^(deg p) on every x-coefficient of
  every member, and read back as balanced base-2^k digits; `resultant`
  unpacks only the last member, and `subresultants` each member when it
  is taken, so a fiber gcd that stops early unpacks no more.

There is one polynomial type, `ZPoly` (Z[x]), and one conversion into it:
`zpoly` clears a rational {degree: coefficient} dict over its least common
denominator, and `bivar_cols` clears a bivariate dict the same way once
and writes it into dense columns.  `ZPoly` has the exact division, the
pseudo-remainder, the primitive gcd and the primitive squarefree part,
which the fiber gcds and the curve verdicts of `faces` run on.  Only
gcds, degrees and signs are read from them, so the positive scale of a
cleared polynomial never matters.

Real roots are isolated and refined in integers: the input is a squarefree
`ZPoly`, its Sturm chain is built by signed pseudo-remainders
(`_sturm_chain`, the one remainder sequence over Z, whose last member is
`ZPoly.gcd`), and an isolating interval is an integer triple (a, b, D)
for (a/D, b/D], on one side of 0 and with no root at its left end.  D is
a power of two: isolation starts from (-2^k, 2^k], 2^k the least power of
two above the Cauchy bound, and every bisection halves, so no endpoint
carries the lead.  Sturm variations (isolation) and the sign of the polynomial
(refinement) are both read by `sign_at`, a homogeneous Horner sum at a
point n/d.  The sign of a second polynomial P at an isolated root of h is
exact too: it is the variation drop of one Sturm-Tarski sequence of h and
h'P, which does not depend on the root, so a `tarski_query`, the one
entry point for such signs, builds it once and reads it at every
isolating interval of h it is asked about.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


class DimensionError(ValueError):
    """Matrix or vector dimensions do not fit the operation."""


def parse_rat(text: str) -> Fraction:
    """Parse a decimal-free rational string 'p/q' (q nonzero) or 'n'."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational string: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def common_denominator(values: Iterable) -> tuple:
    """Ints and Fractions over their least common denominator D > 0:
    (the integer numerators, D)."""
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


# ---------------------------------------------------------------------------
# one elimination, fraction-free Bareiss
# (det and the volume)
# ---------------------------------------------------------------------------

def _bareiss_row(state: tuple, row: list) -> tuple:
    """Add a row to a fraction-free (Bareiss) elimination with column
    pivoting; the state, from ((), 1), is (the kept rows, reduced, with
    their pivot columns, the last pivot), and a dependent row reduces to
    zero and is not kept.  Each pivot is a minor of the kept rows in the
    pivot columns (Sylvester's identity), so each division is exact: for
    n independent rows of length n, the determinant with the columns in
    pivot order."""
    prev = 1
    for prow, c in state[0]:
        p, f = prow[c], row[c]
        row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        prev = p
    c = next((j for j, x in enumerate(row) if x), None)
    return state if c is None else (state[0] + ((row, c),), row[c])


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free elimination, the last pivot with
    the sign of its column order; 1 for the 0x0 matrix.  Each row is
    cleared over its common denominator first, which divides the
    determinant by their product."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant requires a square matrix")
    cleared = [common_denominator(r) for r in rows]
    kept, last = reduce(_bareiss_row, (nums for nums, _ in cleared), ((), 1))
    if len(kept) < n:
        return Fraction(0)
    cols = [c for _, c in kept]
    inversions = sum(x > y for i, x in enumerate(cols) for y in cols[i + 1:])
    return Fraction((-1) ** inversions * last, prod(den for _, den in cleared))


# ---------------------------------------------------------------------------
# integer lattice routines: one elimination, column Hermite form
# (kernel, lattice chart and lift, lattice index)
# ---------------------------------------------------------------------------

def _column_hnf(a: list) -> tuple:
    """Column-style Hermite reduction.

    Returns (H, U) with A @ U = H, U unimodular, and H in column echelon
    form (zero columns pushed right, positive leading entries).  H is kept
    above U in one list of rows, so each column operation is one loop.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    hu = [list(map(int, row)) for row in a] + [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for lead in hu[:m]:
        if r == n:
            break
        # gcd-reduce the entries of this row of H across columns r..n-1
        while True:
            cols = [c for c in range(r, n) if lead[c]]
            if not cols:
                break
            piv = min(cols, key=lambda c: abs(lead[c]))
            if piv != r:
                for row in hu:
                    row[r], row[piv] = row[piv], row[r]
            if lead[r] < 0:
                for row in hu:
                    row[r] = -row[r]
            done = True
            for c in range(r + 1, n):
                if lead[c]:
                    k = lead[c] // lead[r]
                    for row in hu:
                        row[c] -= k * row[r]
                    if lead[c]:
                        done = False
            if done:
                break
        if lead[r]:
            r += 1
    return hu[:m], hu[m:]


class LatticeChart:
    """Integer coordinates on the lattice points of the affine hull of a
    point set P, with origin p0 = the first point.

    One column Hermite form of the difference rows D (rows p - p0) gives
    the whole chart: D U = H with U unimodular, and the r = dim aff(P)
    nonzero columns of H come first.  `equations`, the last n - r columns
    of U, are a saturated basis of the integer vectors orthogonal to
    aff(P) - p0.  With U1 the first r columns of U, the chart is
    coords(p) = (p - p0) U1, and its lift is lift(a) = U1 a.

    Why: let L = (aff(P) - p0) & Z^n.  An x in L is a rational combination
    of the rows of D, and the last n - r columns of D U vanish, so
    x U = (x U1, 0).  Conversely, for any integer c, x = (c, 0) U^-1 is an
    integer vector orthogonal to every equation, hence to the kernel of D,
    so x lies in the row space of D and in L.  So x -> x U1 is a bijection
    from L onto Z^r, and <U1 a, x> = <a, x U1>: the lift of a chart normal
    is an ambient normal with the same values on L.
    """

    __slots__ = ("origin", "equations", "dim", "_u1")

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = list(points)
        self.origin = p0 = pts[0]
        h, u = _column_hnf([[x - y for x, y in zip(p, p0)] for p in pts])
        self.dim = r = sum(map(any, zip(*h)))
        self.equations = [list(col) for col in zip(*u)][r:]
        self._u1 = [row[:r] for row in u]

    def coords(self, p: Sequence[int]) -> tuple:
        """(p - p0) U1, the chart coordinates of a lattice point p of aff(P)."""
        v = [x - y for x, y in zip(p, self.origin)]
        return tuple(sum(x * w for x, w in zip(v, col)) for col in zip(*self._u1))

    def lift(self, a: Sequence[int]) -> list:
        """U1 a, the integer x with <x, p - p0> = <a, coords(p)> on aff(P)."""
        return [sum(w * y for w, y in zip(row, a)) for row in self._u1]


def lattice_index(generators: Sequence[Sequence[int]]) -> Optional[int]:
    """Index in Z^d of the subgroup generated by the given integer vectors.

    With the generators as columns, the column Hermite form generates the
    same subgroup; it has finite index iff there are d pivots, which then
    sit on the diagonal of a lower triangular leading block whose
    determinant, the product of the pivots, is the index.  Returns None
    when the generators are rank deficient (infinite index).
    """
    gens = [list(map(int, g)) for g in generators]
    if not gens:
        raise DimensionError("need at least one generator")
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        raise DimensionError("generators of mixed length")
    if len(gens) < d:
        return None
    h, _u = _column_hnf([list(col) for col in zip(*gens)])
    pivots = [h[i][i] for i in range(d)]
    return None if 0 in pivots else prod(pivots)


def primitive(vec: Sequence[int]) -> tuple:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*vec) or 1
    return tuple(x // g for x in vec)


# ---------------------------------------------------------------------------
# univariate polynomials over Z
# ---------------------------------------------------------------------------

def _prem(a: Sequence[int], b: Sequence[int]) -> list:
    """The coefficients of `ZPoly.prem`, top zeros dropped, for nonzero b."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    for s in reversed(range(len(rem) - db)):
        t = rem[-1]
        rem = [lead * c for c in rem[:-1]]
        if t:
            for i in range(db):
                rem[s + i] -= t * b[i]
    while rem and not rem[-1]:
        rem.pop()
    return rem


class ZPoly:
    """Dense univariate polynomial with integer coefficients, ascending.

    `prem` is the pseudo-remainder of the Sturm chains below, and `gcd`, the
    primitive gcd of the fiber gcds in `solver`, reads the last member of
    one of them.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"ZPoly({list(self.coeffs)})"

    def __mul__(self, other):
        if isinstance(other, int):
            return ZPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return ZPoly(out)

    def __floordiv__(self, other: "ZPoly") -> "ZPoly":
        """Exact quotient by a nonzero ZPoly; raises ArithmeticError on a
        nonzero remainder."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        lead = b[-1]
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - db)
        for s in reversed(range(len(q))):
            t, r = divmod(rem[s + db], lead)
            if r:
                raise ArithmeticError("division was not exact")
            q[s] = t
            if t:
                for i in range(db):
                    rem[s + i] -= t * b[i]
        if any(rem[:db]):
            raise ArithmeticError("division was not exact")
        return ZPoly(q)

    def prem(self, other: "ZPoly") -> "ZPoly":
        """The pseudo-remainder lead(other)^k * self mod other, with
        k = max(0, deg self - deg other + 1): the remainder over Q times a
        nonzero integer, found without division.  Each of the k steps
        multiplies by lead(other) and cancels the top coefficient."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        return ZPoly(_prem(self.coeffs, other.coeffs))

    def derivative(self) -> "ZPoly":
        return ZPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def strip_x_power(self) -> tuple:
        """(k, p) with self = x^k p and p(0) != 0; (0, 0) for zero."""
        cs = self.coeffs
        k = next((i for i, c in enumerate(cs) if c), 0)
        return k, ZPoly(cs[k:])

    def primitive(self) -> "ZPoly":
        """self over the gcd of its coefficients, with a positive lead; the
        zero polynomial stays zero."""
        cs = self.coeffs
        if not cs:
            return self
        g = gcd(*cs)
        if cs[-1] < 0:
            g = -g
        return self if g == 1 else ZPoly([c // g for c in cs])

    def gcd(self, other: "ZPoly") -> "ZPoly":
        """The primitive gcd: by Gauss's lemma the gcd over Q, scaled to a
        primitive integer polynomial with a positive lead: the last member
        of the signed remainder sequence (`_sturm_chain`) of the primitive
        inputs, higher degree first; the other input when one is zero."""
        a, b = self.primitive(), other.primitive()
        if a.degree < b.degree:
            a, b = b, a
        return ZPoly(_sturm_chain(a, b)[-1]).primitive() if b else a

    def squarefree(self) -> "ZPoly":
        """The primitive squarefree part self / gcd(self, self'), an exact
        quotient in Z[x] by Gauss's lemma; 1 for a nonzero constant."""
        return (self // self.gcd(self.derivative())).primitive()


def zpoly(terms: dict) -> tuple:
    """(P, D) with P / D the polynomial with coefficient c at degree k for
    each {k: c}: D > 0 is the least common denominator of the c."""
    nums, den = common_denominator(terms.values())
    coeffs = [0] * (max(terms, default=-1) + 1)
    for k, c in zip(terms, nums):
        coeffs[k] = c
    return ZPoly(coeffs), den


def sign_at(c: Sequence[int], n: int, d: int) -> int:
    """Sign of p(n/d), d > 0, for p with integer coefficients c (ascending):
    the sign of d^k p(n/d) = sum c_i n^i d^(k-i), summed by Horner in n."""
    if not c:
        return 0
    acc = c[-1]
    pw = 1
    for ci in reversed(c[:-1]):
        pw *= d
        acc = acc * n + ci * pw
    return (acc > 0) - (acc < 0)


def _sturm_chain(p: ZPoly, q: ZPoly) -> list:
    """The signed remainder sequence of p and q (the Sturm chain for
    q = p') by signed pseudo-remainders: each member is the integer
    coefficients of a positive multiple of the signed remainder, so it has
    the same signs everywhere.

    For positive multiples a, b of two consecutive members,
    prem(a, b) = lead(b)^k rem(a, b) with k = deg a - deg b + 1, so
    -sign(lead(b))^k prem(a, b) over its positive content is a positive
    multiple of the next member, -rem.
    """
    chain = [p, q]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = a.prem(b)
        if not r:
            break
        g = gcd(*r.coeffs)
        # -sign(lead(b))^k is +1 iff lead(b) < 0 and k is odd
        if b.coeffs[-1] > 0 or (a.degree - b.degree) % 2:
            g = -g
        chain.append(ZPoly([x // g for x in r.coeffs]))
    return [q.coeffs for q in chain]


def _variations(chain: list, x: Optional[tuple], side: int = 1) -> int:
    """Sign variations of the chain at x = (n, d), d > 0, or, when x is
    None, at +oo (side 1) or -oo (side -1); zeros are skipped."""
    if x is None:
        signs = ((1 if c[-1] > 0 else -1) * side ** (len(c) - 1) for c in chain)
    else:
        signs = (sign_at(c, *x) for c in chain)
    count = 0
    prev = 0
    for s in signs:
        if s:
            count += prev == -s
            prev = s
    return count


def _point(x) -> Optional[tuple]:
    if x is None:
        return None
    x = Fraction(x)
    return x.numerator, x.denominator


def sturm_count(p: ZPoly, a=None, b=None) -> int:
    """Number of distinct real roots of p in (a, b], 0 when a >= b.

    None stands for -oo (as a) or +oo (as b).
    """
    if not p:
        raise ValueError("zero polynomial")
    sf = p.squarefree()
    if sf.degree < 1 or None not in (a, b) and Fraction(a) >= Fraction(b):
        return 0
    chain = _sturm_chain(sf, sf.derivative())
    return _variations(chain, _point(a), -1) - _variations(chain, _point(b), 1)


def isolate_real_roots(p: ZPoly) -> list:
    """Disjoint isolating intervals (a/D, b/D], given as (a, b, D), with
    exactly one real root each of the squarefree p, in increasing order,
    each on one side of 0 (a b >= 0) and with no root at its left end
    (p(a/D) != 0), and D a power of two: bisection of (-2^k, 2^k], D = 1,
    for the least 2^k above B = 1 + max |c_i| / |lead|, the Cauchy bound,
    counted by one Sturm chain, which goes on past one root while an
    interval holds 0 inside or a root at its left end.  Every endpoint is
    dyadic, so no evaluation carries the lead.  The bisection runs on a
    stack of (a, b, D, root count, variations at a/D), with the right half
    pushed first, so the left half is taken first and the intervals come
    out in order."""
    if p.degree < 1:
        return []
    c = p.coeffs
    chain = _sturm_chain(p, p.derivative())
    total = _variations(chain, None, -1) - _variations(chain, None, 1)
    # 2^k > B iff 2^k >= floor(max / |lead|) + 2
    b = 1 << (max(abs(x) for x in c[:-1]) // abs(c[-1]) + 1).bit_length()
    out = []
    stack = [(-b, b, 1, total, _variations(chain, (-b, 1)))]
    while stack:
        lo, hi, den, count, vlo = stack.pop()
        if count == 1 and lo * hi >= 0 and sign_at(c, lo, den):
            out.append((lo, hi, den))
        elif count:
            mid = lo + hi
            vmid = _variations(chain, (mid, 2 * den))
            left = vlo - vmid
            stack.append((mid, 2 * hi, 2 * den, count - left, vmid))
            stack.append((2 * lo, mid, 2 * den, left, vlo))
    return out


def refine_root_interval(p: ZPoly, interval: tuple, width: Fraction) -> tuple:
    """Bisect an isolating interval (a, b, D) of squarefree p, standing for
    (a/D, b/D], down to width; returns the same form.

    The sign of p alone decides each step, with no Sturm chain: the one
    root r in the interval is simple, so p changes sign at r and nowhere
    else in it.  Hence r <= m, the midpoint, iff p(m) = 0 or p(m) has the
    sign of p(b/D).  That covers r = b/D too: then p(b/D) = 0 and p(m) is
    not, so the step goes right.  The denominator doubles with each step.
    The left end moves only where p is nonzero, so p(a/D) != 0 and
    a b >= 0 are kept.
    """
    c = p.coeffs
    a, b, den = interval
    wn, wd = width.numerator, width.denominator
    s_hi = sign_at(c, b, den)
    while (b - a) * wd > wn * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        s = sign_at(c, mid, den)
        if s == 0 or s == s_hi:
            b, s_hi = mid, s
        else:
            a = mid
    return a, b, den


def tarski_query(P: ZPoly, h: ZPoly):
    """The sign of P at the isolated roots of the squarefree h (positive
    lead), as a function of an isolating interval (a, b, D) of h, for
    (a/D, b/D] with h(a/D) != 0, as isolation guarantees.  A root on the
    right end is read directly; else by the Sturm-Tarski theorem the
    variation drop V(a/D) - V(b/D) of the signed remainder sequence of h
    and h'P is the sign of P at the root.  h'P may be replaced by its
    pseudo-remainder mod h, a positive multiple of the remainder: that adds
    a polynomial to h'P / h, which has no pole, so the variation drop is
    kept.  The sequence does not depend on the interval: it is built once,
    here, and read at the ends of every interval the query is asked."""
    chain = _sturm_chain(h, (h.derivative() * P).prem(h))

    def sign(interval: tuple) -> int:
        a, b, d = interval
        if sign_at(h.coeffs, b, d) == 0:
            return sign_at(P.coeffs, b, d)
        return _variations(chain, (a, d)) - _variations(chain, (b, d))

    return sign


# ---------------------------------------------------------------------------
# one subresultant chain (the resultant, and the gcds over the roots of x)
# ---------------------------------------------------------------------------

class DegenerateEliminationError(ValueError):
    """Both inputs are constant in the eliminated variable."""


def bivar_cols(poly: dict, axis: int) -> list:
    """Coefficient list of D * poly, for a bivariate polynomial {(i, j): c}
    and D the least common denominator of its coefficients, in the variable
    `axis`, entries `ZPoly` in the other one: the input form of
    `resultant`.  The columns are built dense, over one denominator."""
    nums, _ = common_denominator(poly.values())
    width = max(e[1 - axis] for e in poly) + 1
    cols = [[0] * width for _ in range(max(e[axis] for e in poly) + 1)]
    for e, c in zip(poly, nums):
        cols[e[axis]][e[1 - axis]] = c
    return [ZPoly(col) for col in cols]


def _pack(p: ZPoly, k: int) -> int:
    """p(2^k), the Kronecker substitution of x = 2^k."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << k) + c
    return v


def _unpack(v: int, k: int) -> ZPoly:
    """The p with p(2^k) = v and every |coefficient| < 2^(k-1): the
    balanced base-2^k digits of v, lowest first."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << k
        out.append(c)
        v = (v - c) >> k
    return ZPoly(out)


def _packed_chain(p: Sequence[ZPoly], q: Sequence[ZPoly]) -> tuple:
    """(k, the chain by descending j, the resultant) of `subresultants`,
    with every coefficient in Z[x] packed as its value at x = 2^k (`_pack`):
    a member is a list of ints."""
    P, Q = list(p), list(q)
    for f in (P, Q):
        while f and not f[-1]:
            f.pop()
    m, n = len(P) - 1, len(Q) - 1
    # a member has at most n rows of p and m rows of q; a power of at
    # least 1 also bounds the inputs themselves
    a, b = (sum(abs(c) for col in f for c in col.coeffs) for f in (P, Q))
    k = (a ** max(n, 1) * b ** max(m, 1)).bit_length() + 1
    if not P or not Q:
        return k, [], 0
    if m == n == 0:
        raise DegenerateEliminationError("both inputs constant in the eliminated variable")
    A, B = [_pack(c, k) for c in P], [_pack(c, k) for c in Q]
    sign = 1
    if m < n:
        sign = (-1) ** (m * n)
        A, B, m, n = B, A, n, m
    chain, g, h = [], 1, 1
    while True:
        delta = m - n
        if m & n & 1:
            sign = -sign
        S = B
        if delta > 1:
            # divide the product: lead^(delta-1) / h^(delta-1) alone is not exact
            lead, den = S[-1] ** (delta - 1), h ** (delta - 1)
            S = [c * lead // den for c in S]
        chain.append(S)
        if n == 0:
            return k, chain, S[0] * sign
        R = _prem(A, B)
        if not R:
            return k, chain, 0
        div = g * h ** delta
        A, B = B, [c // div for c in R]
        m, n = n, len(R) - 1
        g, h = A[-1], S[-1] if delta else h


def subresultants(p: Sequence[ZPoly], q: Sequence[ZPoly]) -> Iterator[list]:
    """The regular subresultants in y of two polynomials given as
    y-coefficient lists over Z[x]: S_j by ascending j, each a y-coefficient
    list over Z[x] unpacked only when the iterator reaches it.  Each S_j
    has degree j and is known up to sign; its lead is psc_j, and the psc of
    every other j vanishes.  The chain runs down to S_0, or, when the
    resultant vanishes, to the gcd, which is then the first member taken.
    The packed chain is computed at the call; the resultant is
    `resultant`.

    It is the subresultant pseudo-remainder sequence (Cohen 1993, Alg.
    3.3.7, without content removal): each member is prem(A, B) / (g h^d),
    g the lead of A and h its psc, d = deg A - deg B.  Below a gap d > 1
    the member B is defective, and the regular S_j is lead^(d-1) B /
    h^(d-1), whose lead is the next h (Lazard).  With Cohen's sign, S_0 is
    the Sylvester determinant: n rows of p and m of q, for m = deg p and
    n = deg q.

    The loop runs on plain integers, each coefficient in Z[x] packed as
    its value at x = 2^k (Kronecker substitution; von zur Gathen &
    Gerhard, Modern Computer Algebra, 8.4), and it is exact:

    * every member, regular or defective, is up to sign a determinant of
      a Sylvester submatrix with at most n rows of p and m of q, so each
      x-coefficient of it is at most B = (sum |p_i|_1)^n (sum |q_i|_1)^m
      in absolute value, and with 2^(k-1) > B it is the balanced base-2^k
      digits of its packed value (`_unpack`), which is 0 only for 0;
    * evaluation at 2^k is a ring map, so the divisions of Lazard's
      scaling and of prem(A, B) by g h^d, exact in Z[x], stay exact on the
      packed values, whose divisors are bounded nonzero members, nonzero
      at 2^k;
    * every coefficient of prem(A, B) is g h^d times a coefficient of a
      bounded member, so it packs to 0 exactly when it is 0: the degrees,
      the gaps and the stop at the gcd read as they do in Z[x].
    """
    k, chain, _ = _packed_chain(p, q)
    return ([_unpack(c, k) for c in S] for S in reversed(chain))


def resultant(p: Sequence[ZPoly], q: Sequence[ZPoly]) -> ZPoly:
    """Resultant in y of two polynomials given as y-coefficient lists over
    Z[x]: the Sylvester determinant, the last member of the subresultant
    chain, the only one unpacked."""
    k, _, r = _packed_chain(p, q)
    return _unpack(r, k)
