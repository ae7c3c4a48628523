"""Exact counting and certified extraction of complex, real, and positive
solutions of the Einstein system for d <= 3.

Counting is resultant-based.  For d = 3 the fiber over every eliminant root
is analyzed through gcd computations in the quotient ring Q[x]/(h) with
dynamic splitting of the (squarefree) modulus, so the distinct-solution
count is exact without any root approximation.  So are the real and
positive counts (`_real_d3`): a box pairs an isolated root a of the
x-eliminant with one b of the y-eliminant, and holds a solution iff the
gcd of the system and the y-eliminant over a's branch changes sign across
b's interval, read at a by one Sturm-Tarski sequence, singular or not.
That sequence depends on the branch and b's interval only, so each is
built once per solve and read at every root a of the branch.

The system is the Einstein equations
f_i = (x_i/m_i) ds/dx_i - (x_{i+1}/m_{i+1}) ds/dx_{i+1} of the scalar
curvature s, set to x_d = 1 and divided by their least monomials.  It is
built in integers (`_integer_system`), straight from s: times lcm(dims)
and the common denominator of the coefficients of s, with no Fraction
polynomial in between.  The elimination runs in integers, on one
subresultant chain in y over Z[x]: `exact.resultant` is its last member,
and a fiber gcd reads its members from the lowest up through
`exact.subresultants`, which hands each over only when it is taken.
The fiber gcds work in (Z[x]/(H))[y], H the primitive integer multiple
of h.
A y-coefficient list is reduced mod H with one power of lead(H) for all
its entries and divided by its integer content (`_reduce`): a unit of
Q[x]/(h) times it, which changes no zero test, no gcd degree and no sign
change at a root of h, so no modular inverse is needed.

The splitting first trims each input (`_trim`): reduce it mod H and drop
zero leads; when the lead is a zero divisor, split H into the primitive
g = gcd(lead, H) and the exact quotient H / g (both in Z[x], by Gauss's
lemma) and recurse on both.  Then both leads are nonzero at each root a
of a branch, so the subresultants S_j specialize at a, and the gcd over a
is S_j(a, y) for the least j with psc_j(a) != 0: the branch is split by
its gcds with the psc_j (`_fiber_gcd_branches`).  Over each branch h of the
x-eliminant, S = gcd(g1, g2, q2) in (Q[x]/(h))[y], q2 the y-eliminant,
has a lead invertible mod h (`_fibers`).  q2 is squarefree with
q2(0) != 0, so at every root a of h the roots of S(a, y) are distinct and
nonzero: they are the y-coordinates of the torus solutions over a.  This
one fiber gcd gives both the distinct count, the sum of deg(h) * deg_y(S)
over the branches, and the box decisions of the real count.  A one-point
fiber, a gcd G1 y + G0 of g1 and g2, needs no gcd with q2: its zero over
a is a torus point, and then a root of q2, iff G0(a) != 0.  The box scan
over a real root a stops once deg_y(S) solutions are placed, and when
deg_y(S) = 1 the last interval of q2 is taken without a decision, since
the one real zero of S(a, y) lies in exactly one of them.

The certification keeps one integer form from the resultant to the
solution box: the eliminants themselves, and isolating intervals (a, b, D)
for (a/D, b/D] that `exact.isolate_real_roots` returns and refinement
bisects by the sign of the eliminant, each on one side of 0 with no root
at its left end, and D a power of two.  Only finding the real solutions
depends on d: for d = 2 each isolating interval of the squarefree
eliminant is one, for d = 3 each box the scan places.  Both dimensions
share one record step (`_record_real`): a real solution is one isolating
interval per coordinate, counted, positive when every interval lies right
of 0, and reported as its exact point when every coordinate is rational,
else as its intervals refined to width at most 2^-20; only the report
entry is made of Fractions, and an exact point is checked on the integer
system.  The exact box decision is its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from math import gcd, lcm, prod
from typing import List, Optional, Tuple

from .curvature import LaurentPoly, scalar_curvature
from .exact import (
    ZPoly,
    bivar_cols,
    common_denominator,
    isolate_real_roots,
    refine_root_interval,
    resultant,
    sign_at,
    subresultants,
    tarski_query,
    zpoly,
)
from .homspace import HomSpaceData


class UnsupportedDimensionError(ValueError):
    """Solving is implemented for d in {2, 3} only."""


class DegenerateSystemError(ValueError):
    """The system has a positive-dimensional solution set (or is zero)."""


# ---------------------------------------------------------------------------
# combinatorial bounds
# ---------------------------------------------------------------------------

def delannoy(n: int) -> int:
    """Central Delannoy number by the lattice-path array recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1] * (n + 1)
    for _ in range(n):
        new = [1] * (n + 1)
        for j in range(1, n + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[n]


def legendre_at_3(n: int) -> int:
    """Legendre polynomial P_n evaluated at 3, by the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p0, p1 = Fraction(1), Fraction(3)
    if n == 0:
        return 1
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * 3 * p1 - k * p0) / (k + 1)
    assert p1.denominator == 1
    return int(p1)


# ---------------------------------------------------------------------------
# the Einstein system
# ---------------------------------------------------------------------------

def _shift_nonneg(poly: dict) -> dict:
    """A polynomial {exponent tuple: c} over its least monomial: each
    exponent minus the coordinatewise minimum, so no variable divides it."""
    mins = [min(col) for col in zip(*poly)]
    return {tuple(x - m for x, m in zip(e, mins)): c for e, c in poly.items()}


def _integer_system(data: HomSpaceData, s: LaurentPoly) -> list:
    """The d-1 Einstein equations
    f_i = (x_i/m_i) ds/dx_i - (x_{i+1}/m_{i+1}) ds/dx_{i+1}
    of s = `scalar_curvature(data)`, dehomogenized and times one positive
    integer, built in integers straight from s: with L = lcm(dims) and D
    the common denominator of the coefficients of s, the term c x^-a of s
    gives L D f_i the integer L D c (a_{i+1} / m_{i+1} - a_i / m_i).  Every
    exponent of s has coordinate sum 1, so f_i is homogeneous: it is set to
    x_d = 1 and divided by its least monomial, a factor whose torus zeros
    are excluded anyway.  Each returned poly is a dict of nonnegative true
    exponent tuples in x_1..x_{d-1}."""
    nums, den = common_denominator(s.terms.values())
    big = lcm(*data.dims)
    w = [big // m for m in data.dims]
    out = []
    for i in range(data.d - 1):
        f = {}
        for a, c in zip(s.terms, nums):
            v = c * (a[i + 1] * w[i + 1] - a[i] * w[i])
            if v:
                f[tuple(-ai for ai in a[:-1])] = v
        if not f:
            raise DegenerateSystemError("zero polynomial after clearing")
        out.append(_shift_nonneg(f))
    return out


# ---------------------------------------------------------------------------
# quotient-ring gcd machinery (dynamic modulus splitting)
# ---------------------------------------------------------------------------

def _reduce(A: list, h: ZPoly) -> list:
    """A y-coefficient list over Z[x] reduced mod h with one power of
    lead(h) for all entries, lead(h)^e A mod h, then divided by the integer
    content of the whole list, with zero leads dropped: a nonzero integer
    multiple of A mod h."""
    dh = h.degree
    powers = [max(0, c.degree - dh + 1) for c in A]
    e = max(powers, default=0)
    lead = h.coeffs[-1]
    out = [c.prem(h) * lead ** (e - k) for c, k in zip(A, powers)]
    while out and not out[-1]:
        out.pop()
    g = gcd(*(x for c in out for x in c.coeffs))
    return [ZPoly([x // g for x in c.coeffs]) for c in out] if g > 1 else out


def _trim(A: list, h: ZPoly) -> list:
    """[(h_branch, A_branch)] over a splitting of h: A's y-coefficients
    reduced mod h_branch (`_reduce`), so the lead is invertible mod
    h_branch (or A_branch is empty).  A lead that is a zero divisor splits h
    into the primitive g = gcd(lead, h) and the exact quotient h / g."""
    A = _reduce(A, h)
    if not A:
        return [(h, A)]
    g = A[-1].gcd(h)
    if g.degree == 0:
        return [(h, A)]
    return _trim(A, h // g) + _trim(A, g)


def _fiber_gcd_branches(A: list, B: list, h: ZPoly) -> list:
    """[(h_branch, G)] with G = gcd of A and B in (Q[x]/(h_branch))[y], up
    to a unit, with a lead invertible mod h_branch: A is trimmed over h, B
    over each branch of A, and the gcd with a zero is the other input, a
    unit its own gcd.  Otherwise the branch is split by its gcds with the
    psc_j of the subresultant chain, from the lowest j up, and the part
    where psc_j is a unit gets S_j (Basu, Pollack & Roy 2006, ch. 8)."""
    out = []
    for ha, A1 in _trim(A, h):
        for hb, B1 in _trim(B, ha):
            if not (A1 or B1):
                raise DegenerateSystemError("both polynomials vanish on a whole branch")
            if min(len(A1), len(B1)) <= 1:
                out.append((hb, A1 if len(A1) == 1 or not B1 else B1))
                continue
            # the top member is the input of lower degree times a power of
            # its lead, a unit on hb: the input is smaller
            top = A1 if len(A1) < len(B1) else B1
            for S in subresultants(A1, B1):
                if len(S) == len(top):
                    S = top
                g = S[-1].gcd(hb)
                if g.degree < hb.degree:
                    part = hb // g
                    out.append((part, _reduce(S, part)))
                    hb = g
                if hb.degree == 0:
                    break
    return out


def _eliminant(g1: dict, g2: dict, axis: int) -> Tuple[ZPoly, list]:
    """The torus eliminant H of g1, g2 for the variable `axis`: the
    primitive squarefree part of the resultant with its x power stripped
    (1 when that is constant), and the branches [(h, G)] of the gcd G of
    g1 and g2 over a splitting of H (none when H is constant).

    When both are constant in that variable, the resultant is the empty
    Sylvester determinant 1, unless they share a factor."""
    A = bivar_cols(g1, axis)
    B = bivar_cols(g2, axis)
    if len(A) == 1 and len(B) == 1:
        if A[0].gcd(B[0]).degree > 0:
            raise DegenerateSystemError("common factor present")
        return ZPoly([1]), []
    r = resultant(A, B)
    if not r:
        raise DegenerateSystemError("resultant vanished; common factor present")
    H = r.strip_x_power()[1].squarefree()
    if H.degree <= 0:
        return H, []
    return H, _fiber_gcd_branches(A, B, H)


def _fibers(branches: list, q: ZPoly) -> Tuple[list, int]:
    """[(h, S)] with S the gcd of each branch's G (`_eliminant`) and the
    other eliminant q in (Q[x]/(h))[y], up to a unit, with a lead
    invertible mod h, and the number of torus solutions over them, the sum
    of deg(h) * deg_y(S).  At a root a of h the roots of S(a, y) are the
    other coordinates of the solutions over a, each a simple root of q.

    A one-point fiber G = G1 y + G0 needs no gcd: its zero y = -G0(a)/G1(a)
    is a torus point, and so a root of q, iff G0(a) != 0.  So S = G where
    G0 is a unit and S = G1 where G0 vanishes, over the split of h by
    `_trim([G0], h)`.  A constant G has no zero and is its own S."""
    Q = [ZPoly([c]) for c in q.coeffs]
    fibers = []
    for h, G in branches:
        if len(G) > 2:
            fibers += _fiber_gcd_branches(G, Q, h)
        elif len(G) == 2:
            fibers += [(hb, G if G0 else G[1:]) for hb, G0 in _trim(G[:1], h)]
        else:
            fibers.append((h, G))
    return fibers, sum(h.degree * (len(S) - 1) for h, S in fibers)


def common_torus_zero(f: dict, g: dict, k: dict) -> bool:
    """Whether the bivariate f, g and k ({(i, j): c}, k empty for zero)
    have a common zero with both coordinates nonzero;
    `DegenerateSystemError` when f and g have a common factor.  The
    x-order fibers (h, S) of f and g (`_fibers`, against the y-eliminant
    with its zero root stripped) hold their common torus zeros, and one of
    those is a zero of k iff gcd(S, k) keeps deg_y > 0 on some branch of h."""
    _, branches = _eliminant(f, g, 1)
    fibers, _ = _fibers(branches, _eliminant(f, g, 0)[0])
    K = bivar_cols(k, 1) if k else []
    return any(len(G) > 1 for h, S in fibers for _, G in _fiber_gcd_branches(S, K, h))


# ---------------------------------------------------------------------------
# solution sets
# ---------------------------------------------------------------------------

@dataclass
class SolutionSet:
    d: int
    distinct_complex: int
    real_count: Optional[int] = None
    positive_count: Optional[int] = None
    solutions: List[dict] = field(default_factory=list)
    genericity: bool = True
    multiplicity_excess: int = 0
    warnings: List[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return dict(vars(self))


def count_complex(data: HomSpaceData) -> SolutionSet:
    """Distinct complex solutions of the Einstein system modulo scaling,
    torus solutions only (roots with a zero coordinate are excluded)."""
    return _solve(data, certify=False)


def real_positive(data: HomSpaceData, s: Optional[LaurentPoly] = None) -> SolutionSet:
    """count_complex enriched with certified real and positive counts and
    the solutions: rational points exactly, any other as a refined box
    decided to hold one.  `s` is `scalar_curvature(data)` when the caller
    already holds it."""
    return _solve(data, certify=True, s=s)


def _solve(data: HomSpaceData, certify: bool, s: Optional[LaurentPoly] = None) -> SolutionSet:
    """One pass for both entry points: the system is built and
    dehomogenized once, and the eliminants that give the complex count
    are the ones the real/positive certification isolates."""
    if data.d not in (2, 3):
        raise UnsupportedDimensionError(
            f"complex counting is implemented for d in {{2, 3}}, got d = {data.d}"
        )
    system = _integer_system(data, scalar_curvature(data) if s is None else s)
    if data.d == 2:
        # the cleared polynomial has a nonzero constant term: a torus part
        p, _ = zpoly({e[0]: c for e, c in system[0].items()})
        sf = p.squarefree()
        out = SolutionSet(2, sf.degree, multiplicity_excess=p.degree - sf.degree)
        if certify:
            _record_real(out, [[(sf, i)] for i in isolate_real_roots(sf)], system)
        return out
    g1, g2 = system
    q1, branches = _eliminant(g1, g2, 1)
    q2, branches_y = _eliminant(g1, g2, 0)
    fibers, count = _fibers(branches, q2)
    out = SolutionSet(3, count, genericity=count == _fibers(branches_y, q1)[1])
    if not out.genericity:
        out.warnings.append("eliminations in the two variable orders disagree")
    if certify:
        _record_real(out, _real_d3(q1, q2, fibers), system)
    return out


_BOX_WIDTH = Fraction(1, 2**20)


def _record_real(out: SolutionSet, real: list, system) -> None:
    """Set the real and positive counts and the solutions of `out` from the
    real solutions, each [(q, interval)] with one isolating interval of a
    squarefree eliminant q per coordinate, for d = 2 and d = 3 alike; as
    the interval lies on one side of 0, the root is positive iff a >= 0.
    An exact point is checked on `system`, the `_integer_system`."""
    out.real_count = len(real)
    out.positive_count = sum(all(i[0] >= 0 for _, i in sol) for sol in real)
    for sol in real:
        x = list(takewhile(lambda r: r is not None, (_rational_root_in(q, i) for q, i in sol)))
        if len(x) == len(sol):
            assert all(sum(c * prod(map(pow, x, e)) for e, c in f.items()) == 0 for f in system)
            out.solutions.append({"x": [str(v) for v in x], "exact": True, "residual": "0"})
        else:
            box = [refine_root_interval(q, i, _BOX_WIDTH) for q, i in sol]
            out.solutions.append({
                "box": [[str(Fraction(a, d)), str(Fraction(b, d))] for a, b, d in box],
                "exact": False,
            })


def _rational_root_in(p: ZPoly, interval: tuple):
    """The root of the squarefree p in its isolating interval (lo/D, hi/D],
    given as (lo, hi, D), when it is rational, nonzero and cheap to find;
    else None.

    By the rational root theorem the denominator of a rational root divides
    the leading coefficient L, so the root is k / |L| for an integer k.  The
    interval is refined to width at most 1 / (2 |L|), which holds one such
    candidate at most: k = floor(hi |L| / D), when k / |L| > lo / D.  Only
    when both L and the lowest nonzero coefficient are at most 10**7 is the
    root searched for; past that it is reported by its box.
    """
    ints = p.coeffs
    den = abs(ints[-1])
    if abs(next(c for c in ints if c)) > 10**7 or den > 10**7:
        return None
    lo, hi, d = refine_root_interval(p, interval, Fraction(1, 2 * den))
    k = hi * den // d
    if k and k * d > lo * den and sign_at(ints, k, den) == 0:
        return Fraction(k, den)
    return None


def _at_y(S: list, n: int, d: int) -> ZPoly:
    """d^k S(x, n/d) in Z[x], S a y-coefficient list over Z[x], k = deg_y S."""
    k = len(S) - 1
    out = [0] * max(len(c.coeffs) for c in S)
    for j, c in enumerate(S):
        w = n**j * d ** (k - j)
        for i, x in enumerate(c.coeffs):
            out[i] += w * x
    return ZPoly(out)


def _fiber_at(fibers: list, i1: tuple) -> tuple:
    """The fiber (h, S) (`_fibers`) over the one root a of q1 in the
    isolating interval (lo, hi, D), q1(lo/D) != 0 by isolation: its branch
    h is the one that changes sign on the interval."""
    lo, hi, d = i1
    return next((h, S) for h, S in fibers
                if sign_at(h.coeffs, lo, d) != sign_at(h.coeffs, hi, d))


def _holds_solution(h: ZPoly, S: list, i1: tuple, i2: tuple, queries: dict) -> bool:
    """Whether the root a of q1 in i1 and b of q2 in i2 form a solution,
    for isolating intervals (lo, hi, D), no root at a left end by isolation,
    and a's fiber (h, S) (`_fiber_at`).  b is the one root of q2 in i2, so
    (a, b) is a solution iff S(a, y) vanishes at hi/D or changes sign across
    i2, S(a, lo/D) S(a, hi/D) <= 0, read at a by a `tarski_query` of that
    product and h.  The unit that S is known up to is nonzero at a and
    scales both values alike; a constant S is such a unit, and its square
    is positive.  The query depends on the fiber, named by its branch h,
    and i2 only: `queries` holds those built so far, by (h's coefficients,
    i2), and is filled here."""
    key = h.coeffs, i2
    query = queries.get(key)
    if query is None:
        lo, hi, d = i2
        query = queries[key] = tarski_query(_at_y(S, lo, d) * _at_y(S, hi, d), h)
    return query(i1) <= 0


def _real_d3(q1: ZPoly, q2: ZPoly, fibers: list) -> list:
    """The real solutions [(q1, i1), (q2, i2)], in scan order, over the
    boxes that pair a real root a of the x-eliminant q1 with one of the
    y-eliminant q2, with one exact decision per box (`_holds_solution` on
    a's fiber (h, S)), and one Tarski query per fiber and interval of q2,
    shared by the boxes of every root of h.

    The scan over a stops once it has placed deg_y S solutions, the most
    there are.  When deg_y S = 1, the one zero of S(a, y) is real, a
    simple root of q2, so it lies in exactly one isolating interval of q2:
    the last one is taken without a test when no earlier one held it."""
    iso2 = isolate_real_roots(q2)
    real = []
    if not iso2:
        return real
    # a fiber is named by its branch h, which no other fiber has
    queries = {}
    for i1 in isolate_real_roots(q1):
        h, S = _fiber_at(fibers, i1)
        left = len(S) - 1
        for j, i2 in enumerate(iso2):
            if not left:
                break
            last_of_one = len(S) == 2 and j == len(iso2) - 1
            if not last_of_one and not _holds_solution(h, S, i1, i2, queries):
                continue
            left -= 1
            real.append([(q1, i1), (q2, i2)])
    return real
