"""Exact counting and certified extraction of complex, real, and positive
solutions of the Einstein system for d <= 3, plus the volume/Delannoy bound
report.

Counting is resultant-based.  For d = 3 the fiber over every eliminant root
is analyzed through gcd computations in the quotient ring Q[x]/(h) with
dynamic splitting of the (squarefree) modulus, so the distinct-solution
count is exact without any root approximation.  Real and positive counts
are certified box by box (`_certify_d3`): a box with a rational coordinate
is decided exactly, and Krawczyk rounds over exact rational intervals
exclude any other box or certify it.  Only an irrational singular or
clustered solution is left as a "cluster separation failure", and then
the real count is a lower bound.

The elimination runs in integers.  The resultant is an integer Sylvester
determinant over Z[x] (`exact.resultant`), and the fiber gcds work in
(Z[x]/(H))[y], H the primitive integer multiple of h.  A y-coefficient
list is reduced mod H with one power of lead(H) for all its entries and
divided by its integer content (`_reduce`); a remainder step is the
pseudo-remainder step lead(B) rem - lead(rem) y^s B.  Both multiply by a
unit of Q[x]/(h), which changes no zero test and no gcd degree, so no
modular inverse is needed.

The splitting is one recursion (`_trim`): reduce a y-coefficient list mod
H and drop zero leads; when the lead is a zero divisor, split H into the
primitive g = gcd(lead, H) and the exact quotient H / g (both in Z[x], by
Gauss's lemma) and recurse on both.  The gcd G of g1 and g2 over a branch
h has a lead invertible mod h, so G(a, y) has the same degree k at every
root a of h, and its distinct nonzero roots, summed over the roots a,
number

    sum over the branches (hb, D) of gcd(G, dG/dy) of deg(hb) * (k - deg D)
      - deg gcd(G(x, 0), h),

where the subtracted term counts the roots a with G(a, 0) = 0; it is exact
because h is squarefree.

The certification keeps one integer form from the resultant to the
Krawczyk box: the eliminant H itself, and isolating intervals (a, b, D) for
(a/D, b/D] that `exact.isolate_real_roots` returns and refinement bisects
by the sign of H.  The Krawczyk test evaluates on their integer numerators;
only the report entries and the Krawczyk image are Fractions, the same
rationals Fraction interval arithmetic gives.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Optional, Sequence, Tuple

from .curvature import LaurentPoly, einstein_system
from .exact import (
    ZPoly,
    bivar_cols,
    common_denominator,
    format_rat,
    isolate_real_roots,
    refine_root_interval,
    resultant,
    sign_at,
    sturm_count,
    zpoly,
)
from .homspace import HomSpaceData, weight_polytope
from .infinity import FlatComplex, delta_min, flat_complex


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
# dehomogenization
# ---------------------------------------------------------------------------

def dehomogenize(system: Sequence[LaurentPoly]) -> Tuple[list, list]:
    """Set x_d = 1 and clear denominators by the minimal monomial.

    Returns (polys, removed) where each poly is a dict of nonnegative true
    exponent tuples in x_1..x_{d-1}, and removed[i] is the monomial shift
    (a common factor whose torus zeros are excluded anyway).
    """
    out = []
    removed = []
    for f in system:
        sums = {sum(e) for e in f.terms}
        if len(sums) > 1:
            raise ValueError("system is not homogeneous")
        n = f.num_vars - 1
        # homogeneity makes the true exponents distinct
        true_terms = {tuple(-ai for ai in a[:-1]): c for a, c in f.terms.items()}
        if not true_terms:
            raise DegenerateSystemError("zero polynomial after clearing")
        mins = tuple(min(e[i] for e in true_terms) for i in range(n))
        removed.append(mins)
        out.append({tuple(ei - m for ei, m in zip(e, mins)): c for e, c in true_terms.items()})
    return out, removed


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
    return [c // g for c in out] if g > 1 else out


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


def _poly_mod(A: list, B: list, h: ZPoly) -> list:
    """A multiple of the remainder of A by B in (Q[x]/(h))[y] by a unit,
    for lead(B) invertible mod h: each step is the pseudo-remainder step
    lead(B) rem - lead(rem) y^s B, reduced mod h."""
    lb = B[-1]
    db = len(B) - 1
    rem = _reduce(A, h)
    while len(rem) > db:
        lr = rem.pop()
        s = len(rem) - db
        rem = [lb * c for c in rem]
        for i, c in enumerate(B[:-1]):
            rem[s + i] -= lr * c
        rem = _reduce(rem, h)
    return rem


def _fiber_gcd_branches(A: list, B: list, h: ZPoly) -> list:
    """[(h_branch, G)] with G = gcd of A and B in (Q[x]/(h_branch))[y], up
    to a unit, trimmed so deg_y G is well-defined on the branch: A is
    trimmed over h, B over each branch of A, and one remainder step
    recurses."""
    out = []
    for ha, A1 in _trim(A, h):
        for hb, B1 in _trim(B, ha):
            if A1 and B1:
                a, b = (B1, A1) if len(A1) < len(B1) else (A1, B1)
                out += _fiber_gcd_branches(b, _poly_mod(a, b, hb), hb)
            elif A1 or B1:
                out.append((hb, A1 or B1))
            else:
                raise DegenerateSystemError("both polynomials vanish on a whole branch")
    return out


def _torus_roots(G: list, h: ZPoly) -> int:
    """Distinct nonzero y-roots of G(a, y), summed over the roots a of the
    squarefree h; lead(G) must be invertible mod h.  See the module
    docstring for the formula."""
    k = len(G) - 1
    deriv = [i * G[i] for i in range(1, k + 1)]
    total = sum(hb.degree * (k - (len(D) - 1)) for hb, D in _fiber_gcd_branches(G, deriv, h))
    return total - G[0].gcd(h).degree


def _eliminant(g1: dict, g2: dict, axis: int) -> Tuple[ZPoly, int]:
    """The torus eliminant H of g1, g2 for the variable `axis`: the
    primitive squarefree part of the resultant with its x power stripped
    (1 when that is constant), and the number of distinct torus solutions
    counted over its roots.

    When both are constant in that variable, the resultant is the empty
    Sylvester determinant 1 and the count 0, unless they share a factor."""
    A = bivar_cols(g1, axis)
    B = bivar_cols(g2, axis)
    if len(A) == 1 and len(B) == 1:
        if A[0].gcd(B[0]).degree > 0:
            raise DegenerateSystemError("common factor present")
        return ZPoly([1]), 0
    r = resultant(A, B)
    if not r:
        raise DegenerateSystemError("resultant vanished; common factor present")
    H = r.strip_x_power()[1].squarefree()
    if H.degree <= 0:
        return H, 0
    return H, sum(_torus_roots(G, hb) for hb, G in _fiber_gcd_branches(A, B, H))


# ---------------------------------------------------------------------------
# interval arithmetic and Krawczyk certification
# ---------------------------------------------------------------------------

class _ScaledPoly:
    """A polynomial dict {exponent tuple: Fraction} as integer coefficients
    over one denominator: poly = sum(c * x^e for e, c in terms) / den.
    `degs` holds the largest exponent of each variable (none for the zero
    polynomial {})."""

    __slots__ = ("terms", "den", "degs")

    def __init__(self, poly: dict):
        nums, self.den = common_denominator(poly.values())
        self.terms = list(zip(poly, nums))
        n = len(next(iter(poly), ()))
        self.degs = [max(e[i] for e in poly) for i in range(n)]


def _iv_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _interval_numerators(poly: _ScaledPoly, ibox: Sequence[tuple]) -> tuple:
    """(lo, hi, den): the interval extension of poly on an integer box, one
    (a, b, D) per coordinate for [a/D, b/D], is [lo/den, hi/den].  It is the
    extension term by term, x^e by repeated interval multiplication,
    computed on numerators: a term's interval has denominator prod D_i^e_i
    and is lifted to prod D_i^degs_i by a positive factor, which keeps every
    min and max."""
    powers = []
    dens = []
    for (a, b, d), k in zip(ibox, poly.degs):
        pw = [(1, 1)]
        dp = [1]
        for _ in range(k):
            pw.append(_iv_mul(pw[-1], (a, b)))
            dp.append(dp[-1] * d)
        powers.append(pw)
        dens.append(dp)
    lo = hi = 0
    for e, c in poly.terms:
        t = (1, 1)
        lift = c
        for pw, dp, ei, k in zip(powers, dens, e, poly.degs):
            if ei:
                t = _iv_mul(t, pw[ei])
            lift *= dp[k - ei]
        if lift >= 0:
            lo += t[0] * lift
            hi += t[1] * lift
        else:
            lo += t[1] * lift
            hi += t[0] * lift
    den = poly.den
    for dp in dens:
        den *= dp[-1]
    return lo, hi, den


def _dict_partial(poly: dict, axis: int) -> dict:
    out = {}
    for e, c in poly.items():
        if e[axis] == 0:
            continue
        ne = list(e)
        ne[axis] -= 1
        out[tuple(ne)] = out.get(tuple(ne), Fraction(0)) + c * e[axis]
    return out


def _exact_numerators(poly: _ScaledPoly, x: Sequence[tuple]) -> tuple:
    """(num, den): poly at the rational point x_i = p_i / q_i, given as
    pairs (p_i, q_i) with q_i > 0, is num/den, summed as integers over the
    common denominator den = poly.den * prod q_i^degs_i."""
    nums = []
    dens = []
    for (p, q), k in zip(x, poly.degs):
        pn, pd = [1], [1]
        for _ in range(k):
            pn.append(pn[-1] * p)
            pd.append(pd[-1] * q)
        nums.append(pn)
        dens.append(pd)
    acc = 0
    for e, c in poly.terms:
        for pn, pd, ei, k in zip(nums, dens, e, poly.degs):
            c *= pn[ei] * pd[k - ei]
        acc += c
    den = poly.den
    for pd in dens:
        den *= pd[-1]
    return acc, den


def _krawczyk_system(g1: dict, g2: dict) -> tuple:
    """g1, g2 and their partials d1 g1, d2 g1, d1 g2, d2 g2, scaled once
    for all boxes of a system."""
    polys = (g1, g2, _dict_partial(g1, 0), _dict_partial(g1, 1),
             _dict_partial(g2, 0), _dict_partial(g2, 1))
    return tuple(_ScaledPoly(p) for p in polys)


def _common(pairs) -> tuple:
    """Rationals given as (num, den) pairs, den > 0, over their least common
    denominator: (numerators, lcm)."""
    den = lcm(*(d for _n, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _krawczyk_image(system: tuple, ibox: Sequence[tuple]) -> Optional[list]:
    """The Krawczyk image K = m - Y f(m) + (I - Y J(box)) (box - m) of an
    integer box (`_interval_numerators`), with m the midpoint and Y the
    inverse Jacobian at m; None when J(m) is singular.  `system` is
    `_krawczyk_system(g1, g2)`.

    Coordinate i of the box is [a_i, b_i] / D_i, so box - m is
    [-w_i, w_i] / (2 D_i), w_i = b_i - a_i, and the interval product of an
    entry [lo, hi] of I - Y J(box) with it is [-1, 1] max(|lo|, |hi|) w_i /
    (2 D_i).  K_i is then c_i + [-r_i, r_i], c_i = m_i - (Y f(m))_i.  Every
    quantity is an integer numerator over a positive common denominator;
    only c_i and r_i become Fractions.
    """
    g1, g2, j11, j12, j21, j22 = system
    m = [(a + b, 2 * d) for a, b, d in ibox]
    # J(m) = [[p, q], [r, t]] / e and Y = [[t, -q], [-r, p]] e / det = y / delta
    (p, q, r, t), e = _common([_exact_numerators(j, m) for j in (j11, j12, j21, j22)])
    det = p * t - q * r
    if det == 0:
        return None
    sgn = e if det > 0 else -e
    y = [[sgn * t, -sgn * q], [-sgn * r, sgn * p]]
    delta = abs(det)
    (f1, f2), phi = _common([_exact_numerators(g1, m), _exact_numerators(g2, m)])
    # J(box) entry (k, j) is [lo, hi] / gden
    ends = []
    for j in (j11, j12, j21, j22):
        lo, hi, den = _interval_numerators(j, ibox)
        ends += [(lo, den), (hi, den)]
    jac, gden = _common(ends)
    jac = [[jac[0:2], jac[2:4]], [jac[4:6], jac[6:8]]]
    qden = delta * gden
    (a0, b0, d0), (a1, b1, d1) = ibox
    k_img = []
    for i in range(2):
        # |(I - Y J(box))_ij| over qden, times w_j / (2 D_j), summed over j
        mags = []
        for j in range(2):
            lo = hi = qden if i == j else 0
            for k in range(2):
                ends = (y[i][k] * jac[k][j][0], y[i][k] * jac[k][j][1])
                lo -= max(ends)
                hi -= min(ends)
            mags.append(max(abs(lo), abs(hi)))
        rad = Fraction(mags[0] * (b0 - a0) * d1 + mags[1] * (b1 - a1) * d0, 2 * d0 * d1 * qden)
        center = Fraction(*m[i]) - Fraction(y[i][0] * f1 + y[i][1] * f2, delta * phi)
        k_img.append((center - rad, center + rad))
    return k_img


def _krawczyk_2x2(system: tuple, ibox: Sequence[tuple]):
    """Returns 'unique', 'empty' or 'unknown' for the integer box;
    `system` is `_krawczyk_system(g1, g2)`."""
    for g in system[:2]:
        lo, hi, _den = _interval_numerators(g, ibox)
        if lo > 0 or hi < 0:
            return "empty"
    k_img = _krawczyk_image(system, ibox)
    if k_img is None:
        return "unknown"
    # K_i times D_i against the box coordinate [a_i, b_i]
    scaled = [(lo * d, hi * d, a, b) for (lo, hi), (a, b, d) in zip(k_img, ibox)]
    if all(a < lo and hi < b for lo, hi, a, b in scaled):
        return "unique"
    if any(hi < a or lo > b for lo, hi, a, b in scaled):
        return "empty"
    return "unknown"


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
        return {
            "d": self.d,
            "distinct_complex": self.distinct_complex,
            "real_count": self.real_count,
            "positive_count": self.positive_count,
            "solutions": self.solutions,
            "genericity": self.genericity,
            "multiplicity_excess": self.multiplicity_excess,
            "warnings": self.warnings,
        }


def count_complex(data: HomSpaceData) -> SolutionSet:
    """Distinct complex solutions of the Einstein system modulo scaling,
    torus solutions only (roots with a zero coordinate are excluded)."""
    return _solve(data, certify=False)


def real_positive(data: HomSpaceData, s: Optional[LaurentPoly] = None) -> SolutionSet:
    """count_complex enriched with certified real and positive counts and
    refined solution boxes with residual certificates.  `s` is
    `scalar_curvature(data)` when the caller already holds it."""
    return _solve(data, certify=True, s=s)


def _solve(data: HomSpaceData, certify: bool, s: Optional[LaurentPoly] = None) -> SolutionSet:
    """One pass for both entry points: the system is built and
    dehomogenized once, and the eliminants that give the complex count
    are the ones the real/positive certification isolates."""
    if data.d not in (2, 3):
        raise UnsupportedDimensionError(
            f"complex counting is implemented for d in {{2, 3}}, got d = {data.d}"
        )
    system = einstein_system(data, s)
    polys, removed = dehomogenize(system)
    if data.d == 2:
        # the cleared polynomial has a nonzero constant term: a torus part
        p, _ = zpoly({e[0]: c for e, c in polys[0].items()})
        if p.degree <= 0:
            out = SolutionSet(2, 0)
            if certify:
                out.real_count = out.positive_count = 0
            return out
        sf = p.squarefree()
        out = SolutionSet(2, sf.degree, multiplicity_excess=p.degree - sf.degree)
        if certify:
            _certify_d2(out, sf, system, [_ScaledPoly(polys[0])], removed)
        return out
    g1, g2 = polys
    q1, count = _eliminant(g1, g2, 1)
    q2, count_y = _eliminant(g1, g2, 0)
    out = SolutionSet(3, count, genericity=count == count_y)
    if not out.genericity:
        out.warnings.append("eliminations in the two variable orders disagree")
    if certify:
        _certify_d3(out, g1, g2, q1, q2, system, removed)
    return out


def _exact_entry(system, x) -> dict:
    """A rational solution x, checked on the Laurent system."""
    assert all(f.eval(list(x) + [Fraction(1)]) == 0 for f in system)
    return {"x": [format_rat(v) for v in x], "exact": True, "residual": "0"}


def _box_entry(scaled: Sequence[_ScaledPoly], removed: Sequence[tuple], ibox) -> dict:
    """A solution box with a bound on the Laurent residuals over it: f is
    x^shift times its cleared polynomial (`dehomogenize`), here scaled, and
    |f| <= |cleared| / min |x^(-shift)| for the negative part of the shift."""
    bounds = []
    for poly, shift in zip(scaled, removed):
        lo, hi, den = _interval_numerators(poly, ibox)
        monomial = _ScaledPoly({tuple(max(0, -m) for m in shift): 1})
        mlo, mhi, mden = _interval_numerators(monomial, ibox)
        scale = min(abs(mlo), abs(mhi))
        bound = max(abs(lo), abs(hi))
        bounds.append(Fraction(bound * mden, den * scale) if scale else Fraction(bound, den))
    return {
        "box": [[format_rat(Fraction(a, d)), format_rat(Fraction(b, d))] for a, b, d in ibox],
        "exact": False,
        "residual_bound": format_rat(max(bounds)),
    }


# the width of a solution box, and the Krawczyk rounds a box gets
_BOX_WIDTH = Fraction(1, 2**20)
_MAX_ROUNDS = 40


def _positive(q: ZPoly, interval: tuple) -> bool:
    """Whether the one root of q (q(0) != 0) in the isolating interval
    (a/D, b/D], given as (a, b, D), is positive.  q changes sign there at
    the root only, so an interval around 0 holds it in (0, b/D] iff
    q(b/D) = 0 or q(b/D) and q(0) have opposite signs."""
    a, b, d = interval
    if a >= 0:
        return True
    if b <= 0:
        return False
    s = sign_at(q.coeffs, b, d)
    return s == 0 or (s > 0) != (q.coeffs[0] > 0)


def _certify_d2(base: SolutionSet, sf: ZPoly, system, scaled: list, removed: list) -> None:
    """Real and positive counts and solutions of the squarefree univariate
    eliminant sf (degree >= 1, sf(0) != 0), from one isolation."""
    intervals = isolate_real_roots(sf)
    base.real_count = len(intervals)
    base.positive_count = sum(_positive(sf, interval) for interval in intervals)
    for interval in intervals:
        root = _rational_root_in(sf, interval)
        if root is not None:
            base.solutions.append(_exact_entry(system, [root]))
        else:
            box = [refine_root_interval(sf, interval, _BOX_WIDTH)]
            base.solutions.append(_box_entry(scaled, removed, box))


def _rational_root_in(p: ZPoly, interval: tuple):
    """The root of the squarefree p in its isolating interval (lo/D, hi/D],
    given as (lo, hi, D), when it is rational and cheap to find; else None.

    By the rational root theorem a root num/den in lowest terms has den
    dividing the leading and num the lowest nonzero coefficient; when both
    are at most 10**7, the interval is refined to half of 1 / lead^2, less
    than the gap between two such candidates, and the one candidate left
    in it is found, for some den, among the sorted signed divisors of the
    latter between lo * den / D (exclusive) and hi * den / D.
    """
    ints = p.coeffs
    a0 = next(c for c in ints if c)
    an = ints[-1]
    if abs(a0) > 10**7 or abs(an) > 10**7:
        return None
    lo, hi, d = refine_root_interval(p, interval, Fraction(1, 2 * an * an))
    nums = _divisors(a0)
    nums = [-n for n in reversed(nums)] + nums
    for den in _divisors(an):
        start = bisect_right(nums, lo * den // d)
        stop = bisect_right(nums, hi * den // d)
        for num in nums[start:stop]:
            if sign_at(ints, num, den) == 0:
                return Fraction(num, den)
    return None


def _divisors(n: int) -> list:
    """The positive divisors of n != 0, ascending."""
    n = abs(n)
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _fiber_has_root(g1: dict, g2: dict, axis: int, r: Fraction, interval: tuple) -> bool:
    """Whether g1 and g2 with coordinate `axis` set to r have a common
    nonzero root in (a/D, b/D], the interval (a, b, D) of the other
    coordinate, by the Sturm count of the primitive gcd of the restrictions,
    its x power stripped.  `_eliminant` rejects a common factor x_axis - r."""
    g = ZPoly()
    for poly in (g1, g2):
        terms = {}
        for e, c in poly.items():
            terms[e[1 - axis]] = terms.get(e[1 - axis], 0) + c * r ** e[axis]
        g = g.gcd(zpoly(terms)[0])
    a, b, d = interval
    return sturm_count(g.strip_x_power()[1], Fraction(a, d), Fraction(b, d)) > 0


def _certify_d3(base: SolutionSet, g1: dict, g2: dict, q1: ZPoly, q2: ZPoly,
                system, removed: list) -> None:
    """Real and positive counts over the boxes that pair a real root of the
    x-eliminant q1 with one of the y-eliminant q2, a box two integer
    intervals (a, b, D), with one decision per box.  A box with a rational
    coordinate is decided exactly (`_fiber_has_root`): a rational root can
    sit on a dyadic endpoint, where the Krawczyk test never passes.  On a
    box of two irrational coordinates, up to _MAX_ROUNDS Krawczyk rounds
    exclude it or certify a solution in it.  A box they leave undecided
    holds a singular or clustered solution: it is a "cluster separation
    failure", and real_count is a lower bound."""
    iso1 = isolate_real_roots(q1)
    iso2 = isolate_real_roots(q2)
    rational2 = [_rational_root_in(q2, i2) for i2 in iso2]
    krawczyk = _krawczyk_system(g1, g2)
    real = 0
    positive = 0
    for i1 in iso1:
        r1 = _rational_root_in(q1, i1)
        for i2, r2 in zip(iso2, rational2):
            b1, b2 = i1, i2
            if r1 is not None:
                status = "unique" if _fiber_has_root(g1, g2, 0, r1, b2) else "empty"
            elif r2 is not None:
                status = "unique" if _fiber_has_root(g1, g2, 1, r2, b1) else "empty"
            else:
                for _ in range(_MAX_ROUNDS):
                    status = _krawczyk_2x2(krawczyk, (b1, b2))
                    if status != "unknown":
                        break
                    b1 = refine_root_interval(q1, b1, Fraction(b1[1] - b1[0], 4 * b1[2]))
                    b2 = refine_root_interval(q2, b2, Fraction(b2[1] - b2[0], 4 * b2[2]))
            if status == "unknown":
                base.warnings.append(
                    "cluster separation failure; widened interval left unresolved"
                )
            elif status == "unique":
                real += 1
                positive += _positive(q1, b1) and _positive(q2, b2)
                if r1 is not None and r2 is not None:
                    base.solutions.append(_exact_entry(system, (r1, r2)))
                else:
                    box = (refine_root_interval(q1, b1, _BOX_WIDTH),
                           refine_root_interval(q2, b2, _BOX_WIDTH))
                    base.solutions.append(_box_entry(krawczyk[:2], removed, box))
    base.real_count = real
    base.positive_count = positive


# ---------------------------------------------------------------------------
# bound report
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    d: int
    nu: int
    delannoy_bound: int
    six_power: int
    epsilon_computed: Optional[int] = None
    epsilon_annotation: Optional[int] = None
    t_size: Optional[int] = None
    escaped_to_infinity: Optional[int] = None
    verdicts: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "nu": self.nu,
            "delannoy_bound": self.delannoy_bound,
            "six_power": self.six_power,
            "epsilon_computed": self.epsilon_computed,
            "epsilon_annotation": self.epsilon_annotation,
            "t_size": self.t_size,
            "escaped_to_infinity": self.escaped_to_infinity,
            "verdicts": self.verdicts,
        }


def bound_report(data: HomSpaceData, solve: bool = True) -> BoundReport:
    """nu, the Delannoy/Legendre bound, 6^(d-1), the solver count when
    available, and the missing-solution note when nu exceeds epsilon."""
    P = weight_polytope(data)
    T = flat_complex(data)
    nu = delta_min(P, T).normalized_volume()
    eps_c = None
    if solve and data.d in (2, 3):
        eps_c = count_complex(data).distinct_complex
    return build_bound_report(data, nu, T, eps_c)


def build_bound_report(
    data: HomSpaceData, nu: int, T: FlatComplex, eps_c: Optional[int]
) -> BoundReport:
    """The bound report from values an analysis already holds: nu of the
    minimal polytope, the flat complex T and the solver's distinct count."""
    dl = delannoy(data.d - 1)
    six = 6 ** (data.d - 1)
    eps_a = None
    if data.expected and "epsilon" in data.expected:
        eps_a = data.expected["epsilon"]
    eps = eps_c if eps_c is not None else eps_a
    report = BoundReport(
        d=data.d,
        nu=nu,
        delannoy_bound=dl,
        six_power=six,
        epsilon_computed=eps_c,
        epsilon_annotation=eps_a,
        t_size=len(T.maximal_flats),
        escaped_to_infinity=(nu - eps) if (eps is not None and nu > eps) else
        (0 if eps is not None else None),
        verdicts={
            "epsilon_le_nu": (eps <= nu) if eps is not None else None,
            "nu_le_delannoy": nu <= dl,
            "delannoy_lt_six_power": dl < six,
        },
    )
    if report.verdicts["epsilon_le_nu"] is False:
        report.verdicts["violation"] = "epsilon exceeds nu"
    return report
