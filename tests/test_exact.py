"""Exact kernel: determinants, lattice indices, resultants, Sturm counts."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einpoly.exact import (
    DegenerateEliminationError,
    DimensionError,
    LatticeChart,
    ZPoly,
    _column_hnf,
    _sturm_chain,
    _variations,
    bivar_cols,
    clear_left_end,
    common_denominator,
    det,
    integer_kernel_basis,
    isolate_real_roots,
    lattice_index,
    parse_rat,
    primitive,
    rank,
    refine_root_interval,
    resultant,
    sign_at_root,
    sturm_count,
    zpoly,
)
from qpoly import QPoly, as_zpoly, clear, surd_sign
from qpoly import bivar_cols as reference_bivar_cols

# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def cofactor_det(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return F(rows[0][0])
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * F(rows[0][j]) * cofactor_det(minor)
    return total


def test_det_identity():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_transposition_sign():
    assert det([[0, 1], [1, 0]]) == -1


def test_det_matches_cofactor_oracle_on_random_rationals():
    rng = random.Random(2024)
    for _ in range(25):
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            for _ in range(4)
        ]
        assert det(rows) == cofactor_det([r[:] for r in rows])


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        det([[1, 2, 3], [4, 5, 6]])


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3),
       small_ints)
@settings(max_examples=60, deadline=None)
def test_det_multilinear_and_alternating(rows, extra, scale):
    base = det(rows)
    # alternating: equal rows kill the determinant
    rows_eq = [rows[0], rows[0], rows[2]]
    assert det(rows_eq) == 0
    # linear in the first row
    shifted = [[a + scale * b for a, b in zip(rows[0], extra)]] + rows[1:]
    assert det(shifted) == base + scale * det([extra] + rows[1:])


def gauss_det(rows):
    """Reference: Gaussian elimination over Fraction with rational pivots."""
    n = len(rows)
    a = [[F(x) for x in r] for r in rows]
    sign = 1
    result = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot = a[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return sign * result


def gauss_rank(rows):
    """Reference: rank by Gaussian elimination over Fraction."""
    if not rows:
        return 0
    a = [[F(x) for x in r] for r in rows]
    m, n = len(a), len(a[0])
    rnk = 0
    col = 0
    while rnk < m and col < n:
        piv = next((r for r in range(rnk, m) if a[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        pivot = a[rnk][col]
        for r in range(rnk + 1, m):
            if a[r][col] != 0:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[rnk])]
        rnk += 1
        col += 1
    return rnk


entries = st.one_of(
    small_ints,
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def matrices(draw, square):
    """Integer and Fraction entries, with rows that may be zero or a
    combination of the other rows."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = m if square else draw(st.integers(min_value=0, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    if m >= 2 and draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=m - 1))
        coeffs = draw(st.lists(entries, min_size=m, max_size=m))
        rows[k] = [sum((c * row[j] for i, (c, row) in enumerate(zip(coeffs, rows)) if i != k), F(0))
                   for j in range(n)]
    if m >= 1 and draw(st.booleans()):
        rows[draw(st.integers(min_value=0, max_value=m - 1))] = [0] * n
    return rows


@given(matrices(square=False))
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_elimination(rows):
    assert rank(rows) == gauss_rank(rows)


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_det_matches_fraction_elimination(rows):
    got = det(rows)
    assert isinstance(got, F)
    assert got == gauss_det(rows)


def test_empty_matrices():
    assert det([]) == 1 and isinstance(det([]), F)
    assert rank([]) == 0
    assert rank([[], []]) == 0


# ---------------------------------------------------------------------------
# lattice index and the lattice chart
# ---------------------------------------------------------------------------


def reference_column_hnf(a):
    """Column Hermite reduction with each column operation applied to H
    and to U by its own closure, as the reduction was first written."""
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(map(int, row)) for row in a]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op_swap(i, j):
        for row in h:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def col_op_add(i, j, k):
        for row in h:
            row[i] += k * row[j]
        for row in u:
            row[i] += k * row[j]

    def col_op_neg(i):
        for row in h:
            row[i] = -row[i]
        for row in u:
            row[i] = -row[i]

    r = 0
    for row_i in range(m):
        if r == n:
            break
        while True:
            cols = [c for c in range(r, n) if h[row_i][c] != 0]
            if not cols:
                break
            piv = min(cols, key=lambda c: abs(h[row_i][c]))
            if piv != r:
                col_op_swap(r, piv)
            if h[row_i][r] < 0:
                col_op_neg(r)
            done = True
            for c in range(r, n):
                if c != r and h[row_i][c] != 0:
                    col_op_add(c, r, -(h[row_i][c] // h[row_i][r]))
                    if h[row_i][c] != 0:
                        done = False
            if done:
                break
        if h[row_i][r] != 0:
            r += 1
    return h, u


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=m, max_size=m))))
@settings(max_examples=300, deadline=None)
def test_column_hnf_matches_reference(a):
    # H and U entry for entry: LatticeChart.lift takes its particular
    # solution from them
    h, u = _column_hnf(a)
    assert (h, u) == reference_column_hnf(a)


def test_lattice_index_diagonal():
    assert lattice_index([(2, 0), (0, 1)]) == 2


def test_lattice_index_two_by_two_matches_det_oracle():
    gens = [(0, 1), (2, -1)]
    assert lattice_index(gens) == abs(int(det([list(g) for g in gens])))
    assert lattice_index(gens) == 2


def test_lattice_index_rank_deficient_is_infinite():
    assert lattice_index([(1, 0)]) is None


def test_lattice_index_unimodular_invariance():
    rng = random.Random(5)
    for _ in range(20):
        gens = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
        idx = lattice_index(gens)
        # random elementary row operations preserve the generated subgroup
        g2 = [row[:] for row in gens]
        for _ in range(6):
            i, j = rng.sample(range(len(g2)), 2)
            k = rng.randint(-3, 3)
            g2[i] = [a + k * b for a, b in zip(g2[i], g2[j])]
        assert lattice_index(g2) == idx


def maximal_minor_gcd(gens, d):
    """Reference index: the gcd of the d x d minors of the generator
    matrix, or None when they all vanish."""
    g = 0
    for rows in combinations(gens, d):
        g = gcd(g, int(cofactor_det([list(r) for r in rows])))
    return g or None


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(small_ints, min_size=d, max_size=d), min_size=1, max_size=6)))
@settings(max_examples=200, deadline=None)
def test_lattice_index_matches_maximal_minor_gcd(gens):
    assert lattice_index(gens) == maximal_minor_gcd(gens, len(gens[0]))


def test_integer_kernel_is_saturated():
    basis = integer_kernel_basis([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
        assert abs(primitive(v) != v) == 0 or primitive(v) == tuple(v)


def random_affine_points(rng, n):
    """Integer points of a random affine lattice p0 + Z gens of dimension
    < n, one coefficient vector per point.  On about half the draws one
    generator is scaled by 2 or 3, so the lattice is not saturated."""
    k = rng.randint(0, n - 1)
    p0 = [rng.randint(-4, 4) for _ in range(n)]
    gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    if gens and rng.random() < 0.5:
        scale = rng.choice((2, 3))
        i = rng.randrange(k)
        gens[i] = [scale * x for x in gens[i]]
    pts = []
    for _ in range(rng.randint(1, 6)):
        coef = [rng.randint(-2, 2) for _ in gens]
        pts.append(tuple(p0[j] + sum(c * g[j] for c, g in zip(coef, gens)) for j in range(n)))
    assert rank([_sub(p, p0) for p in pts]) < n
    return pts


def _sub(p, q):
    return [x - y for x, y in zip(p, q)]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_chart_lift_roundtrip():
    """The lift is the adjoint of the chart: <lift(a), p - p0> equals
    <a, coords(p)> on the lattice points of the affine hull."""
    rng = random.Random(9)
    for _ in range(40):
        pts = random_affine_points(rng, rng.randint(1, 5))
        chart = LatticeChart(pts)
        a = [rng.randint(-5, 5) for _ in range(chart.dim)]
        lifted = chart.lift(a)
        assert len(lifted) == len(chart.origin)
        assert all(isinstance(v, int) for v in lifted)
        for p in pts:
            assert _dot(lifted, _sub(p, chart.origin)) == _dot(a, chart.coords(p))


def test_chart_coords_roundtrip():
    """The chart has the dimension of the affine hull, sends the origin to
    0, and maps a basis of the hull's lattice onto a basis of Z^r."""
    rng = random.Random(10)
    for _ in range(40):
        pts = random_affine_points(rng, rng.randint(1, 5))
        chart = LatticeChart(pts)
        p0, r = chart.origin, chart.dim
        assert r == rank([_sub(p, p0) for p in pts])
        for e in chart.equations:
            assert len({_dot(e, p) for p in pts}) == 1
        assert chart.coords(p0) == (0,) * r
        for p in pts:
            c = chart.coords(p)
            assert len(c) == r and all(isinstance(v, int) for v in c)
        n = len(p0)
        lattice = (integer_kernel_basis(chart.equations) if chart.equations
                   else [[int(i == j) for j in range(n)] for i in range(n)])
        assert len(lattice) == r
        images = [chart.coords([x + y for x, y in zip(p0, b)]) for b in lattice]
        assert abs(det(images)) == 1


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_linear_elimination():
    # p = y - x, q = y - 1  ->  x - 1 up to sign
    p = [ZPoly([0, -1]), ZPoly([1])]
    q = [ZPoly([-1]), ZPoly([1])]
    assert resultant(p, q).coeffs in ((-1, 1), (1, -1))


def test_resultant_substitution():
    # p = y^2 - x, q = y - 2 -> 4 - x up to sign
    p = [ZPoly([0, -1]), ZPoly(), ZPoly([1])]
    q = [ZPoly([-2]), ZPoly([1])]
    assert resultant(p, q).coeffs in ((4, -1), (-4, 1))


def test_resultant_rejects_double_constants():
    with pytest.raises(DegenerateEliminationError):
        resultant([ZPoly([3])], [ZPoly([5])])


def reference_bareiss_det_poly(mat):
    """Bareiss determinant over Q[x], written for QPoly entries."""
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1
    prev = QPoly.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if piv is None:
                return QPoly()
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = QPoly()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def y_degree(cols):
    """Degree in y of a y-coefficient list; -1 when every entry is zero."""
    return max((i for i, c in enumerate(cols) if c), default=-1)


def reference_resultant(p, q):
    """Sylvester resultant with a power loop when one side is constant in
    the eliminated variable, and the Q[x] Bareiss determinant otherwise."""
    m, n = y_degree(p), y_degree(q)
    pc, qc = list(p)[:m + 1], list(q)[:n + 1]
    if m < 0 or n < 0:
        return QPoly()
    if m == 0 and n == 0:
        raise DegenerateEliminationError("both constant")
    if m == 0 or n == 0:
        base, times = (pc[0], n) if m == 0 else (qc[0], m)
        out = QPoly.const(1)
        for _ in range(times):
            out = out * base
        return out
    size = m + n
    mat = [[QPoly()] * size for _ in range(size)]
    for row in range(n):
        for i, c in enumerate(reversed(pc)):
            mat[row][row + i] = c
    for row in range(m):
        for i, c in enumerate(reversed(qc)):
            mat[n + row][row + i] = c
    return reference_bareiss_det_poly(mat)


# y-coefficients over Q[x]: zero entries are drawn often, so leading zeros,
# zero pivots (row swaps) and inputs constant in y all occur; rational
# coefficients make each input clear its own denominator
_x_poly = st.one_of(
    st.just(QPoly()),
    st.integers(-3, 3).map(QPoly.const),
    st.lists(st.integers(-3, 3), max_size=3).map(QPoly),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3).map(QPoly),
)
_bivariate = st.integers(min_value=0, max_value=3).flatmap(
    lambda k: st.lists(_x_poly, min_size=k + 1, max_size=k + 1))


@given(_bivariate, _bivariate)
@settings(max_examples=400, deadline=None)
def test_resultant_matches_reference(p, q):
    (pz, d1), (qz, d2) = clear(p), clear(q)
    try:
        expected = reference_resultant(p, q)
    except DegenerateEliminationError:
        with pytest.raises(DegenerateEliminationError):
            resultant(pz, qz)
        return
    # p = pz / d1 and q = qz / d2 scale the Sylvester determinant, which
    # has n rows of p and m of q, by d1^n d2^m
    m, n = y_degree(p), y_degree(q)
    r = resultant(pz, qz)
    assert all(isinstance(c, int) for c in r.coeffs)
    assert QPoly(r.coeffs) == expected * F(d1) ** n * F(d2) ** m


def _interp(points):
    """Lagrange interpolation through exact (x, y) samples."""
    out = QPoly()
    for i, (xi, yi) in enumerate(points):
        term = QPoly.const(yi)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * QPoly([-xj, 1]) * (F(1) / (xi - xj))
        out = out + term
    return out


def test_resultant_matches_evaluation_interpolation_oracle():
    rng = random.Random(31)
    for _ in range(8):
        p = [QPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(4)]
        q = [QPoly([rng.randint(-3, 3) for _ in range(2)]) for _ in range(4)]
        if p[-1].is_zero() or q[-1].is_zero():
            continue
        r = QPoly(resultant(clear(p)[0], clear(q)[0]).coeffs)
        deg_bound = r.degree if not r.is_zero() else 0
        samples = []
        x0 = -deg_bound - 2
        while len(samples) < deg_bound + 1:
            x0 += 1
            pc = [c(x0) for c in p]
            qc = [c(x0) for c in q]
            if pc[-1] == 0 or qc[-1] == 0:
                continue  # leading collapse: skip the sample point
            m, n = len(pc) - 1, len(qc) - 1
            size = m + n
            mat = [[F(0)] * size for _ in range(size)]
            for row in range(n):
                for i, c in enumerate(reversed(pc)):
                    mat[row][row + i] = c
            for row in range(m):
                for i, c in enumerate(reversed(qc)):
                    mat[n + row][row + i] = c
            samples.append((F(x0), det(mat)))
        assert _interp(samples) == r or r.is_zero() and all(v == 0 for _, v in samples)


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(77)
    for _ in range(10):
        # build p, q with a designed common root in y for a specific x0
        x0 = F(rng.randint(-3, 3))
        y0 = F(rng.randint(-3, 3))
        # p = (y - y0) * (y - a), q = (y - y0) * (y - b) at x = x0 after
        # shifting the constant terms by multiples of (x - x0)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(2, 5))
        shift = QPoly([-x0, 1])
        p = [QPoly.const(y0 * a) + shift, QPoly.const(-(y0 + a)), QPoly.const(1)]
        q = [QPoly.const(y0 * b) + shift * 2, QPoly.const(-(y0 + b)), QPoly.const(1)]
        r = QPoly(resultant(clear(p)[0], clear(q)[0]).coeffs)
        # r(x1) = 0 iff the specializations at x1 share a root in y
        for x1 in (x0, x0 + 1, F(7, 2)):
            pu = QPoly([c(x1) for c in p])
            qu = QPoly([c(x1) for c in q])
            g = pu.gcd(qu)
            assert (r(x1) == 0) == (g.degree > 0)


_bivariate_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=1, max_size=8)


@given(_bivariate_terms, st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_bivar_cols_matches_dense_builder(poly, axis):
    # one denominator for the whole dict: the columns of D * poly
    den = lcm(*(c.denominator for c in poly.values()))
    cols = bivar_cols(poly, axis)
    assert all(isinstance(c, int) for col in cols for c in col.coeffs)
    assert [QPoly(col.coeffs) for col in cols] == [
        col * den for col in reference_bivar_cols(poly, axis)]


def reference_dense(terms):
    """Dense Fraction coefficients up to the top degree, then QPoly."""
    coeffs = [F(0)] * (max(terms, default=-1) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return QPoly(coeffs)


@given(st.dictionaries(st.integers(0, 8),
                       st.one_of(st.integers(-5, 5),
                                 st.fractions(min_value=-5, max_value=5, max_denominator=4)),
                       max_size=6))
@settings(max_examples=200, deadline=None)
def test_unipoly_matches_dense_builder(terms):
    # the dict-to-polynomial conversion is `zpoly`: P / D over one denominator
    p, den = zpoly(terms)
    assert den > 0 and all(isinstance(c, int) for c in p.coeffs)
    assert gcd(den, *p.coeffs) == 1
    assert QPoly(p.coeffs) * F(1, den) == reference_dense(terms)


def test_unipoly_of_no_terms_is_zero():
    for terms in ({}, {3: 0}, {0: F(0), 2: 0}):
        p, den = zpoly(terms)
        assert not p and p.coeffs == () and den == 1


# ---------------------------------------------------------------------------
# integer polynomials: exact quotient, pseudo-remainder, primitive gcd
# ---------------------------------------------------------------------------

# zero, constants and non-monic polynomials of degree up to 5
_z_poly = st.lists(st.integers(-9, 9), max_size=6).map(ZPoly)
_nonzero_z_poly = _z_poly.filter(bool)
_q_poly = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                  max_size=4).map(QPoly)


def _q(z):
    return QPoly(z.coeffs)


@given(_z_poly, _nonzero_z_poly)
@settings(max_examples=300, deadline=None)
def test_pseudo_remainder_is_the_scaled_rational_remainder(a, b):
    k = max(0, a.degree - b.degree + 1)
    assert _q(a.prem(b)) == _q(a).divmod(_q(b))[1] * b.coeffs[-1] ** k


@given(_z_poly, _z_poly)
@settings(max_examples=300, deadline=None)
def test_primitive_gcd_matches_the_rational_gcd(a, b):
    g = a.gcd(b)
    assert _q(g).monic() == _q(a).gcd(_q(b))
    if g:
        assert g.coeffs[-1] > 0 and gcd(*g.coeffs) == 1
        assert not (a.prem(g) or b.prem(g))


@given(_z_poly, _nonzero_z_poly)
@settings(max_examples=200, deadline=None)
def test_exact_quotient_in_z_x(a, b):
    assert ((a * b) // b).coeffs == a.coeffs
    assert ((a * 6) // 6).coeffs == a.coeffs == ((a * 6) // -6 * -1).coeffs
    if b.degree > 0:
        with pytest.raises(ArithmeticError):
            (a * b - ZPoly([1])) // b


@given(st.lists(_q_poly, max_size=4))
def test_clear_denominators_keeps_every_polynomial(polys):
    # several polynomials over one denominator, as `bivar_cols` clears its
    # columns: `common_denominator` of all their coefficients at once
    flat, den = common_denominator(c for p in polys for c in p.coeffs)
    nums, start = [], 0
    for p in polys:
        nums.append(ZPoly(flat[start:start + len(p.coeffs)]))
        start += len(p.coeffs)
    assert den > 0 and len(nums) == len(polys) and start == len(flat)
    assert all(_q(z) == p * den for z, p in zip(nums, polys))


# p = a b^2, so repeated factors are common
@given(st.tuples(_q_poly, _q_poly).map(lambda ab: ab[0] * ab[1] * ab[1]).filter(bool))
@settings(max_examples=200, deadline=None)
def test_squarefree_matches_the_rational_quotient(p):
    sf = as_zpoly(p).squarefree()
    assert sf.coeffs[-1] > 0 and gcd(*sf.coeffs) == 1
    assert _q(sf).monic() == p.squarefree()


@given(_z_poly)
def test_strip_x_power(p):
    k, q = p.strip_x_power()
    assert (q * ZPoly([0] * k + [1])).coeffs == p.coeffs
    assert not q or q.coeffs[0] != 0


# ---------------------------------------------------------------------------
# squarefree parts and Sturm counts
# ---------------------------------------------------------------------------


def test_squarefree_and_sturm_double_root():
    p = ZPoly([1, -2, 1])  # (x-1)^2
    assert p.squarefree().coeffs == (-1, 1)
    assert sturm_count(p) == 1


def test_sturm_no_real_roots():
    assert sturm_count(ZPoly([1, 0, 1])) == 0


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sturm_count(ZPoly())


def test_sturm_counts_match_constructed_factorization():
    rng = random.Random(13)
    for _ in range(15):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
        mult = [rng.randint(1, 3) for _ in roots]
        p = ZPoly([1])
        for r, m in zip(roots, mult):
            for _ in range(m):
                p = p * ZPoly([-r, 1])
        n_pairs = rng.randint(0, 2)
        for _ in range(n_pairs):
            a = rng.randint(1, 4)
            p = p * ZPoly([a * a + 1, -2 * a, 1])  # (x-a)^2 + 1: no real roots
        assert sturm_count(p) == len(roots)
        lo, hi = F(roots[0]), F(roots[-1])
        # (lo, hi] excludes the left endpoint, includes the right one
        assert sturm_count(p, lo, hi) == len(roots) - 1
        assert sturm_count(p, lo - 1, hi) == len(roots)


def test_sturm_degree_eight_known_split():
    # roots 1..5 plus one complex-conjugate pair and a double root
    p = ZPoly([1])
    for r in (1, 2, 3, 4, 5):
        p = p * ZPoly([-r, 1])
    p = p * ZPoly([-1, 1])  # double the root at 1
    p = p * ZPoly([2, 0, 1])  # x^2 + 2
    assert p.degree == 8
    assert sturm_count(p) == 5
    sf = p.squarefree()
    assert sf.degree == 7
    # real = degree of squarefree part minus twice the conjugate pairs
    assert sturm_count(p) == sf.degree - 2 * 1


def test_isolation_separates_roots():
    p = QPoly.from_roots([F(-2), F(1, 3), F(5)])
    intervals = [fraction_interval(iv) for iv in isolate_real_roots(as_zpoly(p))]
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, [F(-2), F(1, 3), F(5)]):
        assert lo < root <= hi


def test_parse_rat_rejects_decimals():
    assert parse_rat("4/3") == F(4, 3)
    with pytest.raises(ValueError):
        parse_rat("1.5")


# ---------------------------------------------------------------------------
# root refinement against a Sturm-bisection reference
# ---------------------------------------------------------------------------


def fraction_interval(interval):
    """An integer interval (a, b, D) as the Fractions (a/D, b/D)."""
    a, b, d = interval
    return F(a, d), F(b, d)


def triple(lo, hi):
    """Fractions (lo, hi) as an integer interval (a, b, D)."""
    (a, b), d = common_denominator((lo, hi))
    return a, b, d


def fraction_sturm_chain(p):
    """The Sturm chain of p in Fraction arithmetic, by `QPoly.divmod`."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    return chain


def fraction_variations(chain, x):
    """Sign variations of a Fraction chain at the rational x, zeros
    skipped."""
    signs = [s for s in ((q(x) > 0) - (q(x) < 0) for q in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_refine_reference(p, lo, hi, width):
    """Bisection of an isolating interval (lo, hi] by Sturm counts, in
    Fraction arithmetic: the root lies in (lo, mid] iff V(lo) - V(mid) = 1."""
    chain = fraction_sturm_chain(p)

    def var(x):
        return fraction_variations(chain, x)

    vlo = var(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if vlo - var(mid) == 1:
            hi = mid
        else:
            lo = mid
            vlo = var(lo)
    return lo, hi


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def planted_polynomials(draw):
    """(squarefree p, its planted rational roots): distinct rational roots,
    irrational pairs x^2 - n (n not a square) and complex pairs x^2 + c."""
    roots = draw(st.lists(small_rats, min_size=0, max_size=4, unique=True))
    surds = draw(st.lists(st.sampled_from([2, 3, 5, 6, 7, 10]), max_size=2, unique=True))
    complex_pairs = draw(st.lists(st.integers(min_value=1, max_value=9), max_size=1))
    p = QPoly.from_roots(roots)
    for n in surds:
        p = p * QPoly([-n, 0, 1])
    for c in complex_pairs:
        p = p * QPoly([c, 0, 1])
    if p.degree < 1:
        p = QPoly([-3, 0, 1])
    return p, roots


@given(planted_polynomials(), st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_refine_matches_sturm_bisection(planted, bits):
    p, roots = planted
    width = F(1, 2**bits)
    z = as_zpoly(p)
    intervals = isolate_real_roots(z)
    assert len(intervals) == sturm_count(z)
    for interval in intervals:
        lo, hi = fraction_interval(interval)
        lo2, hi2 = fraction_interval(refine_root_interval(z, interval, width))
        assert (lo2, hi2) == sturm_refine_reference(p, lo, hi, width)
        assert hi2 - lo2 <= width
        assert lo <= lo2 < hi2 <= hi
        assert sturm_count(z, lo2, hi2) == 1
    for r in roots:
        assert sum(lo < r <= hi for lo, hi in map(fraction_interval, intervals)) == 1


@given(planted_polynomials(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_refine_with_a_root_at_an_endpoint_or_midpoint(planted, shift, bits):
    # (r - 2^-shift, r] has the root at hi, (r - 2^-shift, r + 2^-shift] at
    # the first midpoint; both isolate r once shift is large enough
    p, roots = planted
    z = as_zpoly(p)
    width = F(1, 2**bits)
    for r in roots:
        for lo, hi in ((r - F(1, 2**shift), r), (r - F(1, 2**shift), r + F(1, 2**shift))):
            if sturm_count(z, lo, hi) != 1:
                continue
            lo2, hi2 = fraction_interval(refine_root_interval(z, triple(lo, hi), width))
            assert (lo2, hi2) == sturm_refine_reference(p, lo, hi, width)
            assert lo2 < r <= hi2


def test_isolation_matches_sturm_counts_per_interval():
    rng = random.Random(29)
    for _ in range(20):
        roots = {F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 6))}
        p = as_zpoly(QPoly.from_roots(sorted(roots)) * QPoly([-rng.choice([2, 3, 5]), 0, 1]))
        intervals = [fraction_interval(iv) for iv in isolate_real_roots(p)]
        assert len(intervals) == len(roots) + 2
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        assert all(sturm_count(p, lo, hi) == 1 for lo, hi in intervals)


# ---------------------------------------------------------------------------
# the integer Sturm chain against the Fraction chain
# ---------------------------------------------------------------------------

# sparse coefficients, so remainder degrees often drop by more than one, with
# leads of both signs
sparse_polynomials = st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-5, 3)]), min_size=2, max_size=8,
).map(QPoly).filter(lambda p: p.degree >= 1)


def rational_roots(q):
    """The rational roots of a Fraction polynomial of degree >= 1."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(q.coeffs)]
    roots = sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ").ground_roots()
    return [F(int(r.p), int(r.q)) for r in roots]


def variations_at_infinity(chain, side):
    signs = [(1 if q.coeffs[-1] > 0 else -1) * side**q.degree for q in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# a remainder step with a negative lead and an odd power of it in the
# pseudo-remainder: 1 - 3x^4 - x^5 and x^2 - x^5
@example(QPoly([1, 0, 0, 0, -3, -1]), [])
@example(QPoly([0, 0, 1, 0, 0, -1]), [])
@given(st.one_of(planted_polynomials().map(lambda planted: planted[0]), sparse_polynomials),
       st.lists(small_rats, max_size=6))
@settings(max_examples=150, deadline=None)
def test_integer_sturm_chain_matches_the_fraction_chain(p, points):
    chain = fraction_sturm_chain(p)
    z = as_zpoly(p)
    ichain = _sturm_chain(z, z.derivative())
    assert len(ichain) == len(chain)
    for q, c in zip(chain, ichain):
        assert c[-1] * q.coeffs[-1] > 0 and QPoly(c).monic() == q.monic()
    roots = [r for q in chain if q.degree >= 1 for r in rational_roots(q)]
    for x in points + roots:
        assert _variations(ichain, (x.numerator, x.denominator)) == fraction_variations(chain, x)
    for side in (1, -1):
        assert _variations(ichain, None, side) == variations_at_infinity(chain, side)


# ---------------------------------------------------------------------------
# the sign of a polynomial at an isolated root
# ---------------------------------------------------------------------------


def sign_at_surd(P, s, side):
    """The sign of P at side * sqrt(s): P mod (x^2 - s) is A + B x."""
    _, r = P.divmod(QPoly([-s, 0, 1]))
    a, b = (list(r.coeffs) + [F(0), F(0)])[:2]
    return surd_sign(a, side * b, s)


def surd_in(s, side, lo, hi):
    """Whether side * sqrt(s) lies in (lo, hi], by squares."""
    above = (lo < 0 or lo * lo < s) if side > 0 else (lo < 0 and lo * lo > s)
    below = (hi > 0 and hi * hi >= s) if side > 0 else (hi >= 0 or hi * hi <= s)
    return above and below


@st.composite
def sign_cases(draw):
    """(h, its rational roots, its surds, P): h squarefree with planted
    rational roots and factors x^2 - s; P random, and sometimes a multiple
    of a factor of h, so that it vanishes at some of its roots."""
    roots = draw(st.lists(small_rats, min_size=0, max_size=4, unique=True))
    surds = draw(st.lists(st.sampled_from([2, 3, 5, 6, 7]), max_size=2, unique=True))
    if not roots and not surds:
        roots = [F(1, 2)]
    h = QPoly.from_roots(roots)
    for n in surds:
        h = h * QPoly([-n, 0, 1])
    P = QPoly(draw(st.lists(small_rats, min_size=1, max_size=5)))
    shared = draw(st.sampled_from([None] + roots + [-n for n in surds]))
    if shared is not None:
        P = P * (QPoly([-shared, 1]) if shared in roots else QPoly([shared, 0, 1]))
    return h, roots, surds, P


@given(sign_cases(), st.integers(min_value=0, max_value=12))
@settings(max_examples=120, deadline=None)
def test_sign_at_root_matches_the_exact_sign(case, bits):
    # intervals between any two of the rational roots, points just past
    # them and the refined isolation's endpoints: with two rational roots
    # there is always one with a root of h on the right end, and one whose
    # left end is the neighbouring root
    h, roots, surds, P = case
    z = as_zpoly(h)
    zP = as_zpoly(P) if P else ZPoly()
    points = set(roots) | {r + F(1, 2**bits) for r in roots}
    for iv in isolate_real_roots(z):
        points.update(fraction_interval(refine_root_interval(z, iv, F(1, 2**bits))))
    points = sorted(points)
    reached = set()
    for i, lo in enumerate(points):
        for hi in points[i + 1:]:
            if sturm_count(z, lo, hi) != 1:
                continue
            inside = [r for r in roots if lo < r <= hi]
            if inside:
                expected = (P(inside[0]) > 0) - (P(inside[0]) < 0)
                if inside[0] == hi:
                    reached.add("right end")
            else:
                expected = next(sign_at_surd(P, n, side) for n in surds for side in (1, -1)
                                if surd_in(n, side, lo, hi))
            if lo in roots:
                reached.add("left end")
            assert sign_at_root(zP, z, triple(lo, hi)) == expected, (h, P, lo, hi)
    if len(roots) >= 2:
        assert reached == {"right end", "left end"}


def test_sign_at_root_after_the_bisection_moves_the_root_onto_the_right_end():
    # h = (3x + 2)(2x + 1)(x - 4): the left end -2/3 of (-2/3, 0] is a root,
    # and the bisection off it leaves the root -1/2 on the right end
    h = ZPoly([-8, -26, -17, 6])
    assert fraction_interval(clear_left_end(h, (-2, 0, 3))) == (F(-7, 12), F(-1, 2))
    assert sign_at_root(ZPoly([-1, -4]), h, (-2, 0, 3)) == 1
    assert sign_at_root(ZPoly([1, 4]), h, (-2, 0, 3)) == -1
    assert sign_at_root(ZPoly([1, 2]), h, (-2, 0, 3)) == 0
