"""Reference univariate polynomials over Q for the tests.

`QPoly` holds Fraction coefficients and computes gcds and squarefree parts
by Euclid's algorithm over Q, independently of the integer `ZPoly` the
library computes with.  `clear` and `as_zpoly` turn references into the
library's input form; `bivar_cols` is the dense reference for
`einpoly.exact.bivar_cols` before clearing.  `surd_sign` is the exact sign
of a number in Q(sqrt s).  `gauss_jordan_solve` and `gauss_rank` are the
reference linear solve and rank over Q.  `kernel` is the saturated integer
kernel of a matrix, read off the library's lattice chart of its rows and
the origin.  `reference_einstein_system` is the Einstein system by its
definition, in Laurent polynomials over Q, and `dehomogenize` turns it
into the solver's input form.
"""

from fractions import Fraction
from math import lcm

from einpoly.curvature import LaurentPoly, scalar_curvature
from einpoly.exact import DimensionError, LatticeChart, ZPoly


class QPoly:
    """Dense univariate polynomial with Fraction coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls([c])

    @classmethod
    def from_roots(cls, roots) -> "QPoly":
        p = cls.const(1)
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"QPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def divmod(self, other: "QPoly") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        q = [Fraction(0)] * max(0, len(rem) - dn)
        for shift in reversed(range(len(q))):
            factor = rem[shift + dn] / other.coeffs[-1]
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
        return QPoly(q), QPoly(rem)

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        """Exact division; raises on a nonzero remainder."""
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("division was not exact")
        return q

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "QPoly":
        return self if self.is_zero() else self * (1 / self.coeffs[-1])

    def strip_x_power(self) -> tuple:
        """(k, p) with self = x^k p and p(0) != 0; (0, 0) for zero."""
        k = next((i for i, c in enumerate(self.coeffs) if c), 0)
        return k, QPoly(self.coeffs[k:])

    def gcd(self, other: "QPoly") -> "QPoly":
        """The monic gcd by Euclid's algorithm over Q (zero for two
        zeros)."""
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree(self) -> "QPoly":
        """p / gcd(p, p'), monic."""
        return (self // self.gcd(self.derivative())).monic()


def clear(polys) -> tuple:
    """QPolys over their least common denominator D > 0: (the ZPoly
    numerators, D)."""
    den = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return [ZPoly([int(c * den) for c in p.coeffs]) for p in polys], den


def as_zpoly(p: QPoly) -> ZPoly:
    """p over its least common denominator, a positive multiple of p."""
    return clear([p])[0][0]


def bivar_cols(poly: dict, axis: int) -> list:
    """Dense QPoly columns of a bivariate {(i, j): c} in the variable
    `axis`, one scan over the terms per column."""
    other = 1 - axis
    cols = []
    for j in range(max(e[axis] for e in poly) + 1):
        coeffs = [Fraction(0)] * (max(e[other] for e in poly) + 1)
        for e, c in poly.items():
            if e[axis] == j:
                coeffs[e[other]] = c
        cols.append(QPoly(coeffs))
    return cols


def surd_sign(u, v, s) -> int:
    """The sign of u + v sqrt(s), u and v rational and s not a square: the
    sign of u and v when they agree, else of the larger of u^2 and s v^2."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or not su or not sv:
        return su or sv
    return su if u * u > s * v * v else sv


def gauss_jordan_solve(rows, rhs):
    """Reference: reduced row echelon form over Fraction; raises
    DimensionError without full column rank, None when inconsistent."""
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    m, n = len(a), len(a[0]) - 1
    pivots = []
    for col in range(n):
        piv = next((r for r in range(len(pivots), m) if a[r][col] != 0), None)
        if piv is None:
            continue
        k = len(pivots)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][col] for x in a[k]]
        for r in range(m):
            if r != k and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[k])]
        pivots.append(col)
    if len(pivots) < n:
        raise DimensionError("matrix does not have full column rank")
    if any(a[r][n] != 0 for r in range(n, m)):
        return None
    return [a[i][n] for i in range(n)]


def gauss_rank(rows):
    """Reference: rank by Gaussian elimination over Q, each row cleared of
    denominators first and a pivot row taken off another by
    cross-multiplication, so every step stays in Z."""
    a = []
    for r in rows:
        den = lcm(*(Fraction(x).denominator for x in r))
        a.append([int(x * den) for x in r])
    rnk = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rnk, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rnk], a[piv] = a[piv], a[rnk]
        p = a[rnk]
        for r in range(rnk + 1, len(a)):
            if a[r][col]:
                a[r] = [p[col] * x - a[r][col] * y for x, y in zip(a[r], p)]
        rnk += 1
    return rnk


def kernel(rows):
    """A basis of the integer vectors z with A z = 0, saturated in Z^n."""
    return LatticeChart([[0] * len(rows[0])] + rows).equations


def reference_einstein_system(data):
    """The d-1 Einstein equations
    f_i = (x_i/m_i) ds/dx_i - (x_{i+1}/m_{i+1}) ds/dx_{i+1} by their
    definition: the Euler derivatives of s = scalar_curvature(data) scaled
    by 1/m_i, consecutive ones subtracted."""
    s = scalar_curvature(data)
    comps = [LaurentPoly(data.d, {e: c / data.dims[i] for e, c in s.euler(i).terms.items()})
             for i in range(data.d)]
    return [comps[i] - comps[i + 1] for i in range(data.d - 1)]


def dehomogenize(system):
    """Homogeneous Laurent polynomials with x_d = 1, each divided by its
    least monomial: dicts of nonnegative true exponent tuples in
    x_1..x_{d-1}, a zero polynomial an empty dict."""
    out = []
    for f in system:
        true = {tuple(-ai for ai in a[:-1]): c for a, c in f.terms.items()}
        mins = [min(col) for col in zip(*true)]
        out.append({tuple(x - m for x, m in zip(e, mins)): c for e, c in true.items()})
    return out
