"""Sparse Laurent polynomials and the curvature machinery built on them:
scalar curvature, Ricci components, the moment map, Newton polytopes, face
restrictions and monomial substitutions.

Weight convention: a stored exponent vector a represents the monomial
prod_i x_i^(-a_i).  With this sign choice the support of the scalar
curvature polynomial literally coincides with the weight polytope, which
keeps every polytope-side comparison free of sign flips.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .homspace import HomSpaceData, weight_terms
from .polytope import Face, LatticePolytope, hull

Exponent = Tuple[int, ...]


class LaurentPoly:
    """Sparse exact Laurent polynomial keyed by weight-convention exponents."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Exponent, Fraction] = ()):
        self.num_vars = num_vars
        clean: Dict[Exponent, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coef in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != num_vars:
                raise ValueError("exponent length does not match num_vars")
            coef = Fraction(coef)
            if coef == 0:
                continue
            clean[exp] = clean.get(exp, Fraction(0)) + coef
            if clean[exp] == 0:
                del clean[exp]
        self.terms = dict(sorted(clean.items()))

    # -- ring-ish operations -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, tuple(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.num_vars}, {self.terms})"

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return LaurentPoly(self.num_vars, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    # -- calculus --------------------------------------------------------------

    def euler(self, i: int) -> "LaurentPoly":
        """x_i * d/dx_i: multiplies each coefficient by the true exponent,
        which is -a_i in the weight convention."""
        if not 0 <= i < self.num_vars:
            raise IndexError("variable index out of range")
        return LaurentPoly(
            self.num_vars, {e: c * (-e[i]) for e, c in self.terms.items()}
        )

    def partial(self, i: int) -> "LaurentPoly":
        """Plain d/dx_i (true exponents drop by one; weight exponent rises)."""
        out = {}
        for e, c in self.terms.items():
            true_exp = -e[i]
            if true_exp == 0:
                continue
            ne = list(e)
            ne[i] += 1
            ne = tuple(ne)
            out[ne] = out.get(ne, Fraction(0)) + c * true_exp
        return LaurentPoly(self.num_vars, out)

    def eval(self, x: Sequence) -> Fraction:
        """Exact evaluation; zero coordinates are allowed only where every
        term has a nonnegative true exponent."""
        xs = [Fraction(v) for v in x]
        if len(xs) != self.num_vars:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = Fraction(1)
            for xi, ai in zip(xs, e):
                t = -ai  # true exponent
                if xi == 0:
                    if t < 0:
                        raise ZeroDivisionError("zero coordinate at a negative exponent")
                    if t > 0:
                        prod = Fraction(0)
                        break
                    continue
                prod *= xi ** t
            total += c * prod
        return total

    def support(self) -> list:
        return list(self.terms)

    def y_degree_truncate(self, var_indices: Sequence[int], max_deg: int) -> "LaurentPoly":
        """Terms whose total true degree in the given variables is <= max_deg."""
        idx = list(var_indices)
        out = {}
        for e, c in self.terms.items():
            deg = sum(-e[i] for i in idx)
            if deg <= max_deg:
                out[e] = c
        return LaurentPoly(self.num_vars, out)


# ---------------------------------------------------------------------------
# curvature polynomials
# ---------------------------------------------------------------------------

def scalar_curvature(data: HomSpaceData) -> LaurentPoly:
    """Scalar curvature as a Laurent polynomial in the metric coordinates:

        s = 1/2 sum_i m_i b_i / x_i  -  1/4 sum [a,b,c] x_c / (x_a x_b),

    the bracket sum running over the ordered views of the stored triples
    whose slots a, b are not central.  Its terms are `weight_terms(data)`,
    so its support lies in the weights; every exponent has coordinate sum 1.
    """
    return LaurentPoly(data.d, weight_terms(data))


def _pairs_for(key, i):
    """Ordered pairs (j, k) completing index i inside a stored triple."""
    rest = list(key)
    rest.remove(i)
    j, k = rest
    if j == k:
        return [(j, k)]
    return [(j, k), (k, j)]


def ricci_components(data: HomSpaceData, x: Sequence) -> list:
    """Ricci eigenvalues r_i at a positive metric point, by the direct
    pair-sum formula (central-aware); equals -(x_i/m_i) ds/dx_i exactly."""
    xs = [Fraction(v) for v in x]
    if len(xs) != data.d or any(v <= 0 for v in xs):
        raise ValueError("need a positive point of length d")
    C = data.central
    out = []
    for i in range(1, data.d + 1):
        xi = xs[i - 1]
        acc = data.b[i - 1] / (2 * xi)
        corr = Fraction(0)
        for key, val in data.triple_items():
            if i not in key:
                continue
            for j, k in _pairs_for(key, i):
                xj, xk = xs[j - 1], xs[k - 1]
                if j not in C and k not in C:
                    corr += val * xi / (xj * xk)
                if i not in C and j not in C:
                    corr -= 2 * val * xk / (xi * xj)
        acc += corr / (4 * data.dims[i - 1])
        out.append(acc)
    return out


class NormalizationError(ArithmeticError):
    """The modified scalar curvature vanished or went nonpositive."""


def moment(data: HomSpaceData, x: Sequence, theta=Fraction(0)) -> list:
    """Moment-map coordinates c with sum(c) = 1:
    c_i = m_i w_i / l_theta with w_i = -(1+theta) r_i + b_i/x_i; ValueError
    unless |theta| < 1."""
    theta = Fraction(theta)
    if not -1 < theta < 1:
        raise ValueError("theta must satisfy |theta| < 1")
    xs = [Fraction(v) for v in x]
    r = ricci_components(data, xs)
    w = [
        -(1 + theta) * ri + data.b[i] / xs[i]
        for i, ri in enumerate(r)
    ]
    ell = sum(data.dims[i] * w[i] for i in range(data.d))
    if ell <= 0:
        raise NormalizationError(f"modified scalar curvature l_theta = {ell} <= 0")
    return [data.dims[i] * w[i] / ell for i in range(data.d)]


# ---------------------------------------------------------------------------
# Newton polytopes, restrictions, substitutions
# ---------------------------------------------------------------------------

def newton_polytope(p: LaurentPoly) -> LatticePolytope:
    if p.is_zero():
        raise ValueError("zero polynomial has no Newton polytope")
    return hull(p.support())


def restrict_to_face(p: LaurentPoly, face: Face) -> LaurentPoly:
    """Sub-sum of the terms whose exponents lie on the given face."""
    out = {e: c for e, c in p.terms.items() if face.contains_point(e)}
    return LaurentPoly(p.num_vars, out)


def monomial_substitute(p: LaurentPoly, substitution: Sequence, num_new_vars: int) -> LaurentPoly:
    """Substitute x_i = scalar_i * prod_j t_j^(E[i][j]) (true exponents E).

    substitution: per old variable a pair (scalar, exponent vector in the
    new variables).  Scalars must be nonzero.
    """
    if len(substitution) != p.num_vars:
        raise ValueError("substitution must cover every variable")
    scalars = []
    expmat = []
    for scalar, evec in substitution:
        scalar = Fraction(scalar)
        if scalar == 0:
            raise ValueError("substitution scalars must be nonzero")
        scalars.append(scalar)
        if len(evec) != num_new_vars:
            raise ValueError("new-variable exponent vector has wrong length")
        expmat.append([int(e) for e in evec])
    out: Dict[Exponent, Fraction] = {}
    for a, coef in p.terms.items():
        c = [-ai for ai in a]  # true exponents
        factor = Fraction(1)
        for ci, sc in zip(c, scalars):
            factor *= sc ** ci
        new_true = [0] * num_new_vars
        for ci, row in zip(c, expmat):
            for j in range(num_new_vars):
                new_true[j] += ci * row[j]
        key = tuple(-t for t in new_true)
        out[key] = out.get(key, Fraction(0)) + coef * factor
    return LaurentPoly(num_new_vars, out)
