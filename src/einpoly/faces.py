"""Marked-face census and face-restricted singularity analysis.

The census runs two shape tests on every proper non-vertex face F of P:

* test 1 (`polytope._apex`, the walk behind `is_pyramid`): F has an apex
  a such that every basis point e_i on F is a itself or lies on the base
  conv(other vertices);
* test 2 (`_octahedron`): F is a cross polytope centered at a basis point
  e_i0 and carries no other basis point.

F is *marked* when it fails both; marked faces are the candidate carriers
of solutions at infinity.  The tests are the simplified forms valid when
every vertex is of the shape e_i + e_j - e_k; on other polytopes the census
reports them inapplicable and runs neither.

Both tests are read off the face lattice of P as integer bitmasks (bit k of
a vertex mask is vertex k, of a facet mask facet k), with no hull or rank
computation per face:

* e_i lies on a face F iff e_i is in P and every facet containing F is
  tight at e_i, i.e. F's facet mask is a subset of e_i's tight mask.  Exact
  because a face of a polytope is P cut by the facets that contain it.
* a vertex a is an apex of F iff V(F) minus a is the vertex set of a
  (dim F - 1)-face G: one dict lookup.  Exact because a outside aff(others)
  makes F a pyramid whose base conv(others) is a facet of F, hence a face
  of P; conversely such a G has an affine hull of dimension dim F - 1 that
  misses a.  Any face with that vertex set has that dimension, so the
  lookup is by vertex mask alone.
* a basis point e on F lies in conv(others) iff e lies on that base face G,
  which is the first criterion again with G's facet mask.
* a face with no basis point fails test 2: the center of a cross polytope
  is the mean of its vertices, so a center e_i0 lies on the face and, by
  the first criterion, is one of its basis points.  Test 2 thus needs e_i0
  to be the face's only basis point, and the census reads each face's
  basis points once and tests the shape only of faces that carry one; on
  the others (more than 99% of the faces of Kaehler d = 8) test 1 is "F
  has an apex".

A marked 2-face is singular when the curve of the face restriction is
singular at a torus point.  On a parallelogram, the 2-dimensional cross
polytope (`is_cross_polytope`: its diagonals bisect each other), that is
one product of vertex coefficients (`face_verdict`); on any 2-face
`curve_singular` decides it exactly with the d = 3 solver's fiber gcds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .curvature import LaurentPoly, monomial_substitute, restrict_to_face, scalar_curvature
from .exact import LatticeChart, det
from .polytope import Face, LatticePolytope, _apex, is_cross_polytope
from .solver import DegenerateSystemError, _shift_nonneg, common_torus_zero

SINGULAR = "singular"
NONSINGULAR = "nonsingular"
NEEDS_MORE_DATA = "needs_more_data"
NOT_ANALYZED = "not_analyzed"


def _octahedron(face: Face, on_face: list) -> bool:
    """Test 2: the face is a cross polytope centered at a basis point
    e_{i0} and carries no other basis point.  The center lies on the face,
    so e_{i0} must be the one basis point of `on_face`."""
    if len(on_face) != 1:
        return False
    _i0, e, _tight = on_face[0]
    return is_cross_polytope(face) == e


def vertices_have_weight_shape(polytope: LatticePolytope) -> bool:
    """All vertices of the shape e_i + e_j - e_k (coordinate sum 1 with
    positive part {1,1} or {2} and negative part {-1})."""
    for v in polytope.vertices:
        if sum(v) != 1:
            return False
        pos = sorted(x for x in v if x > 0)
        neg = [x for x in v if x < 0]
        if neg != [-1] or pos not in ([1, 1], [2]):
            return False
    return True


@dataclass
class CensusEntry:
    face: Face
    dim: int
    test1: Optional[bool]
    test2: Optional[bool]
    marked: Optional[bool]


@dataclass
class MarkedFaceCensus:
    entries: List[CensusEntry]
    applicable: bool

    def marked_by_dim(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for e in self.entries:
            if e.marked:
                out[e.dim] = out.get(e.dim, 0) + 1
        return out

    def marked_total(self) -> int:
        return sum(1 for e in self.entries if e.marked)

    def marked_faces(self) -> List[CensusEntry]:
        return [e for e in self.entries if e.marked]

    def test2_count(self) -> int:
        return sum(1 for e in self.entries if e.test2)


def marked_census(polytope: LatticePolytope) -> MarkedFaceCensus:
    """Shape tests over every proper non-vertex face, in the face lattice's
    order: by (dimension, vertex set), each face's basis points read once
    from its facet mask."""
    applicable = vertices_have_weight_shape(polytope)
    table = polytope._face_masks()
    basis = polytope.basis_points()
    # the facets tight at no basis point: a face on one of them carries none
    untight = -1
    for _i, _e, tight in basis:
        untight &= ~tight
    entries = []
    for dim_, faces in sorted(polytope.all_proper_faces().items()):
        if dim_ == 0:
            continue
        for face in faces:
            if applicable:
                fmask = face.fmask
                on_face = [] if fmask & untight else [
                    b for b in basis if b[2] & fmask == fmask]
                t1 = _apex(face, on_face, table) != 0
                t2 = _octahedron(face, on_face)
                entries.append(CensusEntry(face, dim_, t1, t2, not (t1 or t2)))
            else:
                entries.append(CensusEntry(face, dim_, None, None, None))
    return MarkedFaceCensus(entries, applicable)


# ---------------------------------------------------------------------------
# singularity of face-restricted hypersurfaces
# ---------------------------------------------------------------------------

def parallelogram_singular(s: LaurentPoly, face: Face) -> str:
    """`face_verdict` on a parallelogram face, the 2-dimensional cross
    polytope; raises ValueError on any other face."""
    if face.dim != 2 or is_cross_polytope(face) is None:
        raise ValueError("face is not a parallelogram")
    return face_verdict(s, face)


def face_verdict(s: LaurentPoly, face: Face) -> str:
    """The report's singularity verdict on a marked face: not_analyzed
    unless it is a 2-face, needs_more_data unless it is a parallelogram
    (a 2-dimensional cross polytope) carrying the restriction's terms
    exactly at its four vertices.  With t the restriction's coefficients
    and 2c the sum of the two vertices of a diagonal, the restriction
    factors through a torus translate iff t[v] * t[2c - v] takes one value
    on all four vertices v, and then it is singular."""
    if face.dim != 2:
        return NOT_ANALYZED
    if is_cross_polytope(face) is None:
        return NEEDS_MORE_DATA
    verts = face.vertices()
    terms = restrict_to_face(s, face).terms
    if set(terms) != set(verts):
        return NEEDS_MORE_DATA
    mid = [sum(col) // 2 for col in zip(*verts)]
    products = {terms[v] * terms[tuple(m - x for m, x in zip(mid, v))] for v in verts}
    return SINGULAR if len(products) == 1 else NONSINGULAR


def _face_chart_poly(s: LaurentPoly, face: Face):
    """Rewrite the face restriction in two lattice coordinates of the face
    (padded with 0 when its support spans fewer directions); returns a dict
    (i, j) -> coeff of true exponents shifted to nonnegative ones, so
    neither variable divides it, or None when the restriction is empty."""
    restricted = restrict_to_face(s, face)
    if restricted.is_zero():
        return None
    chart = LatticeChart(restricted.terms)
    if chart.dim > 2:
        raise ValueError("face restriction spans more than two directions")
    pad = (0,) * (2 - chart.dim)
    return _shift_nonneg({chart.coords(p) + pad: coef for p, coef in restricted.terms.items()})


def _euler_bivar(poly: dict, axis: int) -> dict:
    """x df/dx (axis 0) or y df/dy (axis 1), shifted to nonnegative
    exponents; empty when f is constant in that variable."""
    return _shift_nonneg({e: c * e[axis] for e, c in poly.items() if e[axis]})


def curve_singular(s: LaurentPoly, face: Face) -> str:
    """Exact decision whether the plane curve f = 0 cut out by the face
    restriction has a singular point with both torus coordinates nonzero,
    i.e. a common torus zero of f, x df/dx and y df/dy.

    The pairs (f, x df/dx; third y df/dy) and (f, y df/dy; third x df/dx)
    are tried in turn by `solver.common_torus_zero`.  A pair is degenerate
    when its derivative is zero or it has a common factor (the solver
    raises `DegenerateSystemError`); the first pair that is not decides,
    and when both are, f is singular.  Proof: f is shifted so that x and y
    do not divide it, so no factor of f is a monomial.  Let c be an
    irreducible common factor of f and f_x.  If c divides f once, f = c m
    with c not dividing m, and c divides f_x - c m_x = c_x m, so c divides
    c_x, which has lower degree in x: c_x = 0 and c = p(y).  Likewise a
    common factor of f and f_y is a repeated factor or an r(x), and a zero
    f_x or f_y makes f itself a p(y) or an r(x).  A repeated non-monomial
    factor has torus zeros, where f and both derivatives vanish.  Otherwise
    f has factors p(y) and r(x), and at a torus point (a, b) with
    r(a) = p(b) = 0 their product vanishes to second order, so f is
    singular there.  One degenerate pair decides nothing:
    (y - 2)(xy - 2x + 1) shares y - 2 with x df/dx and is nonsingular.
    """
    if face.dim != 2:
        raise ValueError("curve singularity analysis needs a 2-face")
    poly = _face_chart_poly(s, face)
    if poly is None or len(poly) <= 1:
        return NEEDS_MORE_DATA
    g1, g2 = _euler_bivar(poly, 0), _euler_bivar(poly, 1)
    for g, third in ((g1, g2), (g2, g1)):
        if not g:
            continue
        try:
            return SINGULAR if common_torus_zero(poly, g, third) else NONSINGULAR
        except DegenerateSystemError:
            pass
    return SINGULAR


# ---------------------------------------------------------------------------
# monomial charts at faces
# ---------------------------------------------------------------------------

class ChartSubstitution:
    """Per-variable monomial substitution x_i = scalar_i * prod t_j^(E_ij)
    with a unimodular exponent matrix; used to localize the curvature
    polynomials near a designated face."""

    def __init__(self, scalars, exponents, scaling_index: int = 0):
        self.scalars = tuple(Fraction(s) for s in scalars)
        self.exponents = tuple(tuple(int(e) for e in row) for row in exponents)
        self.scaling_index = scaling_index
        n = len(self.exponents)
        if any(len(row) != n for row in self.exponents):
            raise ValueError("exponent matrix must be square")
        if any(s == 0 for s in self.scalars):
            raise ValueError("chart scalars must be nonzero")
        d = det([list(r) for r in self.exponents])
        if d not in (1, -1):
            raise ValueError(f"chart exponent matrix is not unimodular (det {d})")

    @property
    def num_vars(self) -> int:
        return len(self.exponents)


def localize(s: LaurentPoly, chart: ChartSubstitution) -> dict:
    """s and all s_i = x_i ds/dx_i rewritten in the chart variables."""
    subs = list(zip(chart.scalars, chart.exponents))
    out = {"s": monomial_substitute(s, subs, chart.num_vars)}
    for i in range(s.num_vars):
        out[f"s{i + 1}"] = monomial_substitute(s.euler(i), subs, chart.num_vars)
    return out


def boundary_jacobian(data, chart: ChartSubstitution, point: Sequence) -> tuple:
    """Cofactor expansion of the localized jacobian with a symbolic
    dimension row.

    Builds the d x d matrix whose scaling-variable row is replaced by the
    symbolic dimensions (d_1 ... d_d) and whose remaining rows are the
    partials of the localized s_1 ... s_d in the other chart variables,
    evaluated at the given chart point.  Returns the cofactor coefficients
    (c_1, ..., c_d) of the expansion sum_i d_i c_i.
    """
    s = scalar_curvature(data)
    local = localize(s, chart)
    n = chart.num_vars
    pt = [Fraction(v) for v in point]
    if len(pt) != n:
        raise ValueError("chart point has wrong length")
    if pt[chart.scaling_index] == 0:
        raise ValueError("scaling coordinate must be nonzero")
    var_rows = [k for k in range(n) if k != chart.scaling_index]
    d = data.d
    mat_rows = []
    for k in var_rows:
        row = []
        for i in range(1, d + 1):
            row.append(local[f"s{i}"].partial(k).eval(pt))
        mat_rows.append(row)
    cof = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in mat_rows]
        cof.append((-1) ** i * det(minor))
    return tuple(cof)
