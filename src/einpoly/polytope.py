"""Exact convex polytopes over the integer lattice.

V- and H-representations are kept simultaneously: a polytope stores its
irredundant vertex set, the equations of its affine hull, and one primitive
inward facet normal per facet.  Hulls are computed by the double description
method on the cone of valid inequalities, entirely in integer arithmetic.

The double description starts from the whole space, kept as the lines
e_1..e_m, and adds one constraint at a time (as Fukuda's cdd does).  A
constraint nonzero on some line is independent of the ones before it: the
first such line, oriented so that the constraint is positive on it, becomes
a ray tight on every earlier constraint, and the other lines and rays move
along it onto the new hyperplane, which scales their earlier products by a
positive number.  The
lines left span the lineality space, so no lines are left at the end iff the
cone is pointed.  A constraint zero on every line takes the insertion step,
which keeps, for every ray, the bitmask of the processed constraints it is
tight on: a ray on the new hyperplane gains its bit, and a new ray, the
positive combination of a ray on each side, gets the common mask of its
parents plus the new bit.  That mask is exact, because both parents are
>= 0 on every processed constraint, so their combination is 0 on one exactly
when both are.  Two rays are adjacent iff no third ray is tight wherever
both are (Fukuda & Prodon 1996, *Double description method revisited*,
Prop. 7); with the lines present the pointed part has dimension
m - len(lines), so adjacent rays share m - len(lines) - 2 independent tight
constraints, and a pair with fewer common bits is skipped before that scan.
Distinct adjacent pairs span distinct 2-faces of the cone, so each new ray
is found once and differs from every old one.

The hull works in one integer chart of the affine hull of the input
(`exact.LatticeChart`, one column Hermite form per point set): the double
description runs on chart coordinates, and each facet normal is lifted back
to Z^n by the same unimodular transform.  A normal is fixed only up to the
equations of the affine hull, so the lift picks one integer representative;
it is unique when the polytope is full-dimensional or, with offset 0, spans
a coordinate-sum-1 hyperplane.  The constraints of the double description
are the input points, so the mask it returns with a facet's ray is the set
of input points on that facet: the incidence is read once, off those masks,
and never recomputed with dot products.  Transposed, they give each point's
tight-facet mask, and an input point p is a vertex iff no other input
point's mask contains p's.  Exact, because the smallest face containing p
is P cut by the facets tight at p, and that face is the hull of the input
points on it, so it is {p} exactly when no other input point lies on all of
them.  The vertices' masks, and their transpose, are the vertex-facet
incidence the polytope keeps.

Faces are bitmasks, read off the vertex-facet incidence up from the
vertices (Kaibel & Pfetsch 2002, *Computing the face lattice of a polytope
from its vertex-facet incidences*): a face is its facet mask F, and the
inclusion-maximal proper cuts F & T over the facet masks T of the vertices
are the faces covering it; G above F has G & T = G & (F & T), so G is cut
only with F's distinct cuts, and a ridge is covered by its two facets.  A
`Face` is the two masks the walk finds, its facet mask and the AND of its
facets' vertex masks, and `first`, the lowest vertex bit; every face test
reads those bits.  A level is an antichain, so its vertex bit strings, read
from vertex 0 and sorted in reverse, give its vertex-tuple order.  The walk
records, as each face's children, the facets of it that miss its first
vertex: the pulling triangulation cones a face from that vertex over their
triangulations, so its simplices are the flags of children from P down to
a vertex.  The volume walks those flags from the top, one fraction-free
elimination row per face.  Nothing here needs a rank computation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Tuple

from .exact import (
    DimensionError,
    LatticeChart,
    _bareiss_row,
    primitive,
)

LatticePoint = Tuple[int, ...]


class EmptyHullError(ValueError):
    """Hull of an empty point set was requested."""


def _as_point(p) -> LatticePoint:
    return tuple(int(x) for x in p)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _transpose(masks, n: int) -> list:
    """The n column masks of the 0/1 matrix with the given row masks."""
    out = [0] * n
    for i, mask in enumerate(masks):
        for j in _bits(mask):
            out[j] |= 1 << i
    return out


def _bits(mask: int) -> list:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_cuts(mask: int, rows, known) -> tuple:
    """The inclusion-maximal proper nonempty cuts mask & row, and all the
    distinct proper nonempty cuts, each largest first.  A cut in known, a
    face one dimension from mask's, is maximal by dimension."""
    # the empty cut is the whole polytope, which covers only a facet, and
    # the walk never expands a facet
    cuts = sorted({mask & row for row in rows} - {mask, 0}, key=int.bit_count,
                  reverse=True)
    maximal = []
    # a cut inside a non-maximal one is inside a larger maximal one, which
    # comes earlier in this order
    for c in cuts:
        for o in () if c in known else maximal:
            if c & o == c:
                break
        else:
            maximal.append(c)
    return maximal, cuts


# ---------------------------------------------------------------------------
# double description: extreme rays of {y : C y >= 0}
# ---------------------------------------------------------------------------

def _extreme_rays(constraints: list) -> list:
    """All extreme rays of the pointed cone {y : C y >= 0} (integer rows),
    each as (ray, mask) with bit ci of mask set iff the ray is tight on
    constraint ci.  The masks are the ones the double description keeps,
    exact on every constraint once all are processed: callers read the
    incidence off them instead of recomputing it."""
    m = len(constraints[0])
    # the whole space, as lines: every line is tight on every processed constraint
    lines = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rays, masks = [], []
    for ci, c in enumerate(constraints):
        bit = 1 << ci
        line = next((x for x in lines if _dot(c, x)), None)
        if line is not None:
            # c is independent of the processed constraints.  The first line
            # it is nonzero on, oriented to v = <c, line> > 0, becomes a ray
            # tight on all of them; every other line and ray x moves to
            # v x - <c, x> line, on c = 0, its earlier products scaled by v
            lines.remove(line)
            v = _dot(c, line)
            if v < 0:
                line, v = tuple(-x for x in line), -v

            def cut(x):
                w = _dot(c, x)
                return primitive([v * a - w * b for a, b in zip(x, line)])

            lines = [cut(x) for x in lines]
            rays = [cut(x) for x in rays] + [line]
            masks = [mk | bit for mk in masks] + [bit - 1]
            continue
        vals = [_dot(c, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        new_rays = [rays[i] for i in pos]
        new_masks = [masks[i] for i in pos]
        for i, v in enumerate(vals):
            if v == 0:
                new_rays.append(rays[i])
                new_masks.append(masks[i] | bit)
        for ip in pos:
            for ineg in neg:
                common = masks[ip] & masks[ineg]
                # adjacent rays share m - len(lines) - 2 independent tight
                # constraints: the pointed part has dimension m - len(lines)
                if common.bit_count() < m - len(lines) - 2:
                    continue
                # adjacent iff no third ray is tight wherever both are
                if any(mk & common == common
                       for k, mk in enumerate(masks) if k != ip and k != ineg):
                    continue
                vp, vn = vals[ip], vals[ineg]
                combo = [vp * b - vn * a for a, b in zip(rays[ip], rays[ineg])]
                new_rays.append(primitive(combo))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    if lines:
        raise DimensionError("constraint matrix is rank deficient")
    return list(zip(rays, masks))


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

class Face:
    """A face of a LatticePolytope: its vertex mask, its facet mask (bit k
    is vertex k, resp. facet k) and `first`, its least vertex index, as the
    face lattice finds them; `vertex_indices` expands the vertex mask."""

    __slots__ = ("polytope", "vmask", "fmask", "dim", "first", "children")

    def __init__(self, polytope, vmask, fmask, dim):
        self.polytope = polytope
        self.vmask = vmask
        self.fmask = fmask
        self.dim = dim
        self.first = (vmask & -vmask).bit_length() - 1  # least vertex index
        self.children = ()  # set by the face lattice: see _face_lattice

    @property
    def vertex_indices(self) -> tuple:
        return tuple(_bits(self.vmask))

    @property
    def facet_indices(self) -> tuple:
        return tuple(_bits(self.fmask))

    def vertices(self) -> list:
        return [self.polytope.vertices[i] for i in self.vertex_indices]

    def __eq__(self, other):
        return (
            isinstance(other, Face)
            and self.polytope is other.polytope
            and self.vmask == other.vmask
        )

    def __hash__(self):
        return hash((id(self.polytope), self.vmask))

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={self.vertices()})"

    def contains_point(self, x) -> bool:
        """Exact membership of a rational point in this face.  The face is
        P cut by its tight facets, so their equalities go first: they reject
        most points before the full `P.contains`, which raises
        DimensionError for a point of the wrong dimension."""
        P = self.polytope
        if len(x) == P.ambient_dim:
            for fi in _bits(self.fmask):
                normal, offset = P.facets[fi]
                if _dot(normal, x) != offset:
                    return False
        return P.contains(x)

    def normal_signature(self) -> tuple:
        """Primitive sum of the defining facet normals; identifies the face
        among faces of the same polytope.  Meaningful only when all defining
        facets are canonicalized to offset 0 (sum-1 polytopes); otherwise
        returns the empty signature."""
        P = self.polytope
        if not self.fmask:
            return ()
        d = P.ambient_dim
        acc = [0] * d
        for fi in _bits(self.fmask):
            normal, offset = P.facets[fi]
            if offset != 0:
                return ()
            for k in range(d):
                acc[k] += normal[k]
        return primitive(acc)


class LatticePolytope:
    """Convex hull of integer points with exact V/H-representations."""

    def __init__(self, vertices, facets, affine_hull, ambient_dim, dim, tight):
        self.vertices: tuple = vertices          # sorted tuple of LatticePoint
        self.facets: tuple = facets              # tuple of (normal, offset)
        self.affine_hull: tuple = affine_hull    # tuple of (row, rhs)
        self.ambient_dim: int = ambient_dim
        self.dim: int = dim
        self.tight: tuple = tight                # facet mask of each vertex
        self.on_facet: list = _transpose(tight, len(facets))  # vertex mask of each facet
        self._faces_by_dim = None
        self._masks = None
        self._basis_masks = None

    # -- construction ------------------------------------------------------

    def __repr__(self):
        return (
            f"LatticePolytope(dim={self.dim}, ambient={self.ambient_dim}, "
            f"{len(self.vertices)} vertices, {len(self.facets)} facets)"
        )

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    # -- basic predicates ----------------------------------------------------

    def contains(self, x) -> bool:
        if len(x) != self.ambient_dim:
            raise DimensionError("point has wrong ambient dimension")
        for row, rhs in self.affine_hull:
            if _dot(row, x) != rhs:
                return False
        for normal, offset in self.facets:
            if _dot(normal, x) < offset:
                return False
        return True

    def contains_polytope(self, other: "LatticePolytope") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        return all(self.contains(v) for v in other.vertices)

    def in_dual_cone(self, y) -> bool:
        """True iff <x, y> >= 0 for every vertex x."""
        if len(y) != self.ambient_dim:
            raise DimensionError("vector has wrong ambient dimension")
        return all(_dot(v, y) >= 0 for v in self.vertices)

    # -- faces ---------------------------------------------------------------

    def faces(self, k: int) -> list:
        """All k-dimensional faces, ordered by `vertex_indices`, in a new
        list: the caller may reorder it."""
        if k < 0 or k > self.dim:
            raise DimensionError(f"no faces of dimension {k}")
        if k == self.dim:
            return [self.whole_face()]
        return list(self._face_lattice()[k])

    def all_proper_faces(self) -> dict:
        """Proper faces grouped by dimension 0..dim-1."""
        lattice = self._face_lattice()
        return {d: list(faces) for d, faces in lattice.items()}

    def whole_face(self) -> Face:
        return Face(self, (1 << len(self.vertices)) - 1, 0, self.dim)

    def _face_lattice(self) -> dict:
        if self._faces_by_dim is not None:
            return self._faces_by_dim
        tight, on_facet = self.tight, self.on_facet

        def face(fmask, dim_):
            vmask, rest = -1, fmask  # all ones: a proper face lies on some facet
            while rest:
                low = rest & -rest
                vmask &= on_facet[low.bit_length() - 1]
                rest ^= low
            return Face(self, vmask, fmask, dim_)

        fmt = f"{{:0{len(self.vertices)}b}}".format
        by_dim, rows = {}, {}
        dim_ = 0
        # one level at a time, keyed by facet mask (a point has no levels);
        # a face is cut with the distinct cuts of the face that found it, a
        # vertex with the rows of all vertices
        level = {mask: face(mask, dim_) for mask in tight} if self.dim else {}
        while level:
            by_dim[dim_] = sorted(level.values(), key=lambda f: fmt(f.vmask)[::-1],
                                  reverse=True)
            if len(by_dim) == self.dim:
                break
            dim_ += 1
            nxt, nxt_rows = {}, {}
            for mask, F in level.items():
                # a ridge lies on exactly two facets, which cover it
                covers, cuts = (((mask & -mask, mask & (mask - 1)), None)
                                if dim_ == self.dim - 1
                                else _maximal_cuts(mask, rows.pop(mask, tight), nxt))
                for c in covers:
                    if c not in nxt:
                        nxt[c], nxt_rows[c] = face(c, dim_), cuts
                    # a face's children are the faces it covers that miss its
                    # first vertex, which then comes before theirs
                    G = nxt[c]
                    if G.first < F.first:
                        G.children += (F,)
            level, rows = nxt, nxt_rows
        self._faces_by_dim = by_dim
        return by_dim

    def _face_masks(self) -> dict:
        """Vertex mask -> facet mask of every proper face."""
        if self._masks is None:
            self._masks = {f.vmask: f.fmask
                           for faces in self._face_lattice().values() for f in faces}
        return self._masks

    def basis_points(self) -> list:
        """(i, e_i, mask of the facets tight at e_i) for each basis point
        e_i (1-based) that lies in the polytope, in the order of i."""
        if self._basis_masks is None:
            d = self.ambient_dim
            basis = [tuple(int(j == i) for j in range(d)) for i in range(d)]
            self._basis_masks = [
                (i + 1, e, _mask(fi for fi, (normal, offset) in enumerate(self.facets)
                                 if normal[i] == offset))
                for i, e in enumerate(basis) if self.contains(e)]
        return self._basis_masks

    # -- volume ---------------------------------------------------------------

    def normalized_volume(self) -> int:
        """(d-1)! times the euclidean volume in the drop-last-coordinate
        chart; requires the polytope to lie in the coordinate-sum-1
        hyperplane.  Returns 0 when not full-dimensional there."""
        d = self.ambient_dim
        if any(sum(v) != 1 for v in self.vertices):
            raise ValueError("normalized volume needs the coordinate-sum-1 hyperplane")
        if self.dim < d - 1:
            return 0
        chart = [[x - y for x, y in zip(v[:-1], self.vertices[0])] for v in self.vertices]
        flags = self._flags(lambda state, v: _bareiss_row(state, chart[v]), ((), 1))
        return sum(abs(pivot) for _, pivot in flags)

    def _flags(self, step, root):
        """Carry step(state, v) from root down each flag of children from P
        to a vertex, v the first vertex of each face below P; yield the state
        at each vertex, one per simplex of the pulling triangulation."""
        # P's children: its facets that miss vertex 0 (a point is one simplex)
        facets = self._face_lattice().get(self.dim - 1, ())
        stack = [([F for F in facets if F.first], root)]
        while stack:
            children, state = stack.pop()
            stack.extend((G.children, step(state, G.first)) for G in children)
            if not children:
                yield state

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "vertices": [list(v) for v in self.vertices],
            "facets": [
                {"normal": list(n), "offset": off} for n, off in self.facets
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------

def hull(points: Iterable) -> LatticePolytope:
    """Convex hull of integer points: irredundant vertices plus a complete
    facet description within the affine hull."""
    pts = sorted({_as_point(p) for p in points})
    if not pts:
        raise EmptyHullError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionError("points of mixed length")
    p0 = pts[0]
    chart = LatticeChart(pts)
    r = chart.dim
    affine = tuple((tuple(row), _dot(row, p0)) for row in chart.equations)
    if r == 0:
        return LatticePolytope((p0,), (), affine, n, 0, (0,))
    # cone of valid inequalities on (a, c): <a, u> + c >= 0; a ray's mask is
    # the points on its facet
    constraints = [list(chart.coords(p)) + [1] for p in pts]
    sum_one = all(sum(p) == 1 for p in pts)
    on = {}
    for ray, mask in _extreme_rays(constraints):
        a_chart, c = ray[:-1], ray[-1]
        a_amb = chart.lift(a_chart)
        offset = _dot(a_amb, p0) - c
        if sum_one:
            # canonical representative: subtract offset * (1,...,1)
            a_amb = [x - offset for x in a_amb]
            offset = 0
        # exact: the offset is <a, p> at the lattice points p on the facet
        g = gcd(*a_amb)
        on[(tuple(x // g for x in a_amb), offset // g)] = mask
    facets = tuple(sorted(on))
    tight = _transpose([on[f] for f in facets], len(pts))
    # keep extreme points only: p is a vertex iff no other point lies on
    # every facet tight at p
    kept = [
        i for i, mk in enumerate(tight)
        if not any(o & mk == mk for j, o in enumerate(tight) if j != i)
    ]
    return LatticePolytope(tuple(pts[i] for i in kept), facets, affine, n, r,
                           tuple(tight[i] for i in kept))


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------

def standard_simplex(d: int) -> LatticePolytope:
    return hull([tuple(1 if j == i else 0 for j in range(d)) for i in range(d)])


def permutohedron(d: int) -> LatticePolytope:
    """Hull of all coordinate permutations of (2, 0, ..., 0, -1)."""
    if d < 2:
        raise DimensionError("permutohedron needs d >= 2")
    return hull(tuple(2 if k == i else -1 if k == j else 0 for k in range(d))
                for i in range(d) for j in range(d) if i != j)


# ---------------------------------------------------------------------------
# shape tests used by the face census
# ---------------------------------------------------------------------------

def _apex(face: Face, on_face, table: dict) -> int:
    """Lowest vertex bit a of the face whose base, V(F) minus a, is the
    vertex mask of a face of P in `table` (vertex mask -> facet mask) that
    holds every basis point (i, e_i, tight mask) of `on_face` other than a
    itself; 0 when no vertex is such an apex (see the `faces` module)."""
    vmask = rest = face.vmask
    while rest:
        low = rest & -rest
        rest ^= low
        base = table.get(vmask ^ low)
        if base is None:
            continue
        if not on_face:
            return low
        va = face.polytope.vertices[low.bit_length() - 1]
        if all(e == va or tight & base == base for _i, e, tight in on_face):
            return low
    return 0


def is_pyramid(face: Face) -> Optional[LatticePoint]:
    """Lexicographically least apex of the face; None when the face is not
    a pyramid."""
    a = _apex(face, (), face.polytope._face_masks())
    return face.polytope.vertices[a.bit_length() - 1] if a else None


def is_cross_polytope(face: Face) -> Optional[tuple]:
    """Center of the face when it is a k-dimensional cross polytope: 2k
    vertices pairing to a common midpoint.

    With S the sum of the vertices the center is c = S / 2k and the partner
    of v is S/k - v, which must be a lattice point: all in integers, with
    the center built as Fractions only for the result.  The pairs are
    c +- d_i / 2, so the affine hull of the face is c + span(d_i), and
    face.dim == k already makes the k differences d_i independent."""
    verts = face.vertices()
    k = face.dim
    if k < 1 or len(verts) != 2 * k:
        return None
    total = [sum(col) for col in zip(*verts)]
    if any(x % k for x in total):
        return None
    mid = [x // k for x in total]
    vset = set(verts)
    for v in verts:
        partner = tuple(m - x for m, x in zip(mid, v))
        if partner not in vset or partner == v:
            return None
    return tuple(Fraction(x, 2 * k) for x in total)
