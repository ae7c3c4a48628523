"""Exact convex polytopes over the integer lattice.

V- and H-representations are kept simultaneously: a polytope stores its
irredundant vertex set, the equations of its affine hull, and one primitive
inward facet normal per facet.  Hulls are computed by the double description
method on the cone of valid inequalities, entirely in integer arithmetic.

The double description keeps, for every ray, the bitmask of the processed
constraints it is tight on, and updates it as each constraint is added: a
ray on the new hyperplane gains its bit, and a new ray, the positive
combination of a ray on each side, gets the common mask of its parents plus
the new bit.  That mask is exact, because both parents are >= 0 on every
processed constraint, so their combination is 0 on one exactly when both
are.  Two rays of the pointed cone are adjacent iff no third ray is tight
wherever both are (Fukuda & Prodon 1996, *Double description method
revisited*, Prop. 7); adjacent rays share m - 2 independent tight
constraints, so a pair with fewer common bits is skipped before that scan.

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

Faces are bitmasks, read off the smaller side of the vertex-facet incidence
(Kaibel & Pfetsch 2002, *Computing the face lattice of a polytope from its
vertex-facet incidences*).  With fewer facets than vertices a face is its
vertex mask, and its facets are the inclusion-maximal proper cuts F & H over
the facets H; otherwise a face is its facet mask, and the same cut over the
facet masks of the vertices gives the faces covering it.  Either way a
`Face` is the two masks the walk finds, its vertex mask and the AND of its
vertices' facet masks; every face test reads those bits.  The walk records,
as each face's children, the facets of it that miss its first vertex: the
pulling triangulation cones a face from that vertex over their
triangulations, so its simplices are the flags of children from P down to a
vertex.  The volume walks those flags from the top, one fraction-free
elimination row per face.  Nothing here needs a rank computation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .exact import (
    DimensionError,
    LatticeChart,
    _bareiss,
    integer_kernel_basis,
    primitive,
    vec_gcd,
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


def _maximal_cuts(mask: int, rows, known) -> list:
    """The inclusion-maximal proper nonempty cuts mask & row, largest first.
    A cut in known, a face one dimension from mask's, is maximal by
    dimension."""
    cuts = {mask & row for row in rows}
    # the empty cut is the whole polytope (top-down: the empty face), next
    # only to a facet (a vertex), which the walk never expands
    cuts -= {mask, 0}
    maximal = []
    # a cut inside a non-maximal one is inside a larger maximal one, which
    # comes earlier in this order
    for c in sorted(cuts, key=int.bit_count, reverse=True):
        for o in () if c in known else maximal:
            if c & o == c:
                break
        else:
            maximal.append(c)
    return maximal


# ---------------------------------------------------------------------------
# double description: extreme rays of {y : C y >= 0}
# ---------------------------------------------------------------------------

def _initial_rays(constraints: list, m: int) -> tuple:
    """The first m independent constraints, the pivot columns of one
    elimination with the constraints as columns, and their simplicial cone
    rays."""
    idx = _bareiss([list(col) for col in zip(*constraints)])[0]
    if len(idx) < m:
        raise DimensionError("constraint matrix is rank deficient")
    chosen = [constraints[i] for i in idx]
    # rays r_j with <c_i, r_j> = 0 for i != j and > 0 for i == j
    rays = []
    for j, c in enumerate(chosen):
        others = chosen[:j] + chosen[j + 1:]
        r = integer_kernel_basis(others)[0] if others else [1]
        if _dot(c, r) < 0:
            r = [-x for x in r]
        rays.append(primitive(r))
    return rays, idx


def _extreme_rays(constraints: list) -> list:
    """All extreme rays of the pointed cone {y : C y >= 0} (integer rows),
    each as (ray, mask) with bit ci of mask set iff the ray is tight on
    constraint ci.  The masks are the ones the double description keeps,
    exact on every constraint once all are processed: callers read the
    incidence off them instead of recomputing it."""
    m = len(constraints[0])
    rays, init_idx = _initial_rays(constraints, m)
    # bit ci of masks[k] is set iff rays[k] is tight on processed constraint ci
    init_mask = _mask(init_idx)
    masks = [init_mask & ~(1 << ci) for ci in init_idx]
    init = set(init_idx)
    for ci, c in enumerate(constraints):
        if ci in init:
            continue
        bit = 1 << ci
        vals = [_dot(c, r) for r in rays]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            masks = [mk | bit if v == 0 else mk for mk, v in zip(masks, vals)]
            continue
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
                # adjacent rays share m - 2 independent tight constraints
                if common.bit_count() < m - 2:
                    continue
                # adjacent iff no third ray is tight wherever both are
                if any(mk & common == common
                       for k, mk in enumerate(masks) if k != ip and k != ineg):
                    continue
                vp, vn = vals[ip], vals[ineg]
                combo = [vp * b - vn * a for a, b in zip(rays[ip], rays[ineg])]
                new_rays.append(primitive(combo))
                new_masks.append(common | bit)
        # dedupe (combinations can coincide in degenerate positions)
        seen = {}
        for r, mk in zip(new_rays, new_masks):
            seen.setdefault(r, mk)
        rays = list(seen)
        masks = list(seen.values())
    return list(zip(rays, masks))


def _bareiss_row(state: tuple, row: list) -> tuple:
    """Add an independent row to a fraction-free (Bareiss) elimination with
    column pivoting; state, from ((), 1), is (reduced rows with their pivot
    columns, last pivot).  Each pivot is a minor of the rows up to it
    (Sylvester's identity): for square rows, the determinant up to sign."""
    prev = 1
    for prow, c in state[0]:
        p, f = prow[c], row[c]
        row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        prev = p
    c = next(j for j, x in enumerate(row) if x)
    return state[0] + ((row, c),), row[c]


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

class Face:
    """A face of a LatticePolytope: its vertex mask and its facet mask (bit
    k is vertex k, resp. facet k), as the face lattice finds them."""

    __slots__ = ("polytope", "vmask", "fmask", "dim", "vertex_indices", "children")

    def __init__(self, polytope, vmask, fmask, dim):
        self.polytope = polytope
        self.vmask = vmask
        self.fmask = fmask
        self.dim = dim
        self.vertex_indices = tuple(_bits(vmask))
        self.children = ()  # set by the face lattice: see _face_lattice

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
        """All k-dimensional faces."""
        if k < 0 or k > self.dim:
            raise DimensionError(f"no faces of dimension {k}")
        if k == self.dim:
            return [self.whole_face()]
        return self._face_lattice()[k]

    def all_proper_faces(self) -> dict:
        """Proper faces grouped by dimension 0..dim-1."""
        lattice = self._face_lattice()
        return {d: list(faces) for d, faces in lattice.items()}

    def whole_face(self) -> Face:
        return Face(self, (1 << len(self.vertices)) - 1, 0, self.dim)

    def _face_lattice(self) -> dict:
        if self._faces_by_dim is not None:
            return self._faces_by_dim
        by_facet, by_vertex = self.on_facet, self.tight
        # top-down a face is its vertex mask, cut to its facets; bottom-up a
        # face is its facet mask, cut to the faces covering it
        top_down = len(by_facet) < len(by_vertex)
        rows, other = (by_facet, by_vertex) if top_down else (by_vertex, by_facet)

        def face(mask, dim_):
            bits = _bits(mask)
            omask = other[bits[0]]
            for i in bits[1:]:
                omask &= other[i]
            vmask, fmask = (mask, omask) if top_down else (omask, mask)
            return Face(self, vmask, fmask, dim_)

        by_dim = {}
        dim_ = self.dim - 1 if top_down else 0
        # one level at a time, keyed by mask (a point has no rows: no levels)
        level = {mask: face(mask, dim_) for mask in rows}
        while level:
            by_dim[dim_] = sorted(level.values(), key=lambda f: f.vertex_indices)
            if len(by_dim) == self.dim:
                break
            dim_ += -1 if top_down else 1
            nxt = {}
            for mask, F in level.items():
                for c in _maximal_cuts(mask, rows, nxt):
                    if c not in nxt:
                        nxt[c] = face(c, dim_)
                    # a face's children are the faces it covers that miss its
                    # first vertex, which then comes before theirs
                    upper, lower = (F, nxt[c]) if top_down else (nxt[c], F)
                    if upper.vertex_indices[0] < lower.vertex_indices[0]:
                        upper.children += (lower,)
            level = nxt
        self._faces_by_dim = by_dim
        return by_dim

    def _face_masks(self) -> dict:
        """Vertex mask -> facet mask of every proper face."""
        if self._masks is None:
            self._masks = {f.vmask: f.fmask
                           for faces in self._face_lattice().values() for f in faces}
        return self._masks

    def _basis_tight_masks(self) -> list:
        """(i, e_i, mask of the facets tight at e_i) for each basis point
        e_i (1-based) that lies in the polytope."""
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
        stack = [([F for F in facets if F.vertex_indices[0]], root)]
        while stack:
            children, state = stack.pop()
            stack.extend((G.children, step(state, G.vertex_indices[0])) for G in children)
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


def polytope_from_json(obj) -> "LatticePolytope":
    if isinstance(obj, str):
        obj = json.loads(obj)
    return hull([tuple(v) for v in obj["vertices"]])


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
        if not any(a_chart):
            continue
        a_amb = chart.lift(a_chart)
        offset = _dot(a_amb, p0) - c
        if sum_one:
            # canonical representative: subtract offset * (1,...,1)
            a_amb = [x - offset for x in a_amb]
            offset = 0
        # exact: the offset is <a, p> at the lattice points p on the facet
        g = vec_gcd(a_amb)
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

def apexes(face: Face):
    """Yield (a, base facet mask) for each apex a of the face in
    lexicographic order (vertices are stored sorted).  a is an apex iff the
    other vertices are the vertex set of a face G = conv(others), whose
    facet mask is yielded.  G then has dimension dim F - 1: it is a proper
    face of F, and aff(G) together with a spans aff(F)."""
    table = face.polytope._face_masks()
    for a in face.vertex_indices:
        base = table.get(face.vmask & ~(1 << a))
        if base is not None:
            yield a, base


def basis_points_on(face: Face) -> list:
    """(i, e_i, tight facet mask) for each basis point e_i on the face: e_i
    lies in P and is tight on every facet containing the face."""
    fmask = face.fmask
    return [b for b in face.polytope._basis_tight_masks() if b[2] & fmask == fmask]


def is_pyramid(face: Face) -> Optional[LatticePoint]:
    """Lexicographically least apex of the face; None when the face is not
    a pyramid."""
    for a, _base in apexes(face):
        return face.polytope.vertices[a]
    return None


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
