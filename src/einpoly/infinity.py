"""Flat directions at infinity: the simplicial complex T of index sets whose
modules assemble to a euclidean algebra, the vertex criterion, the minimal
compactification, and admissibility checks.
"""

from __future__ import annotations

from itertools import combinations

from .exact import lattice_index, rank
from .homspace import HomSpaceData
from .polytope import Face, LatticePolytope, _extreme_rays, hull


class FlatComplex:
    """Maximal flat index subsets of {1..d}; downward closed by construction."""

    __slots__ = ("d", "maximal_flats")

    def __init__(self, d: int, maximal_flats):
        flats = sorted({tuple(sorted(f)) for f in maximal_flats})
        # drop flats contained in others
        kept = []
        for f in flats:
            fs = set(f)
            if not any(fs < set(g) for g in flats):
                kept.append(f)
        self.d = d
        self.maximal_flats = tuple(kept)

    def __repr__(self):
        return f"FlatComplex(d={self.d}, maximal_flats={self.maximal_flats})"

    def __eq__(self, other):
        return (
            isinstance(other, FlatComplex)
            and self.d == other.d
            and self.maximal_flats == other.maximal_flats
        )

    def is_empty(self) -> bool:
        return not self.maximal_flats

    def is_flat(self, subset) -> bool:
        s = set(subset)
        return any(s <= set(f) for f in self.maximal_flats)

    def contains_point(self, x) -> bool:
        """Membership of a point of ints or Fractions in the geometric
        realization: nonnegative coordinates summing to 1 with support
        inside a flat."""
        if len(x) != self.d:
            raise ValueError("point has wrong length")
        if any(v < 0 for v in x) or sum(x) != 1:
            return False
        support = {i + 1 for i, v in enumerate(x) if v != 0}
        return self.is_flat(support)

    def flat_face_points(self, flat) -> list:
        return [tuple(1 if j == i else 0 for j in range(1, self.d + 1)) for i in flat]

    def to_json_obj(self) -> dict:
        return {"maximal_flats": [list(f) for f in self.maximal_flats]}


def _singleton_flat(data: HomSpaceData, i: int) -> bool:
    if i in data.central or i in data.h_nontrivial:
        return False
    if (i, i) in data.bracket_meets_h:
        return False
    for key in data.triples:
        if key.count(i) >= 2:
            return False
    return True


def _pair_flat(data: HomSpaceData, i: int, j: int) -> bool:
    if tuple(sorted((i, j))) in data.bracket_meets_h:
        return False
    for key in data.triples:
        if key.count(i) + key.count(j) >= 2 and i in key and j in key:
            return False
    return True


def flat_complex(data: HomSpaceData) -> FlatComplex:
    """Flat index sets: no stored triple puts a bracket inside the set, no
    h-component bracket inside it, no h-action and no central directions.
    These conditions are singleton/pairwise, so maximal flats are the
    maximal cliques of a graph (Bron-Kerbosch enumeration)."""
    verts = [i for i in range(1, data.d + 1) if _singleton_flat(data, i)]
    adj = {v: set() for v in verts}
    for a, b in combinations(verts, 2):
        if _pair_flat(data, a, b):
            adj[a].add(b)
            adj[b].add(a)
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda v: len(adj[v] & p)) if pivot_pool else None
        candidates = p - adj[pivot] if pivot is not None else set(p)
        for v in sorted(candidates):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    if verts:
        bron_kerbosch(set(), set(verts), set())
    return FlatComplex(data.d, cliques)


class NotFlatError(ValueError):
    """Vertex criterion asked for an index that is not a flat singleton."""


def flat_vertex_criterion(data: HomSpaceData, j: int) -> bool:
    """True iff the flat point e_j is a vertex of the weight polytope:
    every stored triple containing j must have the shape {i, j, i}."""
    if not _singleton_flat(data, j):
        raise NotFlatError(f"{{{j}}} is not flat")
    for key in data.triples:
        if j not in key:
            continue
        rest = list(key)
        rest.remove(j)
        if rest[0] != rest[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# minimal compactification
# ---------------------------------------------------------------------------

def delta_min(polytope: LatticePolytope, T: FlatComplex) -> LatticePolytope:
    """Hull of the polytope vertices outside |T| together with the basis
    points e_j of the weight simplex that lie in the polytope but not in
    |T|.  Applied to the maximal moment polytope this yields the minimal
    one.  When every vertex lies outside |T| (the test `is_admissible`
    makes), the basis points it would add lie in the polytope already, so
    the polytope itself is returned."""
    d = polytope.ambient_dim
    gens = [v for v in polytope.vertices if not T.contains_point(v)]
    if len(gens) == len(polytope.vertices):
        return polytope
    for j in range(1, d + 1):
        ej = tuple(1 if i == j else 0 for i in range(1, d + 1))
        if polytope.contains(ej) and not T.contains_point(ej):
            gens.append(ej)
    if not gens:
        raise ValueError("no generating points left for the minimal polytope")
    return hull(gens)


def is_admissible(polytope: LatticePolytope, T: FlatComplex) -> bool:
    """No proper face of the polytope lies entirely inside |T|.

    Read off the vertices: a face inside |T| has its vertices there, and
    once dim >= 1 every vertex is itself a proper face.  A 0-dimensional
    polytope has no proper faces at all."""
    return polytope.dim == 0 or not any(T.contains_point(v) for v in polytope.vertices)


def _flat_slice(flat, P: LatticePolytope) -> list:
    """The vertices of the slice Q = conv{e_i : i in flat} intersected with
    P, homogenized, each with the mask of the facets of P it is tight on.
    On the coordinates y in flat, Q is {y >= 0 : sum y = 1} cut by P.  Its
    homogenization, the points (y, t) with y >= 0, sum y = t, the affine
    hull as equalities and every facet as an inequality, is a pointed
    integer cone whose extreme rays are the vertices of Q; the facet rows
    come last, so a ray's facet mask is its tight mask past the others."""
    idx = [i - 1 for i in flat]

    def row(normal, offset):
        return [normal[i] for i in idx] + [-offset]

    eqs = [row(*eq) for eq in P.affine_hull]
    eqs.append([1] * len(idx) + [-1])
    rows = [[int(i == j) for j in range(len(idx) + 1)] for i in range(len(idx))]
    rows += eqs + [[-x for x in r] for r in eqs]
    facets = [row(*f) for f in P.facets]
    return [(r, mask >> len(rows)) for r, mask in _extreme_rays(rows + facets)]


def _slice_dim(slice_: list, face: Face) -> int:
    """Affine dimension of a face F of P cut with a flat's slice Q
    (`_flat_slice`), -1 when empty.  Q lies in P, so F cuts it in the face
    of Q on F's facet equalities, the hull of the vertices of Q tight on
    them: the rank of their homogenized rays is one more than its dim."""
    mask = face.fmask
    tight = [r for r, m in slice_ if m & mask == mask]
    return rank(tight) - 1 if tight else -1


def t_dimension_report(polytope: LatticePolytope, T: FlatComplex) -> list:
    """Per proper face: (face, dim(face), dim(T cap face)); the compactification
    is admissible in the strong sense when every row has slice < face dim."""
    slices = [_flat_slice(flat, polytope) for flat in T.maximal_flats]
    return [(face, dim_, max((_slice_dim(s, face) for s in slices), default=-1))
            for dim_, faces in sorted(polytope.all_proper_faces().items()) for face in faces]


class B2NotApplicableError(ValueError):
    """Vertex lattice index is infinite or not a power of two."""


def b2_exponent(polytope: LatticePolytope) -> int:
    """log2 of the index in Z^d of the lattice generated by the vertices."""
    idx = lattice_index([list(v) for v in polytope.vertices])
    if idx is None:
        raise B2NotApplicableError("vertex lattice has infinite index")
    e = 0
    n = idx
    while n % 2 == 0:
        n //= 2
        e += 1
    if n != 1:
        raise B2NotApplicableError(f"index {idx} is not a power of two")
    return e
