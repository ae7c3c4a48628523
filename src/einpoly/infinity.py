"""Flat directions at infinity: the simplicial complex T of index sets whose
modules assemble to a euclidean algebra, the vertex criterion, the minimal
compactification, and the b2 exponent of the vertex lattice.
"""

from __future__ import annotations

from itertools import combinations

from .exact import lattice_index
from .homspace import HomSpaceData
from .polytope import LatticePolytope, hull


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
    one.  When every vertex lies outside |T|, the polytope is admissible
    (a proper face inside |T| would have its vertices there) and the basis
    points it would add lie in it already, so it is returned itself."""
    gens = [v for v in polytope.vertices if not T.contains_point(v)]
    if len(gens) == len(polytope.vertices):
        return polytope
    gens += [e for _i, e, _tight in polytope.basis_points() if not T.contains_point(e)]
    if not gens:
        raise ValueError("no generating points left for the minimal polytope")
    return hull(gens)


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
