"""Polytope engine: hulls, facets, faces, volumes, dual cones, shapes."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from einpoly import polytope
from einpoly.exact import (
    DimensionError,
    _column_hnf,
    det,
    integer_kernel_basis,
    primitive,
    rank,
    vec_gcd,
)
from einpoly.homspace import kaehler_b2_polytope, load_catalog, weight_polytope
from einpoly.infinity import delta_min, flat_complex
from einpoly.polytope import (
    EmptyHullError,
    hull,
    is_cross_polytope,
    is_pyramid,
    permutohedron,
    standard_simplex,
)
from qpoly import gauss_jordan_solve


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def pulling_triangulation(P):
    """The simplices of the flags the volume walks, as vertex-index tuples:
    the first vertex of each face along each flag."""
    return list(P._flags(lambda simplex, v: simplex + (v,), (0,)))


# ---------------------------------------------------------------------------
# hull construction
# ---------------------------------------------------------------------------


def test_standard_simplex():
    S = standard_simplex(4)
    assert len(S.vertices) == 4
    assert len(S.facets) == 4
    assert S.dim == 3


def test_triangle_with_interior_basis_points():
    pts = [(1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    T = hull(pts)
    assert T.vertices == ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    assert T.normalized_volume() == 4


def test_truncated_tetrahedron():
    pts = [
        tuple(1 if a in (i, j) else (-1 if a == k else 0) for a in range(4))
        for i in range(4)
        for j in range(4)
        for k in range(4)
        if len({i, j, k}) == 3
    ]
    P = hull(pts)
    assert len(P.vertices) == 12
    assert len(P.facets) == 8
    assert P.normalized_volume() == 23
    two_faces = P.faces(2)
    assert len(two_faces) == 8
    sizes = sorted(len(f.vertex_indices) for f in two_faces)
    assert sizes == [3, 3, 3, 3, 6, 6, 6, 6]  # 4 triangles + 4 hexagons


def test_hull_empty_rejected():
    with pytest.raises(EmptyHullError):
        hull([])


def test_vh_consistency_random():
    rng = random.Random(42)
    for _ in range(12):
        d = rng.choice([2, 3])
        pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(3, 9))}
        P = hull(pts)
        for v in P.vertices:
            tight = [f for f, (n, off) in enumerate(P.facets) if dot(n, v) == off]
            assert all(dot(n, v) >= off for n, off in P.facets)
            # vertices sit on at least dim-many facets
            assert len(tight) >= P.dim or P.dim == 0
        # every input point is inside
        for p in pts:
            assert P.contains(p)


def test_facets_match_bruteforce_oracle_3d():
    # supporting-plane enumeration over vertex triples, degeneracy included
    from einpoly.exact import primitive

    rng = random.Random(65)
    for _ in range(8):
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(9)})
        P = hull(pts)
        if P.dim != 3:
            continue
        expected = set()
        for a, b, c in combinations(pts, 3):
            u = [b[i] - a[i] for i in range(3)]
            v = [c[i] - a[i] for i in range(3)]
            n = (
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            )
            if n == (0, 0, 0):
                continue
            off = dot(n, a)
            vals = [dot(n, p) for p in pts]
            if all(x >= off for x in vals):
                nn = primitive(n)
                expected.add((nn, min(dot(nn, p) for p in pts)))
            elif all(x <= off for x in vals):
                nn = primitive(tuple(-x for x in n))
                expected.add((nn, min(dot(nn, p) for p in pts)))
        assert set(P.facets) == expected


def test_facets_match_bruteforce_oracle_2d():
    rng = random.Random(7)
    for _ in range(10):
        pts = sorted({(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(8)})
        P = hull(pts)
        if P.dim != 2:
            continue
        # oracle: all supporting lines through pairs of points
        expected = set()
        for a, b in combinations(pts, 2):
            n = (b[1] - a[1], a[0] - b[0])
            if n == (0, 0):
                continue
            vals = [dot(n, p) for p in pts]
            off = dot(n, a)
            if all(v >= off for v in vals):
                from einpoly.exact import primitive

                nn = primitive(n)
                expected.add((nn, min(dot(nn, p) for p in pts)))
            elif all(v <= off for v in vals):
                from einpoly.exact import primitive

                nn = primitive(tuple(-x for x in n))
                expected.add((nn, min(dot(nn, p) for p in pts)))
        assert set(P.facets) == expected


# ---------------------------------------------------------------------------
# normalized volume
# ---------------------------------------------------------------------------


def test_simplex_volume_is_one():
    for d in (2, 3, 4, 5):
        assert standard_simplex(d).normalized_volume() == 1


def test_volume_needs_sum_one_hyperplane():
    P = hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        P.normalized_volume()


def test_volume_zero_when_not_full_dimensional():
    P = hull([(1, 0, 0), (0, 1, 0)])  # a segment inside the sum-1 plane
    assert P.normalized_volume() == 0


def test_volume_of_points_and_lower_dimensional_polytopes():
    # a point is its own simplex: volume 1 when it fills the sum-1
    # hyperplane (d = 1), else 0
    point = hull([(1,)])
    assert point.dim == 0 and point.normalized_volume() == 1
    assert pulling_triangulation(point) == [(0,)]
    assert hull([(0, 1, 0)]).normalized_volume() == 0
    assert hull([(2, -1), (-1, 2)]).normalized_volume() == 3
    # a triangle in the 3-dimensional sum-1 hyperplane of Z^4 has volume 0,
    # and is still one simplex of its own triangulation
    triangle = hull([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert triangle.dim == 2 and triangle.normalized_volume() == 0
    assert pulling_triangulation(triangle) == [(0, 1, 2)]


@st.composite
def full_dimensional_sum_one_polytopes(draw):
    """Hulls of integer points that fill the coordinate-sum-1 hyperplane
    of Z^n, n = 1..5."""
    n = draw(st.integers(min_value=1, max_value=5))
    coord = st.integers(min_value=-3, max_value=3)
    heads = draw(st.lists(st.lists(coord, min_size=n - 1, max_size=n - 1),
                          min_size=n, max_size=n + 5))
    P = hull([tuple(h + [1 - sum(h)]) for h in heads])
    assume(P.dim == n - 1)
    return P


@given(full_dimensional_sum_one_polytopes())
@settings(max_examples=150, deadline=None)
def test_incremental_determinants_match_det_of_each_simplex(P):
    """Along each flag the volume reduces one row per face; at each step the
    pivot is a nonzero minor of the simplex's rows so far, and at the vertex
    it is the simplex's determinant up to sign."""
    chart = [v[:-1] for v in P.vertices]

    def step(state, v):
        simplex, elimination = state
        row = [x - y for x, y in zip(chart[v], chart[0])]
        return simplex + (v,), polytope._bareiss_row(elimination, row)

    leaves = list(P._flags(step, ((0,), ((), 1))))
    assert sorted(simplex for simplex, _ in leaves) == sorted(pulling_triangulation(P))
    total = 0
    for simplex, (rows, pivot) in leaves:
        mat = [[x - y for x, y in zip(chart[i], chart[0])] for i in simplex[1:]]
        assert len(rows) == len(mat) == P.dim
        for k, (row, c) in enumerate(rows, start=1):
            cols = [c for _, c in rows[:k]]
            assert abs(row[c]) == abs(det([[mat[i][j] for j in cols] for i in range(k)])) != 0
        assert abs(pivot) == abs(int(det(mat)))
        total += abs(pivot)
    assert P.normalized_volume() == total


def test_volume_matches_shoelace_in_the_plane():
    rng = random.Random(3)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            pts.add((x, y, 1 - x - y))
        P = hull(pts)
        if P.dim != 2:
            continue
        chart = [v[:2] for v in P.vertices]
        cx = sum(F(p[0]) for p in chart) / len(chart)
        cy = sum(F(p[1]) for p in chart) / len(chart)
        import math

        ordered = sorted(chart, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        twice_area = 0
        for i in range(len(ordered)):
            x1, y1 = ordered[i]
            x2, y2 = ordered[(i + 1) % len(ordered)]
            twice_area += x1 * y2 - x2 * y1
        assert P.normalized_volume() == abs(twice_area)


def _random_unimodular(k, rng):
    mat = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(6):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-2, 2)
        for col in range(k):
            mat[i][col] += c * mat[j][col]
    return mat


def test_volume_invariant_under_unimodular_maps():
    rng = random.Random(19)
    base = permutohedron(4)
    k = 3
    for _ in range(8):
        U = _random_unimodular(k, rng)
        moved = []
        for v in base.vertices:
            u = [sum(U[i][j] * v[j] for j in range(k)) for i in range(k)]
            moved.append(tuple(u) + (1 - sum(u),))
        Q = hull(moved)
        assert Q.normalized_volume() == base.normalized_volume() == 63


def test_volume_additive_over_a_slice():
    # split the triangle conv{(0,0),(4,0),(0,4)} (lifted to sum 1) along x=y
    def lift(p):
        return (p[0], p[1], 1 - p[0] - p[1])

    whole = hull([lift((0, 0)), lift((4, 0)), lift((0, 4))])
    left = hull([lift((0, 0)), lift((4, 0)), lift((2, 2))])
    right = hull([lift((0, 0)), lift((0, 4)), lift((2, 2))])
    assert whole.normalized_volume() == left.normalized_volume() + right.normalized_volume()


# ---------------------------------------------------------------------------
# permutohedron
# ---------------------------------------------------------------------------


def test_permutohedron_values():
    assert permutohedron(2).normalized_volume() == 3
    P3 = permutohedron(3)
    assert P3.normalized_volume() == 13
    assert len(P3.vertices) == 6  # hexagon
    assert len(permutohedron(4).facets) == 14


def test_permutohedron_facet_counts():
    for d in (2, 3, 4, 5):
        assert len(permutohedron(d).facets) == 2**d - 2


def test_permutohedron_needs_d_at_least_two():
    with pytest.raises(DimensionError):
        permutohedron(1)


# ---------------------------------------------------------------------------
# membership and dual cones
# ---------------------------------------------------------------------------


def test_contains_barycenter_and_outside_point():
    S = standard_simplex(3)
    assert S.contains([F(1, 3)] * 3)
    assert not S.contains([F(2), F(-1), F(0)])
    with pytest.raises(DimensionError):
        S.contains([1, 0])
    # a point polytope: its affine hull alone decides membership
    pt = hull([(1, 2, 0)])
    assert pt.dim == 0 and not pt.facets
    assert pt.contains((1, 2, 0)) and pt.contains([F(2, 2), F(2), F(0)])
    assert not pt.contains((1, 2, 1)) and not pt.contains([F(1, 2), 2, 0])


def test_contains_polytope_simplex_in_permutohedron():
    for d in (2, 3, 4):
        assert permutohedron(d).contains_polytope(standard_simplex(d))


def test_dual_cone_basics():
    T = hull([(1, 1, -1), (1, -1, 1), (-1, 1, 1)])
    assert T.in_dual_cone([0, 0, 0])
    assert T.in_dual_cone([1, 1, 1])
    assert not T.in_dual_cone([-1, 0, 0])


def sample_dual_cone(P, rng):
    """A somewhat spread-out element of the dual cone: shift a random vector
    by a multiple of the all-ones vector (which pairs to 1 with every
    vertex of a sum-1 polytope)."""
    d = P.ambient_dim
    y0 = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]
    worst = min(sum(F(v[i]) * y0[i] for i in range(d)) for v in P.vertices)
    t = max(F(0), -worst)
    return [a + t for a in y0]


def test_dual_cone_tropical_closure_sampled():
    rng = random.Random(23)
    polys = [
        hull([(1, 1, -1), (1, -1, 1), (-1, 1, 1)]),
        hull([(2, 0, -1), (0, 2, -1), (1, 0, 0), (0, 1, 0)]),
    ]
    for P in polys:
        for _ in range(200):
            y = sample_dual_cone(P, rng)
            yp = sample_dual_cone(P, rng)
            assert P.in_dual_cone(y) and P.in_dual_cone(yp)
            mx = [max(a, b) for a, b in zip(y, yp)]
            mn = [min(a, F(0)) for a in y]
            assert P.in_dual_cone(mx)
            assert P.in_dual_cone(mn)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def test_faces_of_simplex():
    S = standard_simplex(4)
    assert len(S.faces(0)) == 4
    assert len(S.faces(1)) == 6
    assert len(S.faces(2)) == 4
    with pytest.raises(DimensionError):
        S.faces(5)


def test_all_proper_faces_grouping():
    P = permutohedron(3)
    grouped = P.all_proper_faces()
    assert sorted(grouped) == [0, 1]
    assert len(grouped[0]) == 6 and len(grouped[1]) == 6


def test_low_dimensional_face_lattices():
    # a point has no proper faces, not an empty level at dimension -1
    point = hull([(2, -1)])
    assert point.all_proper_faces() == {}
    assert point.faces(0) == [point.whole_face()]
    segment = hull([(0, 1), (2, -1)])
    grouped = segment.all_proper_faces()
    assert list(grouped) == [0]
    assert [f.vertices() for f in grouped[0]] == [[(0, 1)], [(2, -1)]]


def _minimal(name):
    data = load_catalog(name)
    return delta_min(weight_polytope(data), flat_complex(data))


@pytest.mark.parametrize("key, top_down", [
    *((f"kaehler_{d}", d == 4) for d in range(3, 8)),
    ("jordan_product_3_3", True),
    ("e8_t1_a4_a2_a1", False),
])
def test_faces_keep_the_lattice_masks(key, top_down):
    # the lattice walks down from the facets when there are fewer of them
    # than vertices, and up from the vertices otherwise; both walks must
    # hand each face its own vertex mask and the facets tight on all of it
    P = kaehler_b2_polytope(int(key.split("_")[1])) if key.startswith("kaehler") else _minimal(key)
    assert (len(P.facets) < len(P.vertices)) == top_down
    proper = [f for fs in P.all_proper_faces().values() for f in fs]
    table = {}
    for f in proper + [P.whole_face()]:
        vmask = sum(1 << i for i in f.vertex_indices)
        fmask = (1 << len(P.facets)) - 1
        for i in f.vertex_indices:
            fmask &= P.tight[i]
        assert (f.vmask, f.fmask) == (vmask, fmask)
        assert f.facet_indices == tuple(i for i in range(len(P.facets)) if fmask >> i & 1)
        if f.dim < P.dim:
            table[vmask] = fmask
    assert P._face_masks() == table


# ---------------------------------------------------------------------------
# pyramids and cross polytopes
# ---------------------------------------------------------------------------


def test_simplex_faces_are_pyramids_with_lex_least_apex():
    S = standard_simplex(3)
    face = S.whole_face()
    assert is_pyramid(face) == (0, 0, 1)  # lexicographically least vertex


def test_square_is_cross_polytope():
    P = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    center = is_cross_polytope(P.whole_face())
    assert center == (F(0), F(0))


def cross_polytope_reference(face):
    """Fraction center S / 2k, partners 2 center - v, rank of v - center."""
    verts = face.vertices()
    k = face.dim
    if k < 1 or len(verts) != 2 * k:
        return None
    center = tuple(F(sum(col), len(verts)) for col in zip(*verts))
    reps = []
    used = set()
    for v in verts:
        if v in used:
            continue
        partner = tuple(2 * c - x for c, x in zip(center, v))
        if any(c.denominator != 1 for c in partner):
            return None
        partner = tuple(int(c) for c in partner)
        if partner not in verts or partner == v:
            return None
        used.update((v, partner))
        reps.append([x - c for x, c in zip(v, center)])
    return center if rank(reps) == k else None


def test_cross_polytope_centers_off_the_lattice():
    # the unit square pairs its vertices through (1/2, 1/2); a trapezoid
    # has no common midpoint
    assert is_cross_polytope(hull([(0, 0), (1, 0), (0, 1), (1, 1)]).whole_face()) == (F(1, 2), F(1, 2))
    assert is_cross_polytope(hull([(0, 0), (2, 0), (0, 1), (1, 1)]).whole_face()) is None
    octahedron = hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert is_cross_polytope(octahedron.whole_face()) == (F(0), F(0), F(0))


def test_cross_polytope_matches_fraction_reference():
    polytopes = [kaehler_b2_polytope(5), hull([(0, 0), (1, 0), (0, 1), (1, 1)])]
    for name in ("e8_t1_a3_a4", "jordan_product_2_3"):
        data = load_catalog(name)
        polytopes.append(delta_min(weight_polytope(data), flat_complex(data)))
    found = 0
    for P in polytopes:
        faces = [P.whole_face()] + [f for fs in P.all_proper_faces().values() for f in fs]
        for face in faces:
            center = is_cross_polytope(face)
            assert center == cross_polytope_reference(face)
            found += center is not None
    assert found > 0


def test_triangle_is_not_cross_polytope():
    T = hull([(1, 1, -1), (1, -1, 1), (-1, 1, 1)])
    assert is_cross_polytope(T.whole_face()) is None
    assert is_pyramid(T.whole_face()) == (-1, 1, 1)


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------


def test_triangle_contains_basis_points_as_non_vertices():
    T = hull([(1, 1, -1), (1, -1, 1), (-1, 1, 1)])
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert T.contains(e)
        assert e not in T.vertices
    # midpoint identity pins the inclusion
    assert tuple((a + b) // 2 for a, b in zip((1, 1, -1), (1, -1, 1))) == (1, 0, 0)


def test_json_roundtrip():
    from einpoly.polytope import polytope_from_json

    P = permutohedron(3)
    Q = polytope_from_json(P.to_json())
    assert Q == P and Q.facets == P.facets


# ---------------------------------------------------------------------------
# bitmask kernels against the direct implementations they replaced
# ---------------------------------------------------------------------------


def reference_extreme_rays(constraints):
    """Double description with every tight mask recomputed from scratch
    and no popcount pre-filter."""
    m = len(constraints[0])
    rays, processed = polytope._initial_rays(constraints, m)
    processed = list(processed)

    def tight_mask(ray):
        return sum(1 << pos for pos, ci in enumerate(processed)
                   if dot(constraints[ci], ray) == 0)

    for ci, c in enumerate(constraints):
        if ci in processed:
            continue
        vals = [dot(c, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            processed.append(ci)
            continue
        masks = [tight_mask(r) for r in rays]
        new_rays = [rays[i] for i in pos] + [rays[i] for i, v in enumerate(vals) if v == 0]
        for ip in pos:
            for ineg in neg:
                common = masks[ip] & masks[ineg]
                if any(masks[k] & common == common
                       for k in range(len(rays)) if k not in (ip, ineg)):
                    continue
                combo = [vals[ip] * b - vals[ineg] * a for a, b in zip(rays[ip], rays[ineg])]
                new_rays.append(primitive(combo))
        processed.append(ci)
        rays = list(dict.fromkeys(new_rays))
    return rays


def reference_face_lattice(P):
    """Faces as (dim, vertex indices, facet indices): every nonempty
    intersection of facet vertex sets, its dimension by affine rank and its
    facets by a scan of all incidences."""
    incidences = [
        frozenset(i for i, v in enumerate(P.vertices) if dot(normal, v) == offset)
        for normal, offset in P.facets
    ]
    faces = set()
    frontier = set(incidences)
    while frontier:
        faces |= frontier
        frontier = {f & inc for f in frontier for inc in incidences} - faces - {frozenset()}
    out = []
    for f in faces:
        pts = [P.vertices[i] for i in sorted(f)]
        diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
        fids = tuple(fi for fi, inc in enumerate(incidences) if f <= inc)
        out.append((rank(diffs) if diffs else 0, tuple(sorted(f)), fids))
    return sorted(out)


def reference_triangulation(P):
    """Pulling triangulation whose children are found by scanning every
    face one dimension lower."""
    lattice = P.all_proper_faces()
    memo = {}

    def triangulate(f):
        key = f.vertex_indices
        if key not in memo:
            if f.dim == 0:
                memo[key] = [key]
            else:
                pull = key[0]
                memo[key] = [
                    (pull,) + s
                    for child in lattice[f.dim - 1]
                    if pull not in child.vertex_indices
                    and set(child.vertex_indices) <= set(key)
                    for s in triangulate(child)
                ]
        return memo[key]

    return triangulate(P.whole_face())


KERNEL_CATALOG = (
    "su3_t2", "sphere_s3", "wang_ziller_killing", "wang_ziller_q",
    "e8_t1_a3_a4", "e8_t1_a4_a2_a1", "jordan_2", "jordan_3",
    "jordan_product_2_2", "jordan_product_2_3", "jordan_product_3_3",
    "product_of_irreducibles_4",
)


def kernel_polytopes(key):
    """Delta and Delta_min of a catalog space, or a Kaehler polytope."""
    if key.startswith("kaehler_"):
        return [kaehler_b2_polytope(int(key.split("_")[1]))]
    data = load_catalog(key)
    delta = weight_polytope(data)
    return [delta, delta_min(delta, flat_complex(data))]


def permuted_hull(P, seed):
    rng = random.Random(seed)
    identity = list(range(P.ambient_dim))
    perm = identity[:]
    while perm == identity:
        rng.shuffle(perm)
    return hull([tuple(v[p] for p in perm) for v in P.vertices])


def flat_lattice(P):
    return sorted((f.dim, f.vertex_indices, f.facet_indices)
                  for fs in P.all_proper_faces().values() for f in fs)


@pytest.mark.parametrize("permute", [False, True], ids=["as_built", "permuted"])
@pytest.mark.parametrize("key", list(KERNEL_CATALOG) + [f"kaehler_{d}" for d in range(2, 8)])
def test_kernels_match_reference_implementations(monkeypatch, key, permute):
    runs = []
    extreme_rays = polytope._extreme_rays

    def recorded(constraints):
        rays = extreme_rays(constraints)
        runs.append((constraints, rays))
        return rays

    monkeypatch.setattr(polytope, "_extreme_rays", recorded)
    polys = kernel_polytopes(key)
    if permute:
        polys = [permuted_hull(P, seed=key) for P in polys]
    assert runs
    for constraints, rays in runs:
        assert sorted(r for r, _ in rays) == sorted(reference_extreme_rays(constraints))
        # each ray's mask is the set of constraints it is tight on
        for r, mask in rays:
            assert mask == sum(1 << ci for ci, c in enumerate(constraints) if dot(c, r) == 0)
    for P in polys:
        assert flat_lattice(P) == reference_face_lattice(P)
        assert sorted(pulling_triangulation(P)) == sorted(reference_triangulation(P))


def test_kaehler_d8_face_lattice_matches_reference():
    # 40 vertices and 280 facets: the lattice is walked up from the vertices,
    # and the triangulation read off the children it records
    P = kaehler_b2_polytope(8)
    assert flat_lattice(P) == reference_face_lattice(P)
    assert sorted(pulling_triangulation(P)) == sorted(reference_triangulation(P))


# ---------------------------------------------------------------------------
# the shared lattice chart and vertex masks against the hull they replaced
# ---------------------------------------------------------------------------


def reference_solve_integer(rows, rhs):
    """One integer solution of A x = b from a fresh column Hermite form,
    solved along its staircase of leading rows; None when none exists."""
    h, u = _column_hnf([list(r) for r in rows])
    m, n = len(rows), len(rows[0])
    b = [F(v) for v in rhs]
    sol = [F(0)] * n
    for j in range(n):
        lead = next((r for r in range(m) if h[r][j] != 0), None)
        if lead is None:
            break
        sol[j] = (b[lead] - sum(h[lead][jj] * sol[jj] for jj in range(j))) / h[lead][j]
    if any(sum(h[i][j] * sol[j] for j in range(n)) != b[i] for i in range(m)):
        return None
    if any(s.denominator != 1 for s in sol):
        return None
    return [sum(u[i][j] * int(sol[j]) for j in range(n)) for i in range(n)]


def reference_hull(points):
    """(vertices, facets, affine hull, dim) with a rational solve per point
    for its chart coordinates, a fresh integer solve per facet for its
    normal, and a rank test over tight chart normals per vertex."""
    pts = sorted({tuple(p) for p in points})
    n = len(pts[0])
    p0 = pts[0]
    diffs = [[p[i] - p0[i] for i in range(n)] for p in pts]
    if not any(any(d) for d in diffs):
        return (p0,), (), tuple((tuple(int(j == i) for j in range(n)), p0[i]) for i in range(n)), 0
    ortho = integer_kernel_basis(diffs)
    basis = integer_kernel_basis(ortho) if ortho else [
        [int(i == j) for j in range(n)] for i in range(n)]
    r = len(basis)
    affine = tuple((tuple(row), dot(row, p0)) for row in ortho)
    cols = [[basis[j][i] for j in range(r)] for i in range(n)]
    chart_pts = [tuple(int(c) for c in gauss_jordan_solve(cols, d)) for d in diffs]
    rays = polytope._extreme_rays([list(u) + [1] for u in chart_pts])
    sum_one = all(sum(p) == 1 for p in pts)
    facets = set()
    for ray, _ in rays:
        a_chart, c = list(ray[:-1]), ray[-1]
        if not any(a_chart):
            continue
        a_amb = reference_solve_integer(basis, a_chart)
        offset = dot(a_amb, p0) - c
        if sum_one:
            a_amb = [x - offset for x in a_amb]
            offset = 0
        g = vec_gcd(a_amb)
        if g > 1:
            a_amb = [x // g for x in a_amb]
            offset = min(dot(a_amb, p) for p in pts)
        facets.add((tuple(a_amb), offset))
    facets = tuple(sorted(facets))
    vertices = tuple(
        p for p in pts
        if rank([[dot(normal, b) for b in basis]
                 for normal, offset in facets if dot(normal, p) == offset]) == r
    )
    return vertices, facets, affine, r


@st.composite
def point_sets(draw):
    """Point sets that are full-dimensional, on the coordinate-sum-1
    hyperplane, or in a lower-dimensional (possibly non-saturated) affine
    lattice, with repeated points."""
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=-3, max_value=3)
    kind = draw(st.sampled_from(["generic", "sum_one", "lower_dim"]))
    m = draw(st.integers(min_value=1, max_value=9))
    if kind == "generic":
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=m, max_size=m))
    elif kind == "sum_one":
        heads = draw(st.lists(st.lists(coord, min_size=n - 1, max_size=n - 1),
                              min_size=m, max_size=m))
        pts = [tuple(h + [1 - sum(h)]) for h in heads]
    else:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        p0 = draw(st.lists(coord, min_size=n, max_size=n))
        gens = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=k, max_size=k))
        coeffs = draw(st.lists(st.lists(coord, min_size=k, max_size=k), min_size=m, max_size=m))
        pts = [tuple(p0[j] + sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n))
               for cs in coeffs]
    repeats = draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts + repeats


@given(point_sets())
@settings(max_examples=200, deadline=None)
def test_hull_matches_reference_hull(pts):
    P = hull(pts)
    vertices, facets, affine, r = reference_hull(pts)
    n = len(pts[0])
    if r == n or (r == n - 1 and all(sum(p) == 1 for p in pts)):
        # the normal is unique, or fixed by offset 0 on the sum-1 hyperplane
        assert (P.vertices, P.facets, P.affine_hull, P.dim) == (vertices, facets, affine, r)
        return
    # otherwise a normal is one representative modulo the equations of the
    # affine hull: the same facets, told apart by their tight points
    assert (P.vertices, P.affine_hull, P.dim) == (vertices, affine, r)

    def by_tight(fs):
        return {frozenset(p for p in pts if dot(normal, p) == offset): normal
                for normal, offset in fs}

    got, want = by_tight(P.facets), by_tight(facets)
    assert len(got) == len(P.facets) and got.keys() == want.keys()
    equations = [list(row) for row, _ in affine]
    for key, normal in got.items():
        assert vec_gcd(normal) == 1
        assert rank(equations + [[x - y for x, y in zip(normal, want[key])]]) == len(equations)


@given(point_sets())
@settings(max_examples=200, deadline=None)
def test_face_lattice_and_triangulation_match_reference(pts):
    P = hull(pts)
    # the incidence the double description's masks give, both ways round
    by_facet = [sum(1 << i for i, v in enumerate(P.vertices) if dot(normal, v) == offset)
                for normal, offset in P.facets]
    by_vertex = tuple(sum(1 << fi for fi, (normal, offset) in enumerate(P.facets)
                          if dot(normal, v) == offset) for v in P.vertices)
    assert (P.on_facet, P.tight) == (by_facet, by_vertex)
    assert flat_lattice(P) == reference_face_lattice(P)
    assert sorted(pulling_triangulation(P)) == sorted(reference_triangulation(P))
    # the flattened lattice cannot see an empty level outside 0..dim-1
    assert set(P.all_proper_faces()) == set(range(P.dim))


@pytest.mark.parametrize("key", list(KERNEL_CATALOG) + [f"kaehler_{d}" for d in range(2, 7)])
def test_hull_matches_reference_hull_on_catalog(key):
    for P in kernel_polytopes(key):
        Q = hull(P.vertices)
        assert (Q.vertices, Q.facets, Q.affine_hull, Q.dim) == reference_hull(P.vertices)


# ---------------------------------------------------------------------------
# the double-description start simplex against the greedy rank scan
# ---------------------------------------------------------------------------


def reference_initial_rays(constraints, m):
    """The first m independent constraints by one rank test per scanned
    constraint, and the rays of their simplicial cone."""
    chosen, idx = [], []
    for i, c in enumerate(constraints):
        if rank(chosen + [c]) > len(chosen):
            chosen.append(c)
            idx.append(i)
            if len(chosen) == m:
                break
    if len(chosen) < m:
        raise DimensionError("constraint matrix is rank deficient")
    rays = []
    for j in range(m):
        cols = [[F(chosen[i][k]) for k in range(m)] for i in range(m) if i != j]
        r = integer_kernel_basis([[int(x) for x in row] for row in cols])[0] if cols else [1] * m
        if dot(chosen[j], r) < 0:
            r = [-x for x in r]
        rays.append(primitive(r))
    return rays, idx


@pytest.mark.parametrize("key", list(KERNEL_CATALOG) + [f"kaehler_{d}" for d in range(2, 7)])
def test_initial_rays_match_greedy_rank_scan(monkeypatch, key):
    seen = []
    initial_rays = polytope._initial_rays

    def recorded(constraints, m):
        seen.append((constraints, m))
        return initial_rays(constraints, m)

    monkeypatch.setattr(polytope, "_initial_rays", recorded)
    kernel_polytopes(key)
    assert seen
    for constraints, m in seen:
        assert initial_rays(constraints, m) == reference_initial_rays(constraints, m)


def test_initial_rays_skip_dependent_constraints():
    # zero rows, multiples and sums of earlier rows ahead of and between the
    # independent ones; some sets stay rank deficient
    rng = random.Random(808)
    deficient = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        constraints = []
        for _ in range(rng.randint(1, m + 3)):
            kind = rng.random()
            if kind < 0.2:
                constraints.append([0] * m)
            elif kind < 0.45 and constraints:
                c = rng.choice(constraints)
                constraints.append([rng.choice([-2, -1, 2, 3]) * x for x in c])
            elif kind < 0.6 and len(constraints) >= 2:
                a, b = rng.sample(constraints, 2)
                constraints.append([x + y for x, y in zip(a, b)])
            else:
                constraints.append([rng.randint(-3, 3) for _ in range(m)])
        try:
            expected = reference_initial_rays(constraints, m)
        except DimensionError:
            deficient += 1
            with pytest.raises(DimensionError):
                polytope._initial_rays(constraints, m)
            continue
        assert polytope._initial_rays(constraints, m) == expected
    assert 0 < deficient < 300
