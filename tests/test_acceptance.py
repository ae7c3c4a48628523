"""Acceptance suite: one test per criterion, exact expectations throughout.

The terminal summary (see conftest) prints one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction as F

import pytest

from conftest import record_criterion
from einpoly.curvature import (
    moment,
    newton_polytope,
    ricci_components,
    scalar_curvature,
)
from einpoly.exact import lattice_index
from einpoly.faces import (
    NONSINGULAR,
    SINGULAR,
    ChartSubstitution,
    boundary_jacobian,
    localize,
    marked_census,
    parallelogram_singular,
)
from einpoly.homspace import (
    HomSpaceData,
    jordan_product,
    jordan_space,
    kaehler_b2_polytope,
    load_catalog,
    product_of_irreducibles,
    weight_polytope,
)
from einpoly.infinity import FlatComplex, b2_exponent, delta_min, flat_complex
from einpoly.polytope import hull, permutohedron
from einpoly.report import analyze
from einpoly.solver import (
    count_complex,
    delannoy,
    legendre_at_3,
    real_positive,
)

CATALOG = (
    "su3_t2",
    "sphere_s3",
    "wang_ziller_killing",
    "wang_ziller_q",
    "e8_t1_a3_a4",
    "e8_t1_a4_a2_a1",
)


def minimal_polytope(data):
    return delta_min(weight_polytope(data), flat_complex(data))


def face_by_signature(P, sig):
    for _dim, faces in P.all_proper_faces().items():
        for face in faces:
            if face.normal_signature() == tuple(sig):
                return face
    raise LookupError(sig)


def test_criterion_1_kaehler_table():
    record_criterion(1, "b2=1 table: f = 2,4,7,16,36,100 and nu = 2,6,20,82,344,1598")
    expected_f = {2: 2, 3: 4, 4: 7, 5: 16, 6: 36, 7: 100}
    expected_nu = {2: 2, 3: 6, 4: 20, 5: 82, 6: 344, 7: 1598}
    t0 = time.monotonic()
    for d in range(2, 7):
        P = kaehler_b2_polytope(d)
        assert len(P.facets) == expected_f[d]
        assert P.normalized_volume() == expected_nu[d]
    assert time.monotonic() - t0 < 10
    t0 = time.monotonic()
    P7 = kaehler_b2_polytope(7)
    assert len(P7.facets) == 100
    assert P7.normalized_volume() == 1598
    assert time.monotonic() - t0 < 300


def test_criterion_2_delannoy_and_envelope():
    record_criterion(2, "Delannoy = Legendre(3); permutohedron volumes; Delta in Pi")
    t0 = time.monotonic()
    assert [delannoy(n) for n in range(6)] == [1, 3, 13, 63, 321, 1683]
    assert [legendre_at_3(n) for n in range(6)] == [1, 3, 13, 63, 321, 1683]
    for d in range(2, 6):
        assert permutohedron(d).normalized_volume() == legendre_at_3(d - 1)
    fixtures = [load_catalog(name) for name in CATALOG]
    fixtures += [jordan_space(2), jordan_space(3), product_of_irreducibles(3)]
    for data in fixtures:
        P = weight_polytope(data)
        Pi = permutohedron(data.d)
        assert Pi.contains_polytope(P)
        nu = minimal_polytope(data).normalized_volume()
        assert nu <= delannoy(data.d - 1) < 6 ** (data.d - 1)
    for d in range(2, 8):
        assert kaehler_b2_polytope(d).normalized_volume() <= delannoy(d - 1) < 6 ** (d - 1)
        if d <= 6:
            assert permutohedron(d).contains_polytope(kaehler_b2_polytope(d))
    assert time.monotonic() - t0 < 30


def test_criterion_3_b2_index():
    record_criterion(3, "vertex lattice index 2; nu/2 in {1,3,10,41,172}")
    t0 = time.monotonic()
    halves = []
    for d in range(2, 7):
        P = kaehler_b2_polytope(d)
        assert lattice_index([list(v) for v in P.vertices]) == 2
        assert b2_exponent(P) == 1
        nu = P.normalized_volume()
        assert nu % 2 == 0
        halves.append(nu // 2)
    assert halves == [1, 3, 10, 41, 172]
    assert time.monotonic() - t0 < 5


def test_criterion_4_marked_census():
    record_criterion(4, "marked faces 0,0,3,13,40; d=6 split 12/13/15/0; facet classes 16/8/12")
    t0 = time.monotonic()
    totals = {d: marked_census(kaehler_b2_polytope(d)) for d in range(2, 7)}
    assert [totals[d].marked_total() for d in range(2, 7)] == [0, 0, 3, 13, 40]
    assert totals[6].marked_by_dim() == {2: 15, 3: 13, 4: 12}
    assert totals[5].marked_by_dim() == {2: 7, 3: 6}
    assert sorted(len(e.face.vertex_indices) for e in totals[4].marked_faces()) == [4, 4, 5]
    # centered-octahedron faces: the count is round(d/2) rounded up;
    # the half-integer bracket resolves upward (see the decisions ledger)
    assert {d: totals[d].test2_count() for d in range(3, 7)} == {3: 2, 4: 2, 5: 3, 6: 3}

    P6 = kaehler_b2_polytope(6)
    simplices = {(1, 2, 2, 1, 2, 1), (1, 2, 3, 2, 3, 2), (1, 2, 1, 1, 2, 1),
                 (1, 1, 1, 2, 2, 1), (2, 2, 1, 1, 1, 1), (3, 2, 3, 4, 1, 2),
                 (1, 1, 1, 2, 1, 2), (1, 1, 2, 2, 1, 1), (1, 1, 2, 2, 1, 2),
                 (2, 1, 1, 1, 1, 2), (3, 2, 5, 4, 3, 6), (1, 1, 2, 1, 1, 2),
                 (2, 2, 3, 1, 1, 3), (5, 2, 3, 4, 5, 6), (2, 1, 1, 1, 2, 2),
                 (5, 4, 3, 2, 7, 6)}
    pyramids = {(3, 4, 1, 2, 5, 2), (1, 2, 3, 4, 5, 4), (5, 2, 3, 4, 1, 6),
                (1, 2, 3, 2, 1, 2), (3, 2, 1, 2, 1, 2), (1, 2, 3, 4, 3, 4),
                (3, 2, 1, 4, 3, 2), (1, 2, 3, 2, 3, 4)}
    marked_facets = {(1, 2, 3, 4, 5, 6), (3, 2, 1, 4, 1, 2), (1, 2, 3, 4, 3, 2),
                     (1, 2, 1, 2, 3, 2), (1, 2, 1, 2, 1, 2), (1, 2, 1, 0, 1, 2),
                     (2, 1, 1, 2, 0, 2), (1, 2, 2, 1, 0, 1), (1, 1, 0, 1, 1, 0),
                     (1, 0, 1, 0, 1, 0), (1, 2, 1, 2, 1, 0), (1, 2, 3, 2, 1, 0)}
    assert {n for n, _off in P6.facets} == simplices | pyramids | marked_facets
    from einpoly.polytope import is_pyramid

    facet_faces = P6.faces(4)
    simplex_faces = {f.normal_signature() for f in facet_faces
                     if len(f.vertex_indices) == 5}
    pyramid_faces = {f.normal_signature() for f in facet_faces
                     if len(f.vertex_indices) > 5 and is_pyramid(f) is not None}
    marked6 = {e.face.normal_signature() for e in totals[6].marked_faces() if e.dim == 4}
    assert simplex_faces == simplices
    assert pyramid_faces == pyramids
    assert marked6 == marked_facets
    # the nine vertices of the example facet
    example = next(f for f in facet_faces if f.normal_signature() == (1, 2, 3, 4, 5, 6))
    def pt(i, j, k):
        v = [0] * 6
        v[i - 1] += 1
        v[j - 1] += 1
        v[k - 1] -= 1
        return tuple(v)
    assert set(example.vertices()) == {
        pt(1, 1, 2), pt(1, 2, 3), pt(1, 3, 4), pt(1, 4, 5), pt(1, 5, 6),
        pt(2, 2, 4), pt(2, 3, 5), pt(2, 4, 6), pt(3, 3, 6),
    }
    assert time.monotonic() - t0 < 120


def test_criterion_5_singularity_verdicts():
    record_criterion(5, "d=5 face P singular; d=6 lists 6 singular + 9 nonsingular; 31 open")
    t0 = time.monotonic()
    d5 = load_catalog("e8_t1_a3_a4")
    P5 = minimal_polytope(d5)
    s5 = scalar_curvature(d5)
    face_p = face_by_signature(P5, (2, 4, 3, 1, 1))
    coeffs = {v: s5.terms[v] for v in face_p.vertices()}
    diag1 = coeffs[(-1, 0, 0, 1, 1)] * coeffs[(2, -1, 0, 0, 0)]
    diag2 = coeffs[(1, 0, -1, 1, 0)] * coeffs[(0, -1, 1, 0, 1)]
    assert diag1 == diag2 == F(2)
    assert parallelogram_singular(s5, face_p) == SINGULAR

    d6 = load_catalog("e8_t1_a4_a2_a1")
    P6 = minimal_polytope(d6)
    s6 = scalar_curvature(d6)
    lista = [(5, 5, 2, 7, 3, 2), (3, 6, 8, 5, 2, 3), (5, 5, 2, 3, 7, 2),
             (3, 6, 7, 10, 13, 12), (3, 4, 6, 3, 2, 1), (3, 6, 6, 5, 2, 1)]
    listb = [(3, 6, 7, 8, 5, 2), (8, 3, 5, 6, 2, 8), (5, 7, 2, 3, 7, 4),
             (3, 6, 7, 6, 9, 12), (7, 5, 2, 9, 5, 4), (5, 7, 2, 5, 9, 4),
             (3, 4, 7, 8, 11, 10), (3, 2, 1, 3, 1, 2), (1, 2, 3, 4, 4, 4)]
    verdicts_a = [parallelogram_singular(s6, face_by_signature(P6, sig)) for sig in lista]
    verdicts_b = [parallelogram_singular(s6, face_by_signature(P6, sig)) for sig in listb]
    assert verdicts_a == [SINGULAR] * 6
    assert verdicts_b == [NONSINGULAR] * 9
    census = marked_census(P6)
    open_cases = census.marked_total() - verdicts_b.count(NONSINGULAR)
    assert open_cases == 31 == 40 - 9
    assert time.monotonic() - t0 < 60


D5_CHART = ChartSubstitution(
    scalars=[F(-3, 2), F(-3, 4), F(3, 4), 1, 1],
    exponents=[
        (1, 1, 0, -1, -1),
        (3, 2, 1, -2, -2),
        (2, 2, 1, -2, -1),
        (0, 0, 0, -1, 0),
        (0, 0, 0, 0, -1),
    ],
    scaling_index=0,
)


def test_criterion_6_chart_localization():
    record_criterion(6, "d=5 chart truncations and jacobian (128/3)(d1+3d2+2d3)")
    t0 = time.monotonic()
    data = load_catalog("e8_t1_a3_a4")
    s = scalar_curvature(data)
    local = localize(s, D5_CHART)

    def lin(key):
        return dict(local[key].y_degree_truncate([3, 4], 1).terms)

    def w(z0=0, z1=0, z2=0, y1=0, y2=0):
        return (-z0, -z1, -z2, -y1, -y2)

    assert lin("s") == {
        w(z0=1): F(1), w(z0=1, z1=1): F(1), w(z0=1, z2=1): F(1),
        w(z0=1, z1=1, z2=1): F(1), w(y1=1): F(8),
        w(z1=-1, y1=1): F(-8, 3), w(y2=1): F(4),
    }
    assert lin("s1") == {
        w(z0=1, z1=1): F(1), w(z0=1, z2=1): F(-2),
        w(z0=1, z1=1, z2=1): F(-1), w(z1=-1, y1=1): F(8, 3),
    }
    assert lin("s2") == {
        w(z0=1): F(1), w(z0=1, z2=1): F(1), w(z1=-1, y1=1): F(-8, 3),
    }
    assert lin("s3") == {
        w(z0=1): F(-1), w(z0=1, z1=1, z2=1): F(1), w(z1=-1, y1=1): F(8, 3),
    }
    assert lin("s4") == {
        w(z0=1, z1=1): F(-1), w(z0=1, z1=1, z2=1): F(-1), w(y1=1): F(-8),
    }
    assert lin("s5") == {
        w(z0=1): F(-1), w(z0=1, z1=1): F(-1), w(y2=1): F(-4),
    }
    cof = boundary_jacobian(data, D5_CHART, [F(1), F(-1), F(-1), F(0), F(0)])
    assert cof == (F(128, 3), F(128), F(256, 3), F(0), F(0))
    assert time.monotonic() - t0 < 5


def test_criterion_7_minimal_compactifications():
    record_criterion(7, "sphere segment, trapezoid (nu 3), octahedron -> tetrahedron (nu 1)")
    t0 = time.monotonic()
    sphere = load_catalog("sphere_s3")
    P = weight_polytope(sphere)
    T = flat_complex(sphere)
    assert P.vertices == ((-1, 2), (1, 0))
    assert delta_min(P, T).vertices == ((-1, 2), (0, 1))

    wz = load_catalog("wang_ziller_q")
    Pq = weight_polytope(wz)
    Tq = flat_complex(wz)
    assert Pq.vertices == ((0, 0, 1), (0, 2, -1), (2, 0, -1))
    assert Tq.maximal_flats == ((3,),)
    dm = delta_min(Pq, Tq)
    assert dm.vertices == ((0, 1, 0), (0, 2, -1), (1, 0, 0), (2, 0, -1))
    assert dm.normalized_volume() == 3

    octa = hull([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                 (-1, 0, 0, 2), (0, -1, 0, 2), (0, 0, -1, 2)])
    T3 = FlatComplex(4, [(1,), (2,), (3,)])
    tetra = delta_min(octa, T3)
    assert tetra.vertices == ((-1, 0, 0, 2), (0, -1, 0, 2), (0, 0, -1, 2), (0, 0, 0, 1))
    assert tetra.normalized_volume() == 1
    assert time.monotonic() - t0 < 5


def test_criterion_8_flat_complexes():
    record_criterion(8, "jordan flats: p+1 simplices of dim max(0,(p-3)/2); products K_{p+1,q+1}")
    t0 = time.monotonic()
    for p in (2, 3, 5):
        T = flat_complex(jordan_space(p))
        assert len(T.maximal_flats) == p + 1
        want_dim = max(0, (p - 3) // 2)
        assert all(len(f) - 1 == want_dim for f in T.maximal_flats)
        # disjointness
        seen = [i for f in T.maximal_flats for i in f]
        assert len(seen) == len(set(seen))
    for p, q in ((2, 2), (2, 3), (3, 3)):
        T = flat_complex(jordan_product(p, q))
        dp = jordan_space(p).d
        flats = set(T.maximal_flats)
        expected = {(a, b) for a in range(1, dp + 1)
                    for b in range(dp + 1, dp + jordan_space(q).d + 1)}
        assert flats == expected
        assert len(flats) == (p + 1) * (q + 1)
    for name in ("su3_t2", "e8_t1_a3_a4", "e8_t1_a4_a2_a1"):
        assert flat_complex(load_catalog(name)).is_empty()
    assert time.monotonic() - t0 < 5


def test_criterion_9_newton_identity_and_moment():
    record_criterion(9, "Nw(s) identities, exact gradient identity, moment interior")
    t0 = time.monotonic()
    rng = random.Random(2)
    for name, nu in (("su3_t2", 4), ("wang_ziller_killing", 3), ("jordan_3", 23)):
        data = load_catalog(name)
        P = weight_polytope(data)
        dmin = minimal_polytope(data)
        s = scalar_curvature(data)
        assert newton_polytope(s) == P == dmin
        assert dmin.normalized_volume() == nu
    for name in ("su3_t2", "wang_ziller_killing", "jordan_3"):
        data = load_catalog(name)
        s = scalar_curvature(data)
        for _ in range(100):
            x = [F(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(data.d)]
            r = ricci_components(data, x)
            for i in range(data.d):
                assert r[i] == -s.euler(i).eval(x) / data.dims[i]
        P = weight_polytope(data)
        for theta in (F(-1, 2), F(0), F(1, 2)):
            for _ in range(5):
                x = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(data.d)]
                c = moment(data, x, theta)
                assert P.contains(c)
                for normal, off in P.facets:
                    assert sum(F(n) * v for n, v in zip(normal, c)) > off
    assert time.monotonic() - t0 < 60


def test_criterion_10_solver():
    record_criterion(10, "solution counts: 1 (product), 3 (WZ shape), 4 (su3), 1 (jordan_2)")
    t0 = time.monotonic()
    rng = random.Random(3)

    prod = product_of_irreducibles(2)
    sol = real_positive(prod)
    assert sol.distinct_complex == 1 and sol.positive_count == 1

    rand_wz = HomSpaceData(
        name="wz_rand", d=3, dims=(2, 2, 1),
        b=(F(rng.randint(1, 30), rng.randint(1, 9)),
           F(rng.randint(1, 30), rng.randint(1, 9)), F(0)),
        triples={(1, 1, 3): F(rng.randint(1, 30), rng.randint(1, 9)),
                 (2, 2, 3): F(rng.randint(1, 30), rng.randint(1, 9))},
        bracket_meets_h=frozenset({(1, 1), (2, 2)}),
        h_nontrivial=frozenset({1, 2}),
        central=frozenset({3}),
        complement="killing_orthogonal",
    )
    wz_sol = count_complex(rand_wz)
    assert wz_sol.distinct_complex == 3
    assert minimal_polytope(rand_wz).normalized_volume() == 3

    su3 = load_catalog("su3_t2")
    su3_sol = real_positive(su3)
    assert su3_sol.distinct_complex == 4
    assert su3_sol.positive_count == 4
    assert all(s["exact"] and s["residual"] == "0" for s in su3_sol.solutions)
    assert su3_sol.distinct_complex <= minimal_polytope(su3).normalized_volume()

    j2 = jordan_space(2)
    assert count_complex(j2).distinct_complex == 1
    assert minimal_polytope(j2).normalized_volume() == 4

    # the d = 5 count is carried as an annotation only
    br = analyze(load_catalog("e8_t1_a3_a4"))[0]["bounds"]
    assert br["epsilon_computed"] is None
    assert br["epsilon_annotation"] == 81
    assert br["nu"] - br["epsilon_annotation"] == 1 == br["escaped_to_infinity"]
    assert time.monotonic() - t0 < 120


def test_criterion_11_property_suites():
    record_criterion(11, "dual-cone closure x1000, unimodular volume invariance, census invariance")
    t0 = time.monotonic()
    rng = random.Random(41)

    def sample(P):
        d = P.ambient_dim
        y0 = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d)]
        worst = min(sum(F(v[i]) * y0[i] for i in range(d)) for v in P.vertices)
        return [a + max(F(0), -worst) for a in y0]

    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a3_a4"):
        P = weight_polytope(load_catalog(name))
        for _ in range(1000):
            y, yp = sample(P), sample(P)
            assert P.in_dual_cone(y) and P.in_dual_cone(yp)
            assert P.in_dual_cone([max(a, b) for a, b in zip(y, yp)])
            assert P.in_dual_cone([min(a, F(0)) for a in y])

    def random_unimodular(k):
        mat = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for _ in range(8):
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-2, 2)
            for col in range(k):
                mat[i][col] += c * mat[j][col]
        return mat

    for name in ("su3_t2", "wang_ziller_killing"):
        base = minimal_polytope(load_catalog(name))
        k = base.ambient_dim - 1
        for _ in range(10):
            U = random_unimodular(k)
            moved = []
            for v in base.vertices:
                u = [sum(U[i][j] * v[j] for j in range(k)) for i in range(k)]
                moved.append(tuple(u) + (1 - sum(u),))
            assert hull(moved).normalized_volume() == base.normalized_volume()

    base5 = minimal_polytope(load_catalog("e8_t1_a3_a4"))
    counts = marked_census(base5).marked_by_dim()
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        Q = hull([tuple(v[perm[i]] for i in range(5)) for v in base5.vertices])
        assert marked_census(Q).marked_by_dim() == counts
    assert time.monotonic() - t0 < 120
