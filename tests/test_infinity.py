"""Flat complexes, minimal compactifications, admissibility, b2 exponents."""

import json
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einpoly.curvature import scalar_curvature
from einpoly.exact import DimensionError, rank
from einpoly.homspace import (
    DegenerateSpectrumError,
    HomSpaceData,
    catalog_names,
    jordan_product,
    jordan_space,
    kaehler_b2_polytope,
    load_catalog,
    parse,
    weight_points,
    weight_polytope,
)
from einpoly.infinity import (
    B2NotApplicableError,
    FlatComplex,
    NotFlatError,
    b2_exponent,
    delta_min,
    flat_complex,
    flat_vertex_criterion,
)
from einpoly.polytope import hull, standard_simplex
from qpoly import gauss_jordan_solve


# ---------------------------------------------------------------------------
# flat complexes
# ---------------------------------------------------------------------------


def test_equal_rank_fixture_has_no_flats(su3_t2):
    assert flat_complex(su3_t2).is_empty()


def test_flag_fixtures_have_no_flats(e8_d5, e8_d6):
    assert flat_complex(e8_d5).is_empty()
    assert flat_complex(e8_d6).is_empty()


def test_jordan_3_flats_are_four_points():
    T = flat_complex(jordan_space(3))
    assert T.maximal_flats == ((1,), (2,), (3,), (4,))


def test_jordan_5_flats_are_six_pairs():
    T = flat_complex(jordan_space(5))
    assert len(T.maximal_flats) == 6
    assert all(len(f) == 2 for f in T.maximal_flats)
    # the pairs partition the twelve indices
    seen = sorted(i for f in T.maximal_flats for i in f)
    assert seen == list(range(1, 13))


def test_jordan_product_2_3_is_complete_bipartite():
    T = flat_complex(jordan_product(2, 3))
    flats = set(T.maximal_flats)
    assert flats == {(a, b) for a in (1, 2, 3) for b in (4, 5, 6, 7)}
    assert len(flats) == 12


def test_downward_closure():
    for data in (jordan_space(5), jordan_product(2, 3), load_catalog("sphere_s3")):
        T = flat_complex(data)
        for flat in T.maximal_flats:
            for k in range(1, len(flat) + 1):
                for sub in combinations(flat, k):
                    assert T.is_flat(sub)


def test_flat_hulls_lie_on_the_boundary():
    for name in ("sphere_s3", "wang_ziller_q"):
        data = load_catalog(name)
        P = weight_polytope(data)
        T = flat_complex(data)
        for flat in T.maximal_flats:
            for p in (tuple(int(j == i) for j in range(1, data.d + 1)) for i in flat):
                assert P.contains(p)
                assert any(
                    sum(n * x for n, x in zip(normal, p)) == off
                    for normal, off in P.facets
                )


def test_contains_point_uses_support():
    T = FlatComplex(3, [(1, 2)])
    assert T.contains_point([F(1, 2), F(1, 2), F(0)])
    assert not T.contains_point([F(1, 2), F(0), F(1, 2)])
    assert not T.contains_point([F(3, 2), F(-1, 2), F(0)])


# ---------------------------------------------------------------------------
# vertex criterion
# ---------------------------------------------------------------------------


def test_sphere_fiber_is_a_vertex(sphere_s3):
    assert flat_vertex_criterion(sphere_s3, 1) is True
    P = weight_polytope(sphere_s3)
    assert (1, 0) in P.vertices


def test_jordan_2_flat_points_are_not_vertices():
    j2 = jordan_space(2)
    for j in (1, 2, 3):
        assert flat_vertex_criterion(j2, j) is False
    P = weight_polytope(j2)
    assert (1, 0, 0) not in P.vertices
    assert P.contains((1, 0, 0))


def test_vertex_criterion_rejects_non_flat():
    data = HomSpaceData(
        name="selfpair", d=2, dims=(1, 1), b=(F(1), F(1)),
        triples={(1, 1, 2): F(1)},
    )
    with pytest.raises(NotFlatError):
        flat_vertex_criterion(data, 1)


def test_vertex_criterion_agrees_with_geometry():
    for name in ("sphere_s3", "wang_ziller_q"):
        data = load_catalog(name)
        P = weight_polytope(data)
        T = flat_complex(data)
        for (j,) in (f for f in T.maximal_flats if len(f) == 1):
            e = tuple(1 if i == j else 0 for i in range(1, data.d + 1))
            assert flat_vertex_criterion(data, j) == (e in P.vertices)


# ---------------------------------------------------------------------------
# minimal compactification
# ---------------------------------------------------------------------------


def test_sphere_minimal_segment(sphere_s3):
    P = weight_polytope(sphere_s3)
    T = flat_complex(sphere_s3)
    assert P.vertices == ((-1, 2), (1, 0))
    assert T.maximal_flats == ((1,),)
    dm = delta_min(P, T)
    assert dm is not P
    assert dm.vertices == ((-1, 2), (0, 1))


def test_wang_ziller_truncation(wang_ziller_q):
    P = weight_polytope(wang_ziller_q)
    T = flat_complex(wang_ziller_q)
    assert P.vertices == ((0, 0, 1), (0, 2, -1), (2, 0, -1))
    dm = delta_min(P, T)
    assert dm is not P
    assert dm.vertices == ((0, 1, 0), (0, 2, -1), (1, 0, 0), (2, 0, -1))
    assert dm.normalized_volume() == 3


def test_octahedron_to_tetrahedron():
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
           (-1, 0, 0, 2), (0, -1, 0, 2), (0, 0, -1, 2)]
    octa = hull(pts)
    assert len(octa.vertices) == 6 and len(octa.facets) == 8
    T = FlatComplex(4, [(1,), (2,), (3,)])
    dm = delta_min(octa, T)
    assert dm.vertices == ((-1, 0, 0, 2), (0, -1, 0, 2), (0, 0, -1, 2), (0, 0, 0, 1))
    assert dm.normalized_volume() == 1


def test_delta_min_is_a_fixed_point_on_killing_fixtures():
    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a3_a4"):
        data = load_catalog(name)
        P = weight_polytope(data)
        T = flat_complex(data)
        assert delta_min(P, T) == P


def test_all_flat_document_has_no_minimal_polytope():
    """Every summand flat and no triples: the weights are the basis points,
    all inside |T|, so no vertex is kept and no basis point is added."""
    data = parse(json.dumps({"schema": "homspace/v1", "name": "all_flat", "d": 3,
                             "dims": [1, 1, 1], "b": ["1", "1", "1"], "triples": []}))
    with pytest.raises(ValueError, match="no generating points left"):
        delta_min(weight_polytope(data), flat_complex(data))


def test_delta_min_contained_in_input():
    for name in ("sphere_s3", "wang_ziller_q", "jordan_3"):
        data = load_catalog(name)
        P = weight_polytope(data)
        dm = delta_min(P, flat_complex(data))
        assert P.contains_polytope(dm)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_empty_complex_is_admissible():
    S = standard_simplex(3)
    assert reference_admissible(S, FlatComplex(3, []))


def test_sphere_admissibility_flip(sphere_s3):
    P = weight_polytope(sphere_s3)
    T = flat_complex(sphere_s3)
    assert not reference_admissible(P, T)  # the vertex e_1 is a face inside T
    dm = delta_min(P, T)
    assert reference_admissible(dm, T)


def test_jordan_3_is_admissible_despite_flats():
    data = jordan_space(3)
    P = weight_polytope(data)
    T = flat_complex(data)
    assert not T.is_empty()
    assert reference_admissible(P, T)
    assert delta_min(P, T) is P


def _face_inside_t(face, T):
    """Reference definition: a face lies in |T| iff all its vertices sit in
    one flat simplex."""
    for flat in T.maximal_flats:
        if all(
            all(c >= 0 for c in v)
            and sum(v) == 1
            and {i + 1 for i, c in enumerate(v) if c != 0} <= set(flat)
            for v in face.vertices()
        ):
            return True
    return False


def reference_admissible(P, T):
    """Admissibility by its definition: no proper face of P lies in |T|,
    checked over the whole face lattice."""
    return not any(
        _face_inside_t(face, T)
        for faces in P.all_proper_faces().values()
        for face in faces
    )


# jordan_5 and jordan_7: the hull does not finish; the placeholder names a family.
ADMISSIBILITY_CATALOG = [
    name for name in catalog_names()
    if name not in ("jordan_5", "jordan_7", "product_of_irreducibles_<d>")
] + ["product_of_irreducibles_4"]


@pytest.mark.parametrize("name", ADMISSIBILITY_CATALOG)
def test_admissibility_matches_face_lattice_definition_on_catalog(name):
    data = load_catalog(name)
    P = weight_polytope(data)
    T = flat_complex(data)
    dm = delta_min(P, T)
    # analyze reports delta_admissible as `dm is P`, and delta_min_admissible
    # as True without testing it
    assert (dm is P) == reference_admissible(P, T)
    assert reference_admissible(dm, T)


@pytest.mark.parametrize("d", range(2, 7))
def test_admissibility_matches_face_lattice_definition_on_kaehler(d):
    P = kaehler_b2_polytope(d)
    complexes = [
        FlatComplex(d, [range(1, d + 1)]),
        FlatComplex(d, combinations(range(1, d + 1), 2)),
        FlatComplex(d, [(i,) for i in range(1, d + 1)]),
    ]
    for T in complexes:
        dm = delta_min(P, T)
        assert (dm is P) == reference_admissible(P, T)
        assert reference_admissible(dm, T)


def test_point_polytope_inside_t_is_admissible():
    P = hull([(1, 0, 0)])
    T = FlatComplex(3, [(1,)])
    assert P.dim == 0 and T.contains_point(P.vertices[0])
    assert reference_admissible(P, T)


@st.composite
def spectral_documents(draw):
    d = draw(st.integers(2, 4))
    keys = [k for k in combinations_with_replacement(range(1, d + 1), 3) if len(set(k)) > 1]
    pairs = list(combinations_with_replacement(range(1, d + 1), 2))
    modules = st.lists(st.integers(1, d), unique=True)
    doc = {
        "schema": "homspace/v1",
        "name": "drawn",
        "d": d,
        "dims": draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)),
        "b": [str(v) for v in draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))],
        "triples": [
            {"ijk": list(k), "value": str(v)}
            for k, v in zip(
                draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)),
                draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)),
            )
        ],
        "bracket_meets_h": [list(p) for p in draw(st.lists(st.sampled_from(pairs), unique=True))],
        "h_nontrivial": sorted(draw(modules)),
        "central": sorted(draw(modules)),
        "complement": "other",
    }
    return parse(json.dumps(doc))


@settings(max_examples=60, deadline=None)
@given(spectral_documents())
def test_admissibility_matches_face_lattice_definition_on_drawn_data(data):
    try:
        P = weight_polytope(data)
    except DegenerateSpectrumError:
        return
    T = flat_complex(data)
    try:
        dm = delta_min(P, T)
    except ValueError:  # every generator lies in |T|
        return
    # the input comes back unchanged exactly when it is admissible, and the
    # minimal polytope always is
    assert (dm is P) == reference_admissible(P, T)
    assert reference_admissible(dm, T)


def reference_slice_dim(flat, face):
    """Affine dimension of conv{e_i : i in flat} cut by the face, -1 when
    empty, from the vertices of {y >= 0 : rows y = rhs} enumerated as basic
    solutions over every column subset of the equality rank."""
    P = face.polytope
    idx = list(flat)
    rows = []
    rhs = []
    for row, b in P.affine_hull:
        rows.append([F(row[i - 1]) for i in idx])
        rhs.append(F(b))
    for fi in face.facet_indices:
        normal, off = P.facets[fi]
        rows.append([F(normal[i - 1]) for i in idx])
        rhs.append(F(off))
    ineq = []
    for fj in range(len(P.facets)):
        if fj not in face.facet_indices:
            normal, off = P.facets[fj]
            ineq.append(([F(normal[i - 1]) for i in idx], F(off)))
    rows.append([F(1)] * len(idx))
    rhs.append(F(1))
    k = len(idx)
    verts = set()
    for basis in combinations(range(k), rank(rows)):
        try:
            sol = gauss_jordan_solve([[row[c] for c in basis] for row in rows], rhs)
        except DimensionError:
            continue  # dependent columns: no basic solution
        if sol is None or any(v < 0 for v in sol):
            continue
        y = [F(0)] * k
        for c, v in zip(basis, sol):
            y[c] = v
        if any(sum(r[c] * y[c] for c in range(k)) != b for r, b in zip(rows, rhs)):
            continue
        if any(sum(r[c] * y[c] for c in range(k)) < b for r, b in ineq):
            continue
        verts.add(tuple(y))
    verts = sorted(verts)
    if not verts:
        return -1
    return rank([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]) if len(verts) > 1 else 0


@given(spectral_documents())
def test_curvature_support_lies_in_the_weights(data):
    # every exponent of s is a weight point, so its support lies in the
    # weight polytope and `analyze` tests only that it holds the vertices
    assert set(scalar_curvature(data).terms) <= set(weight_points(data))


def test_t_dimension_report_flags_the_bad_vertex(wang_ziller_q):
    # per proper face F, dim(|T| cap F); a compactification is admissible in
    # the strong sense when every such slice is smaller than F
    P = weight_polytope(wang_ziller_q)
    T = flat_complex(wang_ziller_q)

    def bad_faces(Q):
        bad = []
        for faces in Q.all_proper_faces().values():
            for face in faces:
                s = max(reference_slice_dim(flat, face) for flat in T.maximal_flats)
                if s >= face.dim:
                    bad.append((face, s))
        return bad

    [(face, slice_dim)] = bad_faces(P)
    assert face.dim == 0 and slice_dim == 0
    assert face.vertices() == [(0, 0, 1)]
    assert bad_faces(delta_min(P, T)) == []


# ---------------------------------------------------------------------------
# b2 exponent
# ---------------------------------------------------------------------------


def test_b2_exponent_values():
    assert b2_exponent(kaehler_b2_polytope(4)) == 1
    assert b2_exponent(standard_simplex(3)) == 0
    j3 = weight_polytope(jordan_space(3))
    assert b2_exponent(j3) == 0


def test_b2_exponent_errors():
    seg = hull([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(B2NotApplicableError):
        b2_exponent(seg)
    tri = hull([(3, 0), (0, 3), (3, 3)])
    with pytest.raises(B2NotApplicableError):
        b2_exponent(tri)
