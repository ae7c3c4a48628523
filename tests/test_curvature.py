"""Curvature polynomials: scalar curvature, Ricci, Einstein system, moment
map, Newton polytopes, restrictions, substitutions."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einpoly.curvature import (
    LaurentPoly,
    moment,
    monomial_substitute,
    newton_polytope,
    restrict_to_face,
    ricci_components,
    scalar_curvature,
)
from einpoly.homspace import (
    HomSpaceData,
    load_catalog,
    product_of_irreducibles,
    weight_points,
    weight_polytope,
)
from einpoly.exact import common_denominator
from einpoly.infinity import delta_min, flat_complex
from einpoly.solver import DegenerateSystemError, _integer_system
from qpoly import dehomogenize, reference_einstein_system
from test_infinity import ADMISSIBILITY_CATALOG, spectral_documents

ALL_FIXTURES = (
    "su3_t2",
    "sphere_s3",
    "wang_ziller_killing",
    "wang_ziller_q",
    "e8_t1_a3_a4",
    "e8_t1_a4_a2_a1",
)


def unit(d, i):
    return tuple(1 if j == i else 0 for j in range(1, d + 1))


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------


def test_product_case_is_pure_b_terms():
    data = product_of_irreducibles(3)
    s = scalar_curvature(data)
    assert s.terms == {unit(3, i): F(data.dims[i - 1]) * data.b[i - 1] / 2 for i in (1, 2, 3)}


def test_d5_fixture_coefficients(e8_d5):
    s = scalar_curvature(e8_d5)
    # monomial x_1/(x_4 x_5) carries -[1,4,5]/2
    assert s.terms[(-1, 0, 0, 1, 1)] == F(-2, 3)
    # monomial x_2/x_1^2 carries -[1,1,2]/4
    assert s.terms[(2, -1, 0, 0, 0)] == F(-3)


def test_double_triple_splits_between_two_weights():
    data = HomSpaceData(
        name="pair", d=2, dims=(3, 5), b=(F(2), F(7, 3)),
        triples={(1, 1, 2): F(4)},
    )
    s = scalar_curvature(data)
    # e_2 receives the two mixed orderings plus the b-term
    assert s.terms[(0, 1)] == F(3) * F(2) / 2 * 0 + F(5) * F(7, 3) / 2 - F(4) / 2
    # 2e_1 - e_2 receives the (1,1,2) ordering only
    assert s.terms[(2, -1)] == -F(4) / 4
    assert s.terms[(1, 0)] == F(3) * F(2) / 2


def test_homogeneity_of_supports():
    for name in ALL_FIXTURES:
        data = load_catalog(name)
        s = scalar_curvature(data)
        assert all(sum(e) == 1 for e in s.terms)
        for f in reference_einstein_system(data):
            assert all(sum(e) == 1 for e in f.terms)


def test_euler_basics():
    p = LaurentPoly(3, {(1, 0, 0): F(1)})  # 1/x_1
    assert p.euler(0).terms == {(1, 0, 0): F(-1)}
    q = LaurentPoly(3, {(1, 1, -1): F(1)})  # x_3/(x_1 x_2)
    assert q.euler(2).terms == {(1, 1, -1): F(1)}


def test_euler_identity_degree_minus_one():
    for name in ALL_FIXTURES:
        data = load_catalog(name)
        s = scalar_curvature(data)
        total = LaurentPoly(data.d)
        for i in range(data.d):
            total = total + s.euler(i)
        assert total == -s


# ---------------------------------------------------------------------------
# Ricci components
# ---------------------------------------------------------------------------


def test_product_case_ricci():
    data = product_of_irreducibles(3)
    x = [F(3, 2), F(5), F(7, 4)]
    r = ricci_components(data, x)
    assert r == [data.b[i] / (2 * x[i]) for i in range(3)]


def test_gradient_identity_exact_random_points():
    rng = random.Random(100)
    for name in ALL_FIXTURES:
        data = load_catalog(name)
        s = scalar_curvature(data)
        for _ in range(25):
            x = [F(rng.randint(1, 12), rng.randint(1, 7)) for _ in range(data.d)]
            r = ricci_components(data, x)
            for i in range(data.d):
                assert r[i] + s.euler(i).eval(x) / data.dims[i] == 0


def test_trace_identity():
    rng = random.Random(55)
    for name in ALL_FIXTURES:
        data = load_catalog(name)
        s = scalar_curvature(data)
        for _ in range(10):
            x = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(data.d)]
            r = ricci_components(data, x)
            assert sum(data.dims[i] * r[i] for i in range(data.d)) == s.eval(x)


@settings(max_examples=400, deadline=None)
@given(spectral_documents(), st.data())
def test_weight_rule_matches_the_ricci_pair_sums_on_drawn_data(data, draw):
    # two routes to the weight rule on data with central modules: every
    # exponent of s is a weight point (so `analyze` need only test that the
    # support holds the vertices), and the gradient of s gives the
    # central-aware pair sums of `ricci_components`
    s = scalar_curvature(data)
    assert set(s.terms) <= set(weight_points(data))
    x = [F(draw.draw(st.integers(1, 12)), draw.draw(st.integers(1, 7))) for _ in range(data.d)]
    r = ricci_components(data, x)
    for i in range(data.d):
        assert r[i] + s.euler(i).eval(x) / data.dims[i] == 0


def test_kaehler_einstein_points_of_flag_fixtures():
    for name, value in (("e8_t1_a3_a4", F(11, 60)), ("e8_t1_a4_a2_a1", F(3, 20))):
        data = load_catalog(name)
        r = ricci_components(data, list(range(1, data.d + 1)))
        assert set(r) == {value}


# ---------------------------------------------------------------------------
# Einstein system
# ---------------------------------------------------------------------------


def test_product_case_system():
    data = product_of_irreducibles(2)
    (f,) = reference_einstein_system(data)
    b1, b2 = data.b
    assert f.terms == {(1, 0): -b1 / 2, (0, 1): b2 / 2}


def scaled(f, factor):
    """The Laurent polynomial f times a rational factor."""
    return LaurentPoly(f.num_vars, {e: c * factor for e, c in f.terms.items()})


def check_einstein_system(data):
    """The solver's integer system is the definition, dehomogenized, times
    lcm(dims) and the common denominator of the coefficients of s; with a
    zero equation it raises."""
    s = scalar_curvature(data)
    factor = lcm(*data.dims) * common_denominator(s.terms.values())[1]
    expected = [{e: c * factor for e, c in f.items()}
                for f in dehomogenize(reference_einstein_system(data))]
    if not all(expected):
        with pytest.raises(DegenerateSystemError):
            _integer_system(data, s)
        return
    assert _integer_system(data, s) == expected


@pytest.mark.parametrize("name", ADMISSIBILITY_CATALOG)
def test_einstein_system_matches_definition_on_catalog(name):
    check_einstein_system(load_catalog(name))


@settings(max_examples=60, deadline=None)
@given(spectral_documents())
def test_einstein_system_matches_definition_on_drawn_data(data):
    check_einstein_system(data)


def test_symmetric_fixture_vanishes_at_ones(su3_t2):
    for f in _integer_system(su3_t2, scalar_curvature(su3_t2)):
        assert sum(f.values()) == 0


def test_generic_combination_has_full_newton_polytope(e8_d5):
    rng = random.Random(4)
    system = reference_einstein_system(e8_d5)
    combo = LaurentPoly(e8_d5.d)
    for f in system:
        combo = combo + scaled(f, F(rng.randint(1, 50), rng.randint(1, 7)))
    dmin = delta_min(weight_polytope(e8_d5), flat_complex(e8_d5))
    assert newton_polytope(combo) == dmin
    assert newton_polytope(scalar_curvature(e8_d5)) == dmin


# ---------------------------------------------------------------------------
# moment map
# ---------------------------------------------------------------------------


def test_moment_product_case_barycenter():
    data = product_of_irreducibles(3)
    # equal b_i/x_i: the image is the dimension-weighted barycenter
    c = moment(data, [1, 1, 1])
    n = sum(data.dims)
    assert c == [F(m, n) for m in data.dims]
    assert sum(c) == 1


def test_moment_interior_many_points():
    rng = random.Random(71)
    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a3_a4"):
        data = load_catalog(name)
        P = weight_polytope(data)
        for theta in (F(-1, 2), F(0), F(1, 2)):
            for _ in range(8):
                x = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(data.d)]
                c = moment(data, x, theta)
                assert sum(c) == 1
                assert P.contains(c)
                for normal, off in P.facets:
                    assert sum(F(n) * v for n, v in zip(normal, c)) > off


def test_moment_thetas_differ_pointwise(su3_t2):
    x = [F(1), F(2), F(3)]
    assert moment(su3_t2, x, F(0)) != moment(su3_t2, x, F(1, 2))


def test_moment_rejects_large_theta(su3_t2):
    with pytest.raises(ValueError):
        moment(su3_t2, [1, 1, 1], F(3, 2))


# ---------------------------------------------------------------------------
# Newton polytope / restriction / substitution
# ---------------------------------------------------------------------------


def test_newton_polytope_monomial_and_fixture(su3_t2, wang_ziller_killing):
    mono = LaurentPoly(3, {(1, 1, -1): F(5)})
    P = newton_polytope(mono)
    assert P.vertices == ((1, 1, -1),) and P.dim == 0
    assert newton_polytope(scalar_curvature(su3_t2)) == weight_polytope(su3_t2)
    assert newton_polytope(scalar_curvature(wang_ziller_killing)) == weight_polytope(
        wang_ziller_killing
    )


def test_newton_polytope_of_zero_rejected():
    with pytest.raises(ValueError):
        newton_polytope(LaurentPoly(2))


def test_curvature_support_independent_of_complement_choice(
    wang_ziller_killing, wang_ziller_q
):
    # the scalar curvature is a function of the metric alone, so its support
    # (the minimal polytope) does not depend on the reductive complement:
    # in the ad-invariant variant the basis-point coefficient cancels exactly
    s_killing = scalar_curvature(wang_ziller_killing)
    s_q = scalar_curvature(wang_ziller_q)
    assert newton_polytope(s_killing) == newton_polytope(s_q)
    delta_max = weight_polytope(wang_ziller_q)
    dmin = delta_min(delta_max, flat_complex(wang_ziller_q))
    assert newton_polytope(s_q) == dmin != delta_max
    assert (0, 0, 1) not in s_q.terms  # m3 b3 / 2 = ([113] + [223]) / 2


def test_restrict_to_whole_polytope_is_identity(su3_t2):
    s = scalar_curvature(su3_t2)
    P = newton_polytope(s)
    assert restrict_to_face(s, P.whole_face()) == s


def test_restrict_to_vertex_is_single_monomial(su3_t2):
    s = scalar_curvature(su3_t2)
    P = newton_polytope(s)
    v = P.faces(0)[0]
    restricted = restrict_to_face(s, v)
    assert len(restricted.terms) == 1


def test_restrict_to_parallelogram_face(e8_d5):
    s = scalar_curvature(e8_d5)
    P = delta_min(weight_polytope(e8_d5), flat_complex(e8_d5))
    target = None
    for face in P.faces(2):
        if face.normal_signature() == (2, 4, 3, 1, 1):
            target = face
    restricted = restrict_to_face(s, target)
    assert dict(restricted.terms) == {
        (-1, 0, 0, 1, 1): F(-2, 3),
        (1, 0, -1, 1, 0): F(-2),
        (2, -1, 0, 0, 0): F(-3),
        (0, -1, 1, 0, 1): F(-1),
    }


def test_restriction_is_leading_part_along_supporting_direction(e8_d5):
    # scaling toward a face keeps exactly the restricted terms in the limit
    s = scalar_curvature(e8_d5)
    P = delta_min(weight_polytope(e8_d5), flat_complex(e8_d5))
    face = next(f for f in P.faces(2) if f.normal_signature() == (2, 4, 3, 1, 1))
    w = (2, 4, 3, 1, 1)
    vals = {sum(wi * ei for wi, ei in zip(w, e)) for e in s.terms}
    assert min(vals) == 0
    low = {e for e in s.terms if sum(wi * ei for wi, ei in zip(w, e)) == 0}
    assert low == set(restrict_to_face(s, face).terms)


def test_monomial_substitute_identity(su3_t2):
    s = scalar_curvature(su3_t2)
    ident = [(F(1), tuple(1 if j == i else 0 for j in range(3))) for i in range(3)]
    assert monomial_substitute(s, ident, 3) == s


def test_monomial_substitute_rejects_zero_scalar():
    p = LaurentPoly(1, {(1,): F(1)})
    with pytest.raises(ValueError):
        monomial_substitute(p, [(F(0), (1,))], 1)


def test_laurent_eval_zero_coordinate_rules():
    p = LaurentPoly(2, {(-1, 0): F(1)})  # x_1
    assert p.eval([0, 5]) == 0
    q = LaurentPoly(2, {(1, 0): F(1)})  # 1/x_1
    with pytest.raises(ZeroDivisionError):
        q.eval([0, 1])


def test_ell_theta_positive_on_sampled_points():
    # the normalization l_theta stays positive for |theta| < 1; the moment
    # map guards against nonpositive values but valid data cannot reach it
    rng = random.Random(12)
    data = HomSpaceData(
        name="stress", d=2, dims=(1, 1), b=(F(1), F(1)),
        triples={(1, 2, 2): F(500)},
    )
    for _ in range(50):
        x = [F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2)]
        for theta in (F(-9, 10), F(0), F(9, 10)):
            c = moment(data, x, theta)
            assert sum(c) == 1
