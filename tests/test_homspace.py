"""Data model, schema validation, generators, and weight polytopes."""

import json
import random
from fractions import Fraction as F

import pytest

from einpoly.exact import lattice_index
from einpoly.homspace import (
    DegenerateSpectrumError,
    HomSpaceData,
    SchemaError,
    catalog_names,
    jordan_product,
    jordan_space,
    kaehler_b2_polytope,
    load_catalog,
    parse,
    product_of_irreducibles,
    weight_points,
    weight_polytope,
)
from einpoly.polytope import standard_simplex

MINIMAL = {
    "schema": "homspace/v1",
    "name": "minimal",
    "d": 2,
    "dims": [1, 1],
    "b": ["1", "1"],
    "triples": [],
}


def test_parse_minimal_document():
    data = parse(json.dumps(MINIMAL))
    assert data.d == 2 and data.triples == {}


def test_parse_rejects_out_of_range_triple_index():
    doc = dict(MINIMAL, triples=[{"ijk": [0, 1, 2], "value": "1"}])
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert "/triples/0/ijk" in str(exc.value)


def test_parse_rejects_unknown_field():
    doc = dict(MINIMAL, smoothness="very")
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert "/smoothness" in str(exc.value)


def test_parse_rejects_an_integer_past_the_digit_limit():
    # json.loads raises a plain ValueError, not JSONDecodeError, on an
    # integer literal of more than 4300 digits
    doc = json.dumps(MINIMAL).replace('"d": 2', '"d": ' + "9" * 4301)
    with pytest.raises(SchemaError) as exc:
        parse(doc)
    assert str(exc.value).startswith("/: ")


def test_parse_rejects_nesting_past_the_recursion_limit():
    # json.loads raises RecursionError, no ValueError, on deep nesting
    with pytest.raises(SchemaError) as exc:
        parse("[" * 100000 + "]" * 100000)
    assert str(exc.value).startswith("/: invalid JSON: ")


def test_parse_rejects_nonpositive_dims():
    doc = dict(MINIMAL, dims=[0, 1])
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert "/dims/0" in str(exc.value)


def test_parse_rejects_negative_constants():
    doc = dict(MINIMAL, b=["-1", "1"])
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert "/b/0" in str(exc.value)


# a boolean in each place an integer or a rational is read, and the JSON
# pointer it is rejected at
_BOOLEANS = [
    (dict(MINIMAL, d=True), "/d"),
    (dict(MINIMAL, dims=[True, 1]), "/dims/0"),
    (dict(MINIMAL, b=["1", True]), "/b/1"),
    (dict(MINIMAL, triples=[{"ijk": [True, 2, 2], "value": "1"}]), "/triples/0/ijk"),
    (dict(MINIMAL, triples=[{"ijk": [1, 2, 2], "value": True}]), "/triples/0/value"),
    (dict(MINIMAL, bracket_meets_h=[[True, 2]]), "/bracket_meets_h/0"),
    (dict(MINIMAL, h_nontrivial=[True]), "/h_nontrivial"),
    (dict(MINIMAL, central=[False]), "/central"),
]


@pytest.mark.parametrize("doc, path", _BOOLEANS, ids=[path for _doc, path in _BOOLEANS])
def test_parse_rejects_booleans_as_numbers(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path


def test_parse_rejects_dims_that_are_not_a_list():
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(dict(MINIMAL, dims=2)))
    assert exc.value.path == "/dims"


# a string or an object where a list is read: iterating it would read its
# characters or keys as entries
_NOT_LISTS = [
    (dict(MINIMAL, b="11"), "/b"),
    (dict(MINIMAL, b={"1": 1, "2": 2}), "/b"),
    (dict(MINIMAL, bracket_meets_h={}), "/bracket_meets_h"),
    (dict(MINIMAL, h_nontrivial="1"), "/h_nontrivial"),
]


@pytest.mark.parametrize("doc, path", _NOT_LISTS,
                         ids=[f"{path}={doc[path[1:]]!r}" for doc, path in _NOT_LISTS])
def test_parse_rejects_fields_that_are_not_lists(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path


def test_parse_rejects_decimal_rationals():
    doc = dict(MINIMAL, b=["0.5", "1"])
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


# "1/0" and "0/0" match the rational pattern; the zero denominator must
# still be a schema error at its pointer, not a ZeroDivisionError
_ZERO_DENOMINATORS = [
    (dict(MINIMAL, b=["1/0", "1"]), "/b/0"),
    (dict(MINIMAL, triples=[{"ijk": [1, 2, 2], "value": "0/0"}]), "/triples/0/value"),
]


@pytest.mark.parametrize("doc, path", _ZERO_DENOMINATORS,
                         ids=[path for _doc, path in _ZERO_DENOMINATORS])
def test_parse_rejects_zero_denominators(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path


# each invalid entry at document position 1, after a valid entry that
# sorts after it: the pointer names the entry's place in the document
_LATER_TRIPLE = {"ijk": [2, 2, 1], "value": "1"}
_SECOND_ENTRIES = [
    (dict(MINIMAL, triples=[_LATER_TRIPLE, {"ijk": [1, 1, 1], "value": "1"}]),
     "/triples/1/ijk", "all three indices equal"),
    (dict(MINIMAL, triples=[_LATER_TRIPLE, {"ijk": [1, 1, 2], "value": "0"}]),
     "/triples/1/value", "must be positive"),
    (dict(MINIMAL, triples=[_LATER_TRIPLE, {"ijk": [0, 1, 2], "value": "1"}]),
     "/triples/1/ijk", "index 0 out of range"),
    (dict(MINIMAL, bracket_meets_h=[[2, 2], [1, 7]]), "/bracket_meets_h/1", "index 7 out of range"),
]


@pytest.mark.parametrize("doc, path, message", _SECOND_ENTRIES,
                         ids=[message for _doc, _path, message in _SECOND_ENTRIES])
def test_parse_points_at_the_entry_in_document_order(doc, path, message):
    with pytest.raises(SchemaError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path and message in str(exc.value)


def test_all_indices_equal_triple_rejected():
    doc = dict(MINIMAL, d=2, triples=[{"ijk": [1, 1, 1], "value": "1"}])
    with pytest.raises(SchemaError):
        parse(json.dumps(doc))


def test_catalog_entry_constants(e8_d5):
    expected = {
        (1, 1, 2): F(12),
        (1, 2, 3): F(8),
        (1, 3, 4): F(4),
        (1, 4, 5): F(4, 3),
        (2, 2, 4): F(4),
        (2, 3, 5): F(2),
    }
    assert dict(e8_d5.triples) == expected


def test_catalog_roundtrip():
    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a4_a2_a1", "sphere_s3"):
        data = load_catalog(name)
        again = parse(data.to_json())
        assert again == data


def test_catalog_alias():
    assert load_catalog("wang_ziller").name == "wang_ziller_killing"


@pytest.mark.parametrize("name", ["jordan_x", "product_of_irreducibles_x", "jordan_product_2"])
def test_malformed_generator_name_is_unknown(name):
    with pytest.raises(KeyError, match=f"unknown catalog entry: {name}"):
        load_catalog(name)


def test_product_of_irreducibles_takes_d_up_to_24():
    assert product_of_irreducibles(24).d == 24
    for d in (1, 25, 10**12):
        with pytest.raises(ValueError, match="supported d: 2 <= d <= 24"):
            product_of_irreducibles(d)


def test_b_zero_warning():
    data = HomSpaceData(
        name="odd", d=2, dims=(1, 1), b=(F(0), F(1)), triples={},
    )
    assert data.validation_warnings()


# ---------------------------------------------------------------------------
# weight polytopes
# ---------------------------------------------------------------------------


def test_no_triples_gives_standard_simplex():
    data = product_of_irreducibles(4)
    assert weight_polytope(data) == standard_simplex(4)


def test_single_triple_triangle_with_midpoints(su3_t2):
    P = weight_polytope(su3_t2)
    assert P.vertices == ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        assert P.contains(e)
        assert e not in P.vertices


def test_wang_ziller_killing_trapezoid(wang_ziller_killing):
    P = weight_polytope(wang_ziller_killing)
    assert P.vertices == ((0, 1, 0), (0, 2, -1), (1, 0, 0), (2, 0, -1))


def test_wang_ziller_q_triangle(wang_ziller_q):
    P = weight_polytope(wang_ziller_q)
    assert P.vertices == ((0, 0, 1), (0, 2, -1), (2, 0, -1))


def test_degenerate_spectrum_raises():
    data = HomSpaceData(
        name="degen", d=3, dims=(1, 1, 1), b=(F(1), F(0), F(0)), triples={},
        central=frozenset({2, 3}),
    )
    with pytest.raises(DegenerateSpectrumError):
        weight_polytope(data)


def test_weights_lie_in_sum_one_hyperplane():
    for name in ("su3_t2", "wang_ziller_killing", "wang_ziller_q", "e8_t1_a3_a4"):
        for p in weight_points(load_catalog(name)):
            assert sum(p) == 1


def test_weight_polytope_dimension_is_d_minus_one():
    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a3_a4", "e8_t1_a4_a2_a1"):
        data = load_catalog(name)
        assert weight_polytope(data).dim == data.d - 1


def test_basis_points_with_positive_b_never_outside():
    for name in ("su3_t2", "wang_ziller_killing", "e8_t1_a3_a4"):
        data = load_catalog(name)
        P = weight_polytope(data)
        for i, bi in enumerate(data.b, start=1):
            if bi != 0:
                e = tuple(1 if j == i else 0 for j in range(1, data.d + 1))
                assert P.contains(e)


def _permute_data(data, perm):
    """Relabel module indices by a permutation (1-based mapping list)."""
    return HomSpaceData(
        name=data.name + "_perm",
        d=data.d,
        dims=tuple(data.dims[perm.index(i + 1)] for i in range(data.d)),
        b=tuple(data.b[perm.index(i + 1)] for i in range(data.d)),
        triples={
            tuple(sorted(perm[i - 1] for i in key)): val
            for key, val in data.triples.items()
        },
        bracket_meets_h=frozenset(
            tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in data.bracket_meets_h
        ),
        h_nontrivial=frozenset(perm[i - 1] for i in data.h_nontrivial),
        central=frozenset(perm[i - 1] for i in data.central),
        complement=data.complement,
    )


def test_weight_polytope_equivariant_under_index_permutations():
    rng = random.Random(8)
    data = load_catalog("e8_t1_a3_a4")
    base = weight_polytope(data)
    for _ in range(4):
        perm = list(range(1, data.d + 1))
        rng.shuffle(perm)
        permuted = weight_polytope(_permute_data(data, perm))
        moved = {
            tuple(v[perm.index(i + 1)] for i in range(data.d))
            for v in base.vertices
        }
        assert set(permuted.vertices) == moved


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_kaehler_b2_small_values():
    assert kaehler_b2_polytope(2).normalized_volume() == 2
    P3 = kaehler_b2_polytope(3)
    assert len(P3.facets) == 4
    assert P3.normalized_volume() == 6


def test_kaehler_b2_vertex_lattice_index_two():
    for d in range(2, 7):
        P = kaehler_b2_polytope(d)
        assert lattice_index([list(v) for v in P.vertices]) == 2
        assert P.normalized_volume() % 2 == 0


def test_kaehler_b2_out_of_range():
    with pytest.raises(ValueError):
        kaehler_b2_polytope(9)


def test_jordan_2_matches_triangle_fixture(su3_t2):
    j2 = jordan_space(2)
    assert j2.d == 3
    assert list(j2.triples) == [(1, 2, 3)]
    assert weight_polytope(j2) == weight_polytope(su3_t2)


def test_jordan_3_truncated_tetrahedron():
    j3 = jordan_space(3)
    assert j3.d == 4
    assert len(j3.triples) == 4
    P = weight_polytope(j3)
    assert len(P.vertices) == 12 and len(P.facets) == 8
    assert P.normalized_volume() == 23


def test_jordan_5_shape():
    j5 = jordan_space(5)
    assert j5.d == 12
    assert all(m == 2 for m in j5.dims)
    # trace identity sum over ordered pairs = m_i b_i
    for i in range(1, 13):
        total = F(0)
        for key, val in j5.triples.items():
            if i in key:
                total += 2 * val
        assert total == F(2)


def test_jordan_product_shapes():
    jp = jordan_product(2, 3)
    assert jp.d == 7
    assert len(jp.triples) == 1 + 4
    with pytest.raises(ValueError):
        jordan_product(2, 5)


def test_catalog_names_include_generators():
    names = catalog_names()
    assert "e8_t1_a3_a4" in names and "jordan_5" in names
