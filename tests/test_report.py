"""report/v1: golden bytes for the catalog entries, and the number of
times one analysis runs each expensive stage.

Each golden digest is the SHA-256 of `render_report(report)` for
`analyze(load_catalog(name), solve=...)`, paired with the exit code
`analyze` returns.  They were regenerated when the `theta` key left the
report, from the previous reports with that key deleted and nothing else
changed; a change that alters any report byte or exit code on purpose
must say so and regenerate them.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einpoly import curvature, exact, polytope, solver
from einpoly.homspace import kaehler_b2_polytope, load_catalog
from einpoly.faces import marked_census
from einpoly.polytope import Face, LatticePolytope
from einpoly.report import analyze, render_report
from test_homspace import _permute_data
from test_infinity import spectral_documents, weight_shape_documents

GOLDEN = {
    "su3_t2": (
        ("fe13bc7708c25da7ec4d44b8aa75e87b67b4be11aec8305b10d61114550aa07a", 0),
        ("a204d641ca7723731c0f51d10c96161b34472f494b5aa0056047e18e8b7fcbb6", 0),
    ),
    "sphere_s3": (
        ("660601f3999132d3f0aa3e62b7f3976bd1612a4e54b54d73206becbec3fd798d", 0),
        ("d449aa8014aaf94c0f348f7dc7e4ab546a3bc4675da18c68e67439b8755872c8", 0),
    ),
    "wang_ziller_killing": (
        ("f6ed22996a6b503069b67668c1169bbb3b583fbd43e8d44060fdfbe4d3faf246", 0),
        ("0daac1e7a8d52bd8067bb5277a661cd530f90a6adaa451e80a6917ec46ba4e9b", 0),
    ),
    "wang_ziller_q": (
        ("cfd4eb4b3144976ccf98491a424f5a69a8fc71cd187b342e6c90cbf3907d6f76", 0),
        ("4dfe55dc8f3bcf1cbef3119e306aae8de99d1bb4c6b04191374a856c6f499fc5", 0),
    ),
    "e8_t1_a3_a4": (
        ("a81005c83a07a1cc5e24d757982c9390b084685e4a8b3c0a4536c922b2a8a341", 3),
        ("2684bccd9bc2b4d02e152b0900201276e220756811399a90c60b94c322578b40", 0),
    ),
    "e8_t1_a4_a2_a1": (
        ("7d1f60d6b6df8982f5719c786d99ca09935d9e86bb9b3ba81cf1b73c06fe6ec0", 3),
        ("d66127b675151843c61dcc9a17e0c785c19a68e28e68b5f914dcd9f22cdd6414", 0),
    ),
    "jordan_2": (
        ("6b725e49771ac968037d6d27c93a8c6bf3bc994a859dbae89dca90ad2b6633d8", 0),
        ("48661ab10187e879d7d3edf7902852f1455ff058e4dc8991b4f71f2fc5c45d98", 0),
    ),
    "jordan_3": (
        ("19928a77eb538e0838a8580cddd99baefc64cbfbe497cc550aca8626b6d2c721", 3),
        ("8c5faed473db10f989fa8ed4650156b7a3117cb08a55ea825a3ca579a4255d37", 0),
    ),
    "jordan_product_2_2": (
        ("6d5768b20fc96c898ef791a03556c81655763d90e9ca20c7142b037c3aab81eb", 3),
        ("5902385a7cc6abd168fda0bfe6360e075f7533fd395452b2b5f7fb6deacc16f3", 0),
    ),
    "jordan_product_2_3": (
        ("15d1f62ad4bc624c82897a1889a94151b0a2ecd08121b2d153813354b10baf95", 3),
        ("32c2b4be84cab970a25198a9cdd26cfea6419513492ce7a36af1efa1292d7cc6", 0),
    ),
    "jordan_product_3_3": (
        ("694f17673f27c4aac87040c2630726894fea958f49945489d625252c2ed4e461", 3),
        ("969cfdee47e4b4ad7d9e75638f8255b25d804c6289fb62565926e71aee835151", 0),
    ),
    "product_of_irreducibles_4": (
        ("1d7c339763b86a71dd76b5a4360d2fb06a1c769fb4e50bfa9e0222c59eab5793", 3),
        ("9e35341fc7918a2c02f82d82594ae38a8a646bb331d1fba72f1d2c54bbdb422c", 0),
    ),
}


@pytest.mark.parametrize("solve", [True, False], ids=["solve", "no_solve"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden(name, solve):
    report, code = analyze(load_catalog(name), solve=solve)
    digest = hashlib.sha256(render_report(report).encode()).hexdigest()
    assert (digest, code) == GOLDEN[name][0 if solve else 1]


# ---------------------------------------------------------------------------
# each stage computed once
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, func, calls):
    """Replace `func` by a recording wrapper in every einpoly module that
    imported it by name."""
    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "einpoly" or name.startswith("einpoly."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)


def test_analyze_computes_each_stage_once(monkeypatch, wang_ziller_q):
    """wang_ziller_q has d = 3 and a non-empty flat complex, so every stage
    runs: the hulls of delta and delta_min (the Newton polytope facts are
    read off the support, with no hull), one scalar curvature polynomial,
    one Einstein system, built in integers from it, the two eliminant
    resultants of the solver, one volume, and the face lattice of
    delta_min only."""
    assert wang_ziller_q.d == 3
    hulls, scalars, systems, resultants, volumes, lattices = [], [], [], [], [], []
    _count_calls(monkeypatch, polytope.hull, hulls)
    _count_calls(monkeypatch, curvature.scalar_curvature, scalars)
    _count_calls(monkeypatch, solver._integer_system, systems)
    _count_calls(monkeypatch, exact.resultant, resultants)
    volume = LatticePolytope.normalized_volume
    face_lattice = LatticePolytope._face_lattice

    def counted_volume(self):
        volumes.append(self)
        return volume(self)

    def counted_face_lattice(self):
        if self._faces_by_dim is None:
            lattices.append(self)
        return face_lattice(self)

    monkeypatch.setattr(LatticePolytope, "normalized_volume", counted_volume)
    monkeypatch.setattr(LatticePolytope, "_face_lattice", counted_face_lattice)

    report, code = analyze(wang_ziller_q)

    assert code == 0 and report["T"]["maximal_flats"]
    assert len(hulls) == 2
    assert len(scalars) == 1
    assert len(systems) == 1
    assert len(resultants) == 2
    assert len(volumes) == 1
    assert len(lattices) == 1
    assert lattices[0].to_json_obj() == report["delta_min"]


def test_volume_reads_the_face_lattice(monkeypatch):
    """The volume finds no facets of its own: once the face lattice of its
    polytope exists it calls neither `_maximal_cuts` nor `exact.det`, and in
    `analyze` every cut is made by the one face lattice it builds.  The
    analysis runs on jordan_product_2_3, a 6-dimensional minimal polytope:
    a polygon's lattice makes no cuts, since its facets are read off the
    incidence."""
    cuts, dets = [], []
    _count_calls(monkeypatch, polytope._maximal_cuts, cuts)
    _count_calls(monkeypatch, exact.det, dets)
    P = kaehler_b2_polytope(5)
    P.all_proper_faces()
    assert cuts
    del cuts[:]
    assert P.normalized_volume() == 82
    assert cuts == [] and dets == []

    face_lattice = LatticePolytope._face_lattice
    builds = []

    def counted_face_lattice(self):
        if self._faces_by_dim is not None:
            return face_lattice(self)
        before = len(cuts)
        lattice = face_lattice(self)
        builds.append(len(cuts) - before)
        return lattice

    monkeypatch.setattr(LatticePolytope, "_face_lattice", counted_face_lattice)
    assert analyze(load_catalog("jordan_product_2_3"), solve=False)[1] == 0
    assert len(builds) == 1
    assert builds[0] == len(cuts) > 0


def test_only_marked_faces_get_a_signature(monkeypatch):
    """The census computes no normal signature; the report computes one per
    marked face, the only faces it names."""
    calls = []
    signature = Face.normal_signature

    def counted_signature(self):
        calls.append(self)
        return signature(self)

    monkeypatch.setattr(Face, "normal_signature", counted_signature)
    census = marked_census(kaehler_b2_polytope(6))
    assert census.marked_total() == 40
    assert calls == []

    report, _ = analyze(load_catalog("e8_t1_a3_a4"))
    marked = report["census"]["marked_faces"]
    assert len(marked) == len(calls) == 13
    assert [e["vertices"] for e in marked] == [[list(v) for v in f.vertices()] for f in calls]


# ---------------------------------------------------------------------------
# relabeling the summands permutes the report
# ---------------------------------------------------------------------------


def _relabeled_outcome(data, move=tuple):
    """What a relabeling of the summands only permutes, with `move` applied
    to each coordinate vector: the error a failing analysis raises, or the
    report's order-free parts and the exit code.  The genericity flag and
    the warnings are left out, since they depend on the variable order."""
    try:
        report, code = analyze(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    census = report["census"]
    sol = report["solver"]
    return {
        "nu": report["nu"],
        "delta_admissible": report["delta_admissible"],
        "b2_exponent": report["b2_exponent"],
        "newton": report["newton"],
        "delta_min": sorted(move(v) for v in report["delta_min"]["vertices"]),
        "census": (census["applicable"], census["by_dim"], census["marked_total"]),
        "marked": sorted((f["dim"], move(f["signature"])) for f in census["marked_faces"]),
        "singularity": sorted((e["dim"], move(e["signature"]), e["verdict"])
                              for e in report["singularity"]),
        "solver": sol and (sol["distinct_complex"], sol["real_count"], sol["positive_count"]),
        "exit": code,
    }


def _check_relabeling(data, perm):
    """analyze(perm . data) is perm applied to analyze(data); perm is the
    1-based image of each summand, as `_permute_data` takes it."""
    def move(v):
        return tuple(v[perm.index(i + 1)] for i in range(len(v)))

    assert _relabeled_outcome(_permute_data(data, perm)) == _relabeled_outcome(data, move)


@settings(max_examples=150, deadline=None)
@given(st.one_of(spectral_documents(), weight_shape_documents()).flatmap(
    lambda data: st.tuples(st.just(data), st.permutations(range(1, data.d + 1)))))
def test_relabeling_permutes_the_report_on_drawn_data(data_perm):
    _check_relabeling(*data_perm)


@pytest.mark.parametrize("name", [
    "su3_t2", "sphere_s3", "wang_ziller_killing", "wang_ziller_q", "e8_t1_a3_a4",
    "e8_t1_a4_a2_a1", "jordan_2", "jordan_3", "jordan_product_2_2", "product_of_irreducibles_4",
])
def test_relabeling_permutes_the_report_on_the_catalog(name):
    data = load_catalog(name)
    rng = random.Random(name)
    for _ in range(2):
        perm = list(range(1, data.d + 1))
        rng.shuffle(perm)
        _check_relabeling(data, perm)


# ---------------------------------------------------------------------------
# the writer against json.dumps(obj, indent=2)
# ---------------------------------------------------------------------------

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u00e9\u2028\U0001f600'),
                          st.characters()))
# ints past Python's default 4300-digit limit, of either sign
_INTS = st.one_of(st.integers(), st.builds(lambda n, sign: sign * (10 ** n - 1),
                                           st.integers(4301, 4400), st.sampled_from([1, -1])))
_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, st.floats(), _TEXT,
              st.lists(st.one_of(_INTS, st.booleans(), st.floats()))),
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(_TEXT, kids)),
    max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(obj):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert render_report(obj) == json.dumps(obj, indent=2)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), {1, 2}, {1: "a"}, [1, Fraction(1, 2)], {"a": [Fraction(1, 2)]},
], ids=repr)
def test_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        render_report(obj)
