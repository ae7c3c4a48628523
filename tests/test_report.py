"""report/v1: golden bytes for the catalog entries, and the number of
times one analysis runs each expensive stage.

Each golden digest is the SHA-256 of `render_report(report)` for
`analyze(load_catalog(name), solve=...)`, paired with the exit code
`analyze` returns.  The digests were generated at commit fd79cc8, before
`analyze` was reduced to a single pass; a change that alters any report
byte or exit code on purpose must say so and regenerate them.
"""

import hashlib
import sys

import pytest

from einpoly import curvature, exact, polytope
from einpoly.homspace import kaehler_b2_polytope, load_catalog
from einpoly.polytope import LatticePolytope
from einpoly.report import analyze, render_report

GOLDEN = {
    "su3_t2": (
        ("cfc4829dc796b3475781b307ffa443f5d29fa845cf840c802d18bf05058b15d0", 0),
        ("329f25acbd10479537166823f8b39cab56012cde88b65f5958a8ae0fd14e9972", 0),
    ),
    "sphere_s3": (
        ("bb748c21d16aa60f13fc2e64f32c6ed53eb85e9c9547d10810fb7d0992152387", 0),
        ("33f8c7b0305ea583d6506c487dc707d94faca901b8a89e2e6ac2ab79775a46e5", 0),
    ),
    "wang_ziller_killing": (
        ("af9098b094d18af740578fad615b1acf4a5c59d64db088b669c1a3b5a7a219e8", 0),
        ("05a7daa1c9684be6f9fd43032d46ddf7a2200e4ce4626751a6ce0f90e5491b91", 0),
    ),
    "wang_ziller_q": (
        ("23214d31e0f2c267e86f5a6915c6c8e0fa16523b4320ea5f46db1bad98d78420", 0),
        ("f81e9bd7c4b227edce477495938b2c68b50c06ea86befbbcfde934cac3784ac2", 0),
    ),
    "e8_t1_a3_a4": (
        ("1d7c7911e813e1be1c29ed95063e15f5e476431c02702fe14a89eb1952b7834d", 3),
        ("9daac09782ef53c377fa2ccd9d8edd7f77579f034e6e43f8d6c0c698a4763d50", 0),
    ),
    "e8_t1_a4_a2_a1": (
        ("a0e9bfe1a09097e8762354059c4c2a4f34ab5d7127cb8282eef44b97eba3c943", 3),
        ("16541129ad2ac16854c307395c8dbecdd13e63199aabcbde1cbfde29b201ad3f", 0),
    ),
    "jordan_2": (
        ("d18451631ce5f3aa860e0c63de5a65815a45b3023a03aee323ed1df427812b7a", 0),
        ("c1302c04a8395005221056f2e86775e2c10dfe9df5319d42d1571ec347f6d362", 0),
    ),
    "jordan_3": (
        ("967c73b85bfea264406e6f68bd58c3806ab52671dbe3405e859be00bce735a23", 3),
        ("424f863399bab5af212b67f9f7bac16be191d666ad468554c81057c3a39b45d4", 0),
    ),
    "jordan_product_2_2": (
        ("2fdb3293c37e5960cbd4a175a7d4e3f32a7636cc00f128cc8ab00eb2d94d99bd", 3),
        ("4c1577f426fe2d9a6f257ccc23e2aefe4afca57957b767c852f4b958e48f03a2", 0),
    ),
    "jordan_product_2_3": (
        ("4d127eddfccb4f624bf669aede4a72b3a9ac77b37a785acac26ddda85eeb1400", 3),
        ("40d419907104a8de0bbe5fb10a43a43247ed988b098d277ee7d7dda976cc2128", 0),
    ),
    "jordan_product_3_3": (
        ("a21b3305c73aba78dab2d0377332b4df2cebd684741cac6be19f20098a05ef2b", 3),
        ("cee631814948a3aaab23b310978fad7091544bd42f72919d2c5911974d337e7f", 0),
    ),
    "product_of_irreducibles_4": (
        ("7126a84d1c72d7949694024b6aefea03c9dec948f433777f042eac2f8285b645", 3),
        ("2f098fc373d4e347edceb1408672fcb7aa67f42252b1adbb2370c88116a9d77a", 0),
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
    one Einstein system, the two eliminant resultants of the solver, one
    volume, and the face lattice of delta_min only."""
    assert wang_ziller_q.d == 3
    hulls, scalars, systems, resultants, volumes, lattices = [], [], [], [], [], []
    _count_calls(monkeypatch, polytope.hull, hulls)
    _count_calls(monkeypatch, curvature.scalar_curvature, scalars)
    _count_calls(monkeypatch, curvature.einstein_system, systems)
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


def test_volume_reads_the_face_lattice(monkeypatch, wang_ziller_q):
    """The volume finds no facets of its own: once the face lattice of its
    polytope exists it calls neither `_maximal_cuts` nor `exact.det`, and in
    `analyze` every cut is made by the one face lattice it builds."""
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
    assert analyze(wang_ziller_q)[1] == 0
    assert len(builds) == 1
    assert builds[0] == len(cuts) > 0
