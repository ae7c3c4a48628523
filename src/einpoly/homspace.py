"""Spectral data of compact homogeneous spaces with multiplicity-free
isotropy, the JSON schema for it, combinatorial generators, and the weight
polytope construction.

The data model is purely combinatorial: module dimensions m_i, Killing
coefficients b_i (relative to the fixed background metric), a symmetric
table of bracket constants [i,j,k], and structural flags.  Nothing here
derives constants from root systems; catalog entries carry fixed values.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import permutations
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .exact import parse_rat
from .polytope import LatticePolytope, hull

SCHEMA = "homspace/v1"
COMPLEMENTS = ("killing_orthogonal", "q_orthogonal", "other")


class SchemaError(ValueError):
    """Validation failure with a JSON-pointer path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DegenerateSpectrumError(ValueError):
    """Weight polytope has dimension below d-1."""


TripleKey = Tuple[int, int, int]


def is_int(value) -> bool:
    """An int that is not a bool: JSON true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class HomSpaceData:
    """Combinatorial spectral data of a homogeneous space."""

    name: str
    d: int
    dims: Tuple[int, ...]
    b: Tuple[Fraction, ...]
    triples: Mapping[TripleKey, Fraction]
    bracket_meets_h: FrozenSet[Tuple[int, int]] = frozenset()
    h_nontrivial: FrozenSet[int] = frozenset()
    central: FrozenSet[int] = frozenset()
    complement: str = "other"
    expected: Optional[dict] = None

    def __post_init__(self):
        _validate(self)

    def validation_warnings(self) -> list:
        """Non-fatal oddities (e.g. b_i = 0 on a non-central module)."""
        warnings = []
        for i, bi in enumerate(self.b, start=1):
            if bi == 0 and i not in self.central:
                warnings.append(
                    f"b_{i} = 0 on a module not flagged central; the Killing "
                    f"form degenerates on m_{i}"
                )
        return warnings

    def triple_items(self):
        return sorted(self.triples.items())

    def to_json_obj(self) -> dict:
        obj = {
            "schema": SCHEMA,
            "name": self.name,
            "d": self.d,
            "dims": list(self.dims),
            "b": [str(x) for x in self.b],
            "triples": [
                {"ijk": list(key), "value": str(val)}
                for key, val in self.triple_items()
            ],
            "bracket_meets_h": [list(p) for p in sorted(self.bracket_meets_h)],
            "h_nontrivial": sorted(self.h_nontrivial),
            "central": sorted(self.central),
            "complement": self.complement,
        }
        if self.expected is not None:
            obj["expected"] = self.expected
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _validate(data: HomSpaceData):
    if data.d < 2:
        raise SchemaError("/d", "need at least two modules")
    if len(data.dims) != data.d:
        raise SchemaError("/dims", f"expected {data.d} entries")
    for i, m in enumerate(data.dims):
        if not is_int(m) or m <= 0:
            raise SchemaError(f"/dims/{i}", "module dimensions must be positive integers")
    if len(data.b) != data.d:
        raise SchemaError("/b", f"expected {data.d} entries")
    for i, bi in enumerate(data.b):
        if bi < 0:
            raise SchemaError(f"/b/{i}", "Killing coefficients must be nonnegative")
    for pos, (key, val) in enumerate(data.triples.items()):
        if tuple(sorted(key)) != tuple(key):
            raise SchemaError(f"/triples/{pos}/ijk", "triple keys must be sorted")
        if len(set(key)) == 1:
            raise SchemaError(f"/triples/{pos}/ijk", "all three indices equal is not allowed")
        for idx in key:
            if not 1 <= idx <= data.d:
                raise SchemaError(f"/triples/{pos}/ijk", f"index {idx} out of range 1..{data.d}")
        if val <= 0:
            raise SchemaError(f"/triples/{pos}/value", "bracket constants must be positive")
    for pos, pair in enumerate(sorted(data.bracket_meets_h)):
        if len(pair) != 2 or pair[0] > pair[1]:
            raise SchemaError(f"/bracket_meets_h/{pos}", "pairs must be sorted 2-tuples")
        for idx in pair:
            if not 1 <= idx <= data.d:
                raise SchemaError(f"/bracket_meets_h/{pos}", f"index {idx} out of range")
    for name in ("h_nontrivial", "central"):
        for idx in sorted(getattr(data, name)):
            if not 1 <= idx <= data.d:
                raise SchemaError(f"/{name}", f"index {idx} out of range")
    if data.complement not in COMPLEMENTS:
        raise SchemaError("/complement", f"must be one of {COMPLEMENTS}")


_FIELDS = {
    "schema",
    "name",
    "d",
    "dims",
    "b",
    "triples",
    "bracket_meets_h",
    "h_nontrivial",
    "central",
    "complement",
    "expected",
}


def read_json(document: str):
    """The JSON value of a document; `SchemaError` for invalid JSON, an
    integer past Python's digit limit (a plain `ValueError`) or nesting
    past the recursion limit (`RecursionError`)."""
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from None


def parse(document: str) -> HomSpaceData:
    """Parse and validate a homspace/v1 JSON document."""
    return parse_obj(read_json(document))


def parse_obj(obj: dict) -> HomSpaceData:
    if not isinstance(obj, dict):
        raise SchemaError("/", "top level must be an object")
    unknown = set(obj) - _FIELDS
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}", "unknown field")
    if obj.get("schema") != SCHEMA:
        raise SchemaError("/schema", f"expected {SCHEMA!r}")
    for req in ("name", "d", "dims", "b", "triples"):
        if req not in obj:
            raise SchemaError(f"/{req}", "missing required field")
    d = obj["d"]
    if not is_int(d):
        raise SchemaError("/d", "must be an integer")
    for name in ("dims", "b"):
        if not isinstance(obj[name], list):
            raise SchemaError(f"/{name}", "must be a list")
    dims = obj["dims"]

    def _rat_at(path, value):
        try:
            if isinstance(value, str):
                return parse_rat(value)
            if is_int(value):
                return Fraction(value)
        except ValueError:
            pass
        raise SchemaError(path, f"not a decimal-free rational: {value!r}")

    triples: Dict[TripleKey, Fraction] = {}
    raw_triples = obj["triples"]
    if not isinstance(raw_triples, list):
        raise SchemaError("/triples", "must be a list")
    for pos, entry in enumerate(raw_triples):
        if not isinstance(entry, dict) or set(entry) != {"ijk", "value"}:
            raise SchemaError(f"/triples/{pos}", "expected {'ijk': [...], 'value': 'p/q'}")
        ijk = entry["ijk"]
        if not (isinstance(ijk, list) and len(ijk) == 3 and all(is_int(i) for i in ijk)):
            raise SchemaError(f"/triples/{pos}/ijk", "must be a list of three integers")
        key = tuple(sorted(ijk))
        if key in triples:
            raise SchemaError(f"/triples/{pos}/ijk", "duplicate triple")
        triples[key] = _rat_at(f"/triples/{pos}/value", entry["value"])

    def _pairs(name):
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise SchemaError(f"/{name}", "must be a list")
        out = set()
        for pos, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2 and all(is_int(i) for i in pair)):
                raise SchemaError(f"/{name}/{pos}", "must be a pair of integers")
            for idx in pair:
                if not 1 <= idx <= d:
                    raise SchemaError(f"/{name}/{pos}", f"index {idx} out of range")
            out.add(tuple(sorted(pair)))
        return frozenset(out)

    def _indices(name):
        raw = obj.get(name, [])
        if not isinstance(raw, list) or not all(is_int(i) for i in raw):
            raise SchemaError(f"/{name}", "must be a list of integers")
        return frozenset(raw)

    # the report reads these counts; any other key (notes) stays free-form
    expected = obj.get("expected", {})
    if not isinstance(expected, dict):
        raise SchemaError("/expected", "must be an object")
    for key in ("nu", "epsilon", "positive"):
        if key in expected and not (is_int(expected[key]) and expected[key] >= 0):
            raise SchemaError(f"/expected/{key}", "must be a nonnegative integer")

    try:
        return HomSpaceData(
            name=str(obj["name"]),
            d=d,
            dims=tuple(dims),
            b=tuple(_rat_at(f"/b/{i}", v) for i, v in enumerate(obj["b"])),
            triples=triples,
            bracket_meets_h=_pairs("bracket_meets_h"),
            h_nontrivial=_indices("h_nontrivial"),
            central=_indices("central"),
            complement=obj.get("complement", "other"),
            expected=obj.get("expected"),
        )
    except TypeError as exc:
        raise SchemaError("/", str(exc)) from exc


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _basis_point(d: int, plus, minus=()) -> tuple:
    v = [0] * d
    for i in plus:
        v[i - 1] += 1
    for i in minus:
        v[i - 1] -= 1
    return tuple(v)


def weight_terms(data: HomSpaceData):
    """The terms (weight, coefficient) of the scalar curvature s: e_r with
    m_r b_r / 2 for every module with b_r != 0, and e_a + e_b - e_c with
    -[a,b,c] / 4 for every distinct ordered view (a, b, c) of a stored
    triple whose bracket slots a, b are not central (central summands
    commute with everything, so those oriented brackets vanish).  A weight
    may occur more than once."""
    for r, br in enumerate(data.b, start=1):
        if br != 0:
            yield _basis_point(data.d, (r,)), Fraction(data.dims[r - 1]) * br / 2
    for key, val in data.triple_items():
        for a, b, c in dict.fromkeys(permutations(key)):
            if a not in data.central and b not in data.central:
                yield _basis_point(data.d, (a, b), (c,)), -val / 4


def weight_points(data: HomSpaceData) -> list:
    """The distinct weights of `weight_terms`, sorted."""
    return sorted({w for w, _coef in weight_terms(data)})


def weight_polytope(data: HomSpaceData) -> LatticePolytope:
    """Convex hull of the weights; raises when the spectrum is degenerate."""
    pts = weight_points(data)
    if not pts:
        raise DegenerateSpectrumError("no weights at all")
    P = hull(pts)
    if P.dim < data.d - 1:
        raise DegenerateSpectrumError(
            f"weight polytope has dimension {P.dim} < d-1 = {data.d - 1}"
        )
    return P


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def kaehler_b2_polytope(d: int) -> LatticePolytope:
    """Weight polytope of the second-Betti-number-one Kaehler spaces:
    hull of all e_i + e_j - e_k with i != k, j != k and i +- j +- k = 0
    (d = 2 is the segment [e_2, 2 e_1 - e_2])."""
    if not 2 <= d <= 8:
        raise ValueError("supported range is 2 <= d <= 8")
    if d == 2:
        return hull([(0, 1), (2, -1)])
    pts = []
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                if i == k or j == k:
                    continue
                if i + j == k or i == j + k or j == i + k:
                    pts.append(_basis_point(d, (i, j), (k,)))
    return hull(pts)


def _jordan_classes(p: int) -> list:
    """Classes of (Z_p)^2 \\ 0 modulo sign, canonical representatives."""
    reps = []
    seen = set()
    for a in range(p):
        for b in range(p):
            if a == b == 0:
                continue
            h = (a, b)
            neg = ((-a) % p, (-b) % p)
            key = min(h, neg)
            if key not in seen:
                seen.add(key)
                reps.append(key)
    reps.sort()
    return reps


def _proportional(h, hp, p: int) -> bool:
    a, b = h
    c, dd = hp
    return (a * dd - b * c) % p == 0


def jordan_space(p: int) -> HomSpaceData:
    """Spectral data of the quotient of SU(p) by its Weyl-Heisenberg
    automorphism group: one module per sign class of (Z_p)^2 \\ 0, with
    [m_h, m_h'] = 0 exactly for proportional classes.

    Values use the Killing-form background (all b_i = 1); the shared
    bracket constant is pinned by the bi-invariant trace identity
    sum_{j,k} [i,j,k] = m_i b_i.
    """
    if p not in (2, 3, 5, 7):
        raise ValueError("supported primes: 2, 3, 5, 7")
    classes = _jordan_classes(p)
    index = {h: i + 1 for i, h in enumerate(classes)}
    d = len(classes)
    triple_keys = set()
    for i, h in enumerate(classes):
        for hp in classes[i + 1:]:
            if _proportional(h, hp, p):
                continue
            for sign in (1, -1):
                s = ((h[0] + sign * hp[0]) % p, (h[1] + sign * hp[1]) % p)
                neg = ((-s[0]) % p, (-s[1]) % p)
                rep = min(s, neg)
                key = tuple(sorted((index[h], index[hp], index[rep])))
                triple_keys.add(key)
    per_index = {}
    for key in triple_keys:
        for idx in key:
            per_index[idx] = per_index.get(idx, 0) + 1
    counts = set(per_index.values())
    assert len(counts) == 1, "triple incidence should be uniform"
    t_count = counts.pop()
    m = 1 if p == 2 else 2
    value = Fraction(m, 2 * t_count)  # from sum_{j,k} [i,j,k] = m_i b_i with b_i = 1
    expected = None
    if p == 2:
        expected = {"nu": 4, "epsilon": 1, "note": "epsilon = nu - p - 1"}
    elif p == 3:
        expected = {"nu": 23, "epsilon": 19, "note": "epsilon = nu - p - 1"}
    return HomSpaceData(
        name=f"jordan_{p}",
        d=d,
        dims=(m,) * d,
        b=(Fraction(1),) * d,
        triples={key: value for key in sorted(triple_keys)},
        bracket_meets_h=frozenset(),
        h_nontrivial=frozenset(),
        central=frozenset(),
        complement="killing_orthogonal",
        expected=expected,
    )


def jordan_product(p: int, q: int) -> HomSpaceData:
    """Direct product of two jordan_space factors; no cross brackets."""
    if p not in (2, 3) or q not in (2, 3):
        raise ValueError("supported primes for the product: 2, 3")
    left = jordan_space(p)
    right = jordan_space(q)
    shift = left.d
    triples = dict(left.triples)
    for key, val in right.triples.items():
        triples[tuple(i + shift for i in key)] = val
    return HomSpaceData(
        name=f"jordan_product_{p}_{q}",
        d=left.d + right.d,
        dims=left.dims + right.dims,
        b=left.b + right.b,
        triples=triples,
        bracket_meets_h=frozenset(),
        h_nontrivial=frozenset(),
        central=frozenset(),
        complement="killing_orthogonal",
        expected=None,
    )


def product_of_irreducibles(d: int) -> HomSpaceData:
    """Direct product of d isotropy irreducible spaces (no bracket triples;
    the weight polytope is the standard simplex), for 2 <= d <= 24, the
    largest d of any catalog space (jordan_7)."""
    if not 2 <= d <= 24:
        raise ValueError("supported d: 2 <= d <= 24")
    return HomSpaceData(
        name=f"product_of_irreducibles_{d}",
        d=d,
        dims=(2,) * d,
        b=(Fraction(1),) * d,
        triples={},
        bracket_meets_h=frozenset((i, i) for i in range(1, d + 1)),
        h_nontrivial=frozenset(range(1, d + 1)),
        central=frozenset(),
        complement="killing_orthogonal",
        expected={"nu": 1, "epsilon": 1},
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_STATIC_ENTRIES = (
    "su3_t2",
    "sphere_s3",
    "wang_ziller_killing",
    "wang_ziller_q",
    "e8_t1_a3_a4",
    "e8_t1_a4_a2_a1",
)

_ALIASES = {"wang_ziller": "wang_ziller_killing"}

# generator families: the whole name must match, with integer parameters
_FAMILIES = (
    (re.compile(r"jordan_product_([0-9]+)_([0-9]+)"), jordan_product),
    (re.compile(r"jordan_([0-9]+)"), jordan_space),
    (re.compile(r"product_of_irreducibles_([0-9]+)"), product_of_irreducibles),
)


def catalog_names() -> list:
    """Names resolvable by load_catalog (static entries plus generator
    families jordan_<p>, jordan_product_<p>_<q>, product_of_irreducibles_<d>)."""
    gens = [
        "jordan_2",
        "jordan_3",
        "jordan_5",
        "jordan_7",
        "jordan_product_2_2",
        "jordan_product_2_3",
        "jordan_product_3_3",
        "product_of_irreducibles_<d>",
    ]
    return list(_STATIC_ENTRIES) + gens


def load_catalog(name: str) -> HomSpaceData:
    """Load a catalog fixture by name; KeyError for a name that is neither
    a static entry nor a generator family with integer parameters."""
    name = _ALIASES.get(name, name)
    if name in _STATIC_ENTRIES:
        text = resources.files("einpoly.catalog").joinpath(f"{name}.json").read_text()
        return parse(text)
    for pattern, build in _FAMILIES:
        match = pattern.fullmatch(name)
        if match:
            return build(*map(int, match.groups()))
    raise KeyError(f"unknown catalog entry: {name}")
