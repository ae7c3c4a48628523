"""Assembly of the full analysis report (schema report/v1).

The report is deterministic for a given input: dictionaries are built in a
fixed field order and every rational is serialized as a decimal-free
string.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .curvature import scalar_curvature
from .faces import NEEDS_MORE_DATA, face_verdict, marked_census
from .homspace import HomSpaceData, weight_polytope
from .infinity import B2NotApplicableError, b2_exponent, delta_min, flat_complex
from .solver import DegenerateSystemError, delannoy, real_positive

REPORT_SCHEMA = "report/v1"


def analyze(data: HomSpaceData, solve: bool = True) -> tuple[dict, int]:
    """Full pipeline: weight polytope, flats, minimal polytope, volume and
    bounds, marked-face census, 2-face singularity verdicts, and (for
    d <= 3) the certified solver.  The exit code is 3 when the solver is
    skipped: d > 3, or a system with a positive-dimensional solution set."""
    warnings = list(data.validation_warnings())
    delta = weight_polytope(data)
    T = flat_complex(data)
    dmin = delta_min(delta, T)
    nu = dmin.normalized_volume()
    s = scalar_curvature(data)
    # the Newton polytope of s is P iff the support lies in P and holds
    # P's vertices; every exponent of s is a weight, so it lies in delta
    support = set(s.terms)
    in_min = all(map(dmin.contains, support))
    nw_equals_min = in_min and support.issuperset(dmin.vertices)
    nw_equals_delta = support.issuperset(delta.vertices)
    if data.complement == "killing_orthogonal" and not nw_equals_min:
        warnings.append(
            "curvature support differs from the minimal polytope on a "
            "Killing-orthogonal input"
        )
    try:
        b2 = b2_exponent(dmin)
    except B2NotApplicableError as exc:
        b2 = f"not applicable: {exc}"
    sol = None
    skipped = f"unsupported dimension d = {data.d} (supported: 2, 3)"
    if solve and data.d in (2, 3):
        try:
            sol = real_positive(data, s=s)
        except DegenerateSystemError as exc:
            skipped = f"degenerate system ({exc})"
    epsilon = sol.distinct_complex if sol is not None else None
    census = marked_census(dmin)
    # only marked faces are named in the report, each by its signature
    marked = [(e, list(e.face.normal_signature())) for e in census.marked_faces()]
    singularity = []
    if census.applicable and in_min:
        for entry, sig in marked:
            verdict = face_verdict(s, entry.face)
            singularity.append({"signature": sig, "dim": entry.dim, "verdict": verdict})
            if verdict == NEEDS_MORE_DATA:
                warnings.append(f"face {sig} left undecided (needs more data)")
    elif census.applicable:
        warnings.append("curvature support not contained in the minimal polytope; "
                        "singularity analysis skipped")
    solver_obj = None
    solver_exit = 0
    if sol is not None:
        solver_obj = sol.to_json_obj()
        warnings.extend(sol.warnings)
    elif solve:
        solver_exit = 3
        warnings.append(f"solver skipped: {skipped}")
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "input": data.to_json_obj(),
        "delta": delta.to_json_obj(),
        "T": T.to_json_obj(),
        # delta_min returns delta iff no vertex lies in |T| (dim delta >= 1),
        # and the vertices of delta_min are generators chosen outside |T|
        "delta_admissible": dmin is delta,
        "delta_min": dmin.to_json_obj(),
        "delta_min_admissible": True,
        "nu": nu,
        "b2_exponent": b2,
        "newton": {
            "equals_delta_min": nw_equals_min,
            "equals_delta": nw_equals_delta,
            "support_size": len(s.terms),
        },
        "bounds": _bounds_obj(data, nu, T, epsilon),
        "census": _census_obj(census, marked),
        "singularity": singularity,
        "solver": solver_obj,
        "warnings": warnings,
    }
    return report, solver_exit


def _bounds_obj(data: HomSpaceData, nu: int, T, eps_c) -> dict:
    """nu against the Delannoy/Legendre bound and 6^(d-1), for the flat
    complex T, with the solver's distinct count eps_c (None when it did
    not run) and the annotated one, and the solutions escaped to infinity,
    nu - epsilon floored at 0, for epsilon the computed count or else the
    annotation."""
    dl = delannoy(data.d - 1)
    six = 6 ** (data.d - 1)
    eps_a = data.expected["epsilon"] if data.expected and "epsilon" in data.expected else None
    eps = eps_c if eps_c is not None else eps_a
    verdicts = {
        "epsilon_le_nu": eps <= nu if eps is not None else None,
        "nu_le_delannoy": nu <= dl,
        "delannoy_lt_six_power": dl < six,
    }
    if verdicts["epsilon_le_nu"] is False:
        verdicts["violation"] = "epsilon exceeds nu"
    return {
        "d": data.d,
        "nu": nu,
        "delannoy_bound": dl,
        "six_power": six,
        "epsilon_computed": eps_c,
        "epsilon_annotation": eps_a,
        "t_size": len(T.maximal_flats),
        "escaped_to_infinity": max(nu - eps, 0) if eps is not None else None,
        "verdicts": verdicts,
    }


def _census_obj(census, marked) -> dict:
    by_dim = {}
    for entry in census.entries:
        rec = by_dim.setdefault(entry.dim, {"faces": 0, "marked": 0, "test2": 0})
        rec["faces"] += 1
        if entry.marked:
            rec["marked"] += 1
        if entry.test2:
            rec["test2"] += 1
    return {
        "applicable": census.applicable,
        "by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "marked_total": census.marked_total(),
        "marked_faces": [
            {"dim": e.dim, "signature": sig, "vertices": [list(v) for v in e.face.vertices()]}
            for e, sig in marked
        ],
    }


def render_report(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2)."""
    return _render(report, "")


def _render(obj, pad: str) -> str:
    """json.dumps(obj, indent=2) for dicts with str keys, lists, tuples,
    str, int, bool, None and float; TypeError on any other type.  `pad`
    is the indent of the line that `obj` starts on."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return str(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if t is dict:
        body = sep.join([_quote(k) + ": " + _render(v, inner) for k, v in obj.items()])
        return "{\n" + inner + body + "\n" + pad + "}" if obj else "{}"
    if t is not list and t is not tuple:
        if t is float:
            return json.dumps(obj)
        raise TypeError(f"{t.__name__} is not JSON serializable")
    if {*map(type, obj)} == {int}:
        body = str(list(obj))[1:-1].replace(", ", sep)
    else:
        body = sep.join([_render(x, inner) for x in obj])
    return "[\n" + inner + body + "\n" + pad + "]" if obj else "[]"


def summarize(report: dict) -> str:
    """Short human-readable summary of an analysis report."""
    lines = []
    name = report["input"].get("name", "?")
    d = report["input"]["d"]
    lines.append(f"{name}: d = {d}")
    lines.append(
        f"  weight polytope: {len(report['delta']['vertices'])} vertices, "
        f"{len(report['delta']['facets'])} facets"
    )
    flats = report["T"]["maximal_flats"]
    lines.append(f"  flats at infinity: {flats if flats else 'none'}")
    lines.append(
        f"  minimal polytope: {len(report['delta_min']['vertices'])} vertices, "
        f"{len(report['delta_min']['facets'])} facets, nu = {report['nu']}"
    )
    lines.append(f"  b2 exponent: {report['b2_exponent']}")
    b = report["bounds"]
    lines.append(
        f"  bounds: nu = {b['nu']} <= Delannoy {b['delannoy_bound']} < {b['six_power']}"
    )
    if b["epsilon_computed"] is not None:
        lines.append(f"  complex solutions (distinct): {b['epsilon_computed']}")
    elif b["epsilon_annotation"] is not None:
        lines.append(f"  complex solutions (annotation): {b['epsilon_annotation']}")
    if b["escaped_to_infinity"]:
        lines.append(f"  solutions at infinity: nu - epsilon = {b['escaped_to_infinity']}")
    c = report["census"]
    if c["applicable"]:
        lines.append(f"  marked faces: {c['marked_total']}")
    else:
        lines.append("  marked faces: shape tests inapplicable")
    verdicts = {}
    for entry in report["singularity"]:
        verdicts[entry["verdict"]] = verdicts.get(entry["verdict"], 0) + 1
    if verdicts:
        lines.append(f"  singularity verdicts: {verdicts}")
    sol = report.get("solver")
    if sol:
        lines.append(
            f"  solver: {sol['distinct_complex']} complex, "
            f"{sol['real_count']} real, {sol['positive_count']} positive"
        )
    for w in report["warnings"]:
        lines.append(f"  warning: {w}")
    return "\n".join(lines)
