"""Correctness oracle and outcome classifier.

The oracle checks facts that do not depend on how einpoly computes them:
the catalog `expected` blocks, the Kaehler b2 = 1 table, the Delannoy
bound computed here by two independent formulas, the ordering of solution
counts, the Newton-polytope identity on Killing-orthogonal catalog spaces,
and byte-identical reports for the same input.  It deliberately does not
compare against golden report bytes, so that a change of singularity
verdicts is not a miss.
"""

from __future__ import annotations

import hashlib
from math import comb

# Outcomes of one input.  "rejected" is exit 2 (invalid data:
# DegenerateSpectrumError, SchemaError) and "unsupported" is exit 3 (no
# solver for this d; the analysis is still emitted).  Both are documented.
OK, REJECTED, UNSUPPORTED, FAILED = "ok", "rejected", "unsupported", "failed"

# Self-computed, not values from the paper.
KAEHLER_TABLE = {
    # d: (facets, nu, marked faces)
    2: (2, 2, 0),
    3: (4, 6, 0),
    4: (7, 20, 3),
    5: (16, 82, 13),
    6: (36, 344, 40),
    7: (100, 1598, 145),
}
KAEHLER_8 = {"vertices": 40, "facets": 280, "faces": 12446, "nu": 7526}


def classify(exc: BaseException) -> str:
    """Outcome of an input whose analysis raised exc."""
    from einpoly.homspace import DegenerateSpectrumError, SchemaError
    from einpoly.solver import UnsupportedDimensionError

    if isinstance(exc, (DegenerateSpectrumError, SchemaError)):
        return REJECTED
    if isinstance(exc, UnsupportedDimensionError):
        return UNSUPPORTED
    return FAILED


def exit_outcome(code: int) -> str:
    """Outcome of `einpoly analyze` from its exit code."""
    return {0: OK, 2: REJECTED, 3: UNSUPPORTED}.get(code, FAILED)


def delannoy(n: int) -> int:
    return sum(comb(n, k) * comb(n + k, k) for k in range(n + 1))


def legendre_at_3(n: int) -> int:
    return sum(comb(n, k) ** 2 * 2**k for k in range(n + 1))


def check_nu_bound(d: int, nu: int) -> list:
    bound = delannoy(d - 1)
    misses = []
    if bound != legendre_at_3(d - 1):
        misses.append(f"delannoy({d - 1}) != legendre_at_3({d - 1})")
    if nu > bound:
        misses.append(f"nu = {nu} > delannoy({d - 1}) = {bound}")
    return misses


def check_report(report: dict) -> list:
    """Misses of one report/v1 document."""
    data = report["input"]
    d = data["d"]
    nu = report["nu"]
    bounds = report["bounds"]
    misses = check_nu_bound(d, nu)
    if bounds["nu"] != nu or bounds["delannoy_bound"] != delannoy(d - 1):
        misses.append("bounds block disagrees with nu or the Delannoy number")
    eps = bounds["epsilon_computed"]
    # Bernstein's bound epsilon <= nu needs the curvature support to span
    # delta_min.  Constants that break the Killing identity (random
    # documents) leave the e_j terms of flat summands in the support, and
    # then the bound holds only for the larger Newton polytope.
    if eps is not None and eps > nu and report["newton"]["equals_delta_min"]:
        misses.append(f"epsilon = {eps} > nu = {nu}")
    solver = report.get("solver")
    if solver:
        cplx, real, pos = (
            solver["distinct_complex"],
            solver["real_count"],
            solver["positive_count"],
        )
        if not (real is None or pos is None or 0 <= pos <= real <= cplx):
            misses.append(f"not positive <= real <= complex: {pos}, {real}, {cplx}")
    if data["complement"] == "killing_orthogonal" and not report["newton"]["equals_delta_min"]:
        misses.append("Newton polytope differs from delta_min on a Killing-orthogonal input")
    expected = data.get("expected") or {}
    if "nu" in expected and expected["nu"] != nu:
        misses.append(f"nu = {nu}, expected {expected['nu']}")
    if "epsilon" in expected and eps is not None and expected["epsilon"] != eps:
        misses.append(f"epsilon = {eps}, expected {expected['epsilon']}")
    if "positive" in expected and solver and solver["positive_count"] is not None:
        if expected["positive"] != solver["positive_count"]:
            misses.append(
                f"positive = {solver['positive_count']}, expected {expected['positive']}"
            )
    return misses


def check_kaehler(d: int, facets: int, nu: int, marked: int) -> list:
    want = KAEHLER_TABLE[d]
    got = (facets, nu, marked)
    return [] if got == want else [f"kaehler d={d}: (f, nu, marked) = {got}, expected {want}"]


class ReportDigests:
    """Remembers a digest of each input's report; the same input must render
    the same bytes every time it is seen in a run."""

    def __init__(self):
        self._seen = {}

    def check(self, input_id: str, text: str) -> list:
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self._seen.setdefault(input_id, digest)
        return [] if first == digest else [f"{input_id}: report bytes differ between passes"]
