"""Seeded random homspace/v1 documents with d <= 3 for the solver_d3
workload.

Each document has two parts.  Its Einstein system (d, module dimensions,
Killing coefficients with some zeros, bracket triples and constants, and
the central modules) is drawn once, from a fixed stream, because it sets
the solver's work, which is most of a pass and varies several-fold with
the constants: drawn per seed, the pass time and its 90th percentile
moved by 9% and 13% (coefficient of variation) across ten seeds.  The
workload seed draws the rest: which brackets meet the stabilizer, which
modules it moves, and the complement label.  These decide the flat
complex, and with it the minimal polytope, its volume and the census.

Degenerate draws are kept: a zero Killing coefficient can leave the weight
polytope too small (a documented exit-2 rejection), and a document whose
every summand is flat reaches the known `delta_min` crash.  Which documents
reach that crash is fixed, not drawn per seed.  Only documents without
triples can: a triple puts a weight with a negative coordinate on a vertex
of the weight polytope, and such a vertex lies outside every flat.  On a
document without triples the weights are the e_i of the summands with a
nonzero Killing coefficient, so it crashes exactly when all of these are
flat (`all_flat`).  A fixed stream decides that for each such document,
and the seed's draw is repeated until it agrees.  Left to the seed, 0, 1
or 2 documents crashed (in 72%, 27% and 2% of 200 seeds), so the failure
count of a run depended on its seed.

Random documents are never labelled `killing_orthogonal`: random constants
do not satisfy the Killing-form identities, and on such documents the
curvature support often differs from the minimal polytope, which would
turn the Newton-polytope oracle against the input rather than the program.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, combinations_with_replacement

DEFAULT_SEED = 1
COMPLEMENTS = ("q_orthogonal", "other")
# Share of the documents without triples, among those that can go either
# way, whose every weighted summand is flat.
ALL_FLAT_SHARE = 1 / 4

# (d, number of triples) -> number of documents.  Most documents are d = 3
# systems with two triples, where the solver dominates.  Three or more
# triples cost ten times as much with a far wider spread, so they are left
# out.
SHAPES = (
    ((2, 0), 4),
    ((2, 1), 8),
    ((2, 2), 8),
    ((3, 0), 10),
    ((3, 1), 20),
    ((3, 2), 100),
)


def triple_keys(d: int) -> list:
    """Sorted index multisets of size 3 that are not all equal."""
    return [
        k for k in combinations_with_replacement(range(1, d + 1), 3) if len(set(k)) > 1
    ]


class System:
    """The part of a document that sets its Einstein system."""

    def __init__(self, d: int, dims: list, b: list, triples: list, central: list):
        self.d = d
        self.dims = dims
        self.b = b
        self.triples = triples
        self.central = central
        # Whether the document must be all-flat; None leaves it to the draw,
        # which cannot reach the crash then.
        self.all_flat = None


def _constant(rng: random.Random) -> str:
    """A positive rational p/q with p, q in 1..9.  Such constants are
    generic enough that the number of complex solutions is mostly the one
    the structure allows; constants from a handful of simple values often
    cancel."""
    return f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"


def systems() -> list:
    """The fixed Einstein systems of the documents, in order."""
    draw = random.Random(0)
    out = []
    for (d, k), n in SHAPES:
        choices = list(combinations(triple_keys(d), k))
        for j in range(n):
            modules = range(1, d + 1)
            dims = [draw.randint(1, 8) for _ in modules]
            b = ["0" if draw.random() < 1 / 7 else _constant(draw) for _ in modules]
            triples = [(key, _constant(draw)) for key in choices[j % len(choices)]]
            central = [i for i in modules if draw.random() < 0.1]
            out.append(System(d, dims, b, triples, central))
    # A stream of its own, so that the systems above stay as they were.
    pick = random.Random("all-flat")
    for system in out:
        weighted = {i for i, b in enumerate(system.b, 1) if b != "0"}
        if not system.triples and weighted and not weighted & set(system.central):
            system.all_flat = pick.random() < ALL_FLAT_SHARE
    return out


def all_flat(doc: dict) -> bool:
    """Whether every summand with a nonzero Killing coefficient is flat:
    not central, not moved by the stabilizer, and in no bracket of its own
    that meets the stabilizer or a stored triple."""
    meets = {tuple(p) for p in doc["bracket_meets_h"]}
    return all(
        i not in doc["central"]
        and i not in doc["h_nontrivial"]
        and (i, i) not in meets
        and all(t["ijk"].count(i) < 2 for t in doc["triples"])
        for i, b in enumerate(doc["b"], 1)
        if b != "0"
    )


def random_document(rng: random.Random, index: int, system: System) -> str:
    while True:
        doc = _draw(rng, index, system)
        if system.all_flat is None or all_flat(doc) == system.all_flat:
            return json.dumps(doc)


def _draw(rng: random.Random, index: int, system: System) -> dict:
    d = system.d
    pairs = combinations_with_replacement(range(1, d + 1), 2)
    return {
        "schema": "homspace/v1",
        "name": f"random_{index:03d}",
        "d": d,
        "dims": system.dims,
        "b": system.b,
        "triples": [{"ijk": list(key), "value": value} for key, value in system.triples],
        "bracket_meets_h": [list(p) for p in pairs if rng.random() < 0.3],
        "h_nontrivial": [i for i in range(1, d + 1) if rng.random() < 0.5],
        "central": system.central,
        "complement": rng.choice(COMPLEMENTS),
    }


def documents(seed: int) -> list:
    """The workload's documents for a seed, as JSON text."""
    rng = random.Random(seed)
    return [random_document(rng, i, system) for i, system in enumerate(systems())]
