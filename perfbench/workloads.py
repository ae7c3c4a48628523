"""The benchmark's workloads.

Each workload builds its inputs in set-up, runs each input the way a user
would (`run`), and, for the traced run, replays the input stage by stage
with one span per public call before running the user path again under a
span (`trace`).  The replay calls each stage once, in pipeline order, on
fresh objects: `LatticePolytope` caches its face lattice, so the lattice
span comes before the volume and census spans that reuse it.

Why these workloads:

* analyze_catalog: the named user path, `einpoly analyze` over the static
  fixtures and the generator families plus `einpoly kaehler-b2 2..7`.  It
  runs every layer; the marked-face census does most of the work.
* hull_volume: hull, face lattice and normalized volume only, on the
  largest polytopes that finish (Kaehler d = 8 and four minimal
  polytopes).  A double-description or triangulation change shows here
  while census and solver changes do not.
* solver_d3: full analysis with the d <= 3 solver on seeded random
  documents.  The solver dominates, and the many tiny hulls show any
  per-call cost a hull change adds.

Excluded on purpose (see BENCHMARK.json): `jordan_5` and `jordan_7`, whose
hulls do not finish, and the Kaehler d = 8 census (about 30 s a pass); the
d = 8 hull and volume stay in hull_volume.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from types import SimpleNamespace

import generator
import oracle
from oracle import FAILED, OK, REJECTED


class NullTracer:
    """Stands in for spans.Tracer when tracing is off."""

    def call(self, name, input_id, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


NULL = NullTracer()


def load_api() -> SimpleNamespace:
    """Import einpoly and return the modules the workloads call."""
    import einpoly
    import einpoly.cli
    import einpoly.curvature
    import einpoly.faces
    import einpoly.homspace
    import einpoly.infinity
    import einpoly.report
    import einpoly.solver

    return SimpleNamespace(
        package=einpoly,
        cli=einpoly.cli,
        curvature=einpoly.curvature,
        faces=einpoly.faces,
        homspace=einpoly.homspace,
        infinity=einpoly.infinity,
        report=einpoly.report,
        solver=einpoly.solver,
    )


class Input:
    def __init__(self, input_id: str, kind: str, data=None, d: int = 0):
        self.id = input_id
        self.kind = kind
        self.data = data
        self.d = d


class Result:
    """What one input did: its outcome, oracle misses and, on failure, why."""

    def __init__(self, status: str, misses=(), reason: str = ""):
        self.status = status
        self.misses = list(misses)
        self.reason = reason

    @property
    def failed(self) -> bool:
        return self.status == FAILED or bool(self.misses)

    def describe(self) -> str:
        return self.reason or "; ".join(self.misses)


class Context:
    """Per-run scratch: where CLI reports go, and the report digests."""

    def __init__(self, workdir: str):
        self.report_path = os.path.join(workdir, "report.json")
        self.digests = oracle.ReportDigests()


def _exception_result(exc: Exception) -> Result:
    status = oracle.classify(exc)
    return Result(status, reason=f"{type(exc).__name__}: {exc}" if status == FAILED else "")


def _loaded(api, t, input_id: str, name: str) -> "Input":
    data = t.call("homspace.load", input_id, api.homspace.load_catalog, name)
    return Input(input_id, "data", data)


def _shuffled(inputs: list, seed: int) -> list:
    random.Random(seed).shuffle(inputs)
    return inputs


@contextlib.contextmanager
def _patched(module, **replacements):
    """Temporarily replace module attributes that exist."""
    saved = {k: getattr(module, k) for k in replacements if hasattr(module, k)}
    for k in saved:
        setattr(module, k, replacements[k])
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(module, k, v)


def _cli(api, argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# stage replay shared by the workloads
# ---------------------------------------------------------------------------

def _count_hull(t, P):
    t.count("polytope.hull_calls")
    t.count("polytope.vertices", len(P.vertices))
    t.count("polytope.facets", len(P.facets))


def _lattice_and_volume(t, input_id, P) -> int:
    faces = t.call("polytope.face_lattice", input_id, P.all_proper_faces)
    t.count("polytope.faces", sum(len(fs) for fs in faces.values()))
    nu = t.call("polytope.volume", input_id, P.normalized_volume)
    t.count("polytope.nu", nu)
    return nu


def _minimal_polytope(api, t, input_id, data):
    """Weights, weight polytope, flats and the minimal polytope."""
    pts = t.call("homspace.weights", input_id, api.homspace.weight_points, data)
    t.count("homspace.weights", len(pts))
    delta = t.call("polytope.hull", input_id, api.homspace.weight_polytope, data)
    _count_hull(t, delta)
    T = t.call("infinity.flat_complex", input_id, api.infinity.flat_complex, data)
    t.count("infinity.maximal_flats", len(T.maximal_flats))
    return t.call("infinity.delta_min", input_id, api.infinity.delta_min, delta, T)


def _b2(api, t, input_id, P):
    try:
        t.call("infinity.b2", input_id, api.infinity.b2_exponent, P)
    except api.infinity.B2NotApplicableError:
        pass


def _census(api, t, input_id, P):
    census = t.call("faces.census", input_id, api.faces.marked_census, P)
    t.count("faces.census_faces", len(census.entries))
    t.count("faces.marked", census.marked_total())
    return census


def _verdicts(api, s, census) -> int:
    """Parallelogram verdicts on the marked 2-faces, as the report decides them."""
    decided = 0
    for entry in census.marked_faces():
        if entry.dim != 2:
            continue
        try:
            api.faces.parallelogram_singular(s, entry.face)
        except ValueError:  # not a parallelogram: left undecided
            continue
        decided += 1
    return decided


def replay_analysis(api, t, input_id, data):
    """Every stage of `analyze`, each called once."""
    dmin = _minimal_polytope(api, t, input_id, data)
    _lattice_and_volume(t, input_id, dmin)
    _b2(api, t, input_id, dmin)
    s = t.call("curvature.scalar_curvature", input_id, api.curvature.scalar_curvature, data)
    t.count("curvature.support", len(s.terms))
    nw = t.call("curvature.newton", input_id, api.curvature.newton_polytope, s)
    census = _census(api, t, input_id, dmin)
    if census.applicable and dmin.contains_polytope(nw):
        t.count("faces.verdicts", t.call("faces.verdicts", input_id, _verdicts, api, s, census))
    solve = data.d in (2, 3)
    if solve:
        sol = t.call("solver.count_complex", input_id, api.solver.count_complex, data)
        t.count("solver.complex", sol.distinct_complex)
        sol = t.call("solver.real_positive", input_id, api.solver.real_positive, data)
        t.count("solver.real", sol.real_count or 0)
        t.count("solver.positive", sol.positive_count or 0)
    t.call("solver.bound_report", input_id, api.solver.bound_report, data, solve=solve)


def _replay(api, t, inp):
    """Replay an analysis; a raise is left to the user path that follows
    to classify, since that path raises or exits the same way."""
    try:
        replay_analysis(api, t, inp.id, inp.data)
    except Exception:  # noqa: BLE001 - the user path reports it
        pass


# ---------------------------------------------------------------------------
# analyze_catalog
# ---------------------------------------------------------------------------

CATALOG = (
    "su3_t2",
    "sphere_s3",
    "wang_ziller_killing",
    "wang_ziller_q",
    "e8_t1_a3_a4",
    "e8_t1_a4_a2_a1",
    "jordan_2",
    "jordan_3",
    "jordan_product_2_2",
    "jordan_product_2_3",
    "jordan_product_3_3",
    "product_of_irreducibles_4",
)
KAEHLER_CLI = range(2, 8)


class AnalyzeCatalog:
    name = "analyze_catalog"
    # Its census runs on faces enough for the thread pool.
    threaded_census = True

    def build(self, api, seed, t=NULL):
        inputs = [_loaded(api, t, f"analyze {name}", name) for name in CATALOG]
        inputs += [Input(f"kaehler-b2 {d}", "kaehler", d=d) for d in KAEHLER_CLI]
        return _shuffled(inputs, seed)

    def run(self, api, inp, ctx):
        if inp.kind == "kaehler":
            t0 = time.perf_counter()
            try:
                code, out, err = _cli(api, ["kaehler-b2", str(inp.d)])
            except Exception as exc:  # noqa: BLE001
                return time.perf_counter() - t0, _exception_result(exc)
            return time.perf_counter() - t0, self._kaehler_result(inp, code, out, err)
        with contextlib.suppress(FileNotFoundError):
            os.remove(ctx.report_path)
        t0 = time.perf_counter()
        try:
            code, _out, err = _cli(api, ["analyze", inp.data.name, "--json", ctx.report_path])
        except Exception as exc:  # noqa: BLE001 - an undocumented raise is a failure
            return time.perf_counter() - t0, _exception_result(exc)
        return time.perf_counter() - t0, self._analyze_result(inp, ctx, code, err)

    def trace(self, api, inp, ctx, t):
        if inp.kind == "kaehler":
            # The replay is the command: polytope, volume, b2 index, census.
            try:
                with t.span("input", inp.id) as root:
                    P = t.call("polytope.hull", inp.id, api.homspace.kaehler_b2_polytope, inp.d)
                    _count_hull(t, P)
                    nu = _lattice_and_volume(t, inp.id, P)
                    _b2(api, t, inp.id, P)
                    census = _census(api, t, inp.id, P)
            except Exception as exc:  # noqa: BLE001
                return root["end"] - root["start"], _exception_result(exc)
            misses = oracle.check_kaehler(inp.d, len(P.facets), nu, census.marked_total())
            return root["end"] - root["start"], Result(OK, misses)
        with t.span("input", inp.id):
            _replay(api, t, inp)
            with _patched(
                api.cli,
                analyze=t.wrap("report.analyze", inp.id, api.cli.analyze),
                render_report=t.wrap("report.render", inp.id, api.cli.render_report),
            ):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(ctx.report_path)
                try:
                    with t.span("cli.main", inp.id) as main:
                        code, _out, err = _cli(
                            api, ["analyze", inp.data.name, "--json", ctx.report_path]
                        )
                except Exception as exc:  # noqa: BLE001
                    return main["end"] - main["start"], _exception_result(exc)
        return main["end"] - main["start"], self._analyze_result(inp, ctx, code, err)

    @staticmethod
    def _analyze_result(inp, ctx, code, err):
        status = oracle.exit_outcome(code)
        if status == FAILED:
            return Result(FAILED, reason=f"exit {code}: {err.strip()}")
        if status == REJECTED:
            return Result(status)
        with open(ctx.report_path, encoding="utf-8") as fh:
            text = fh.read()
        misses = oracle.check_report(json.loads(text)) + ctx.digests.check(inp.id, text)
        return Result(status, misses)

    @staticmethod
    def _kaehler_result(inp, code, out, err):
        if code != 0:
            return Result(FAILED, reason=f"exit {code}: {err.strip()}")
        obj = json.loads(out)
        return Result(OK, oracle.check_kaehler(inp.d, obj["facets"], obj["nu"], obj["marked_total"]))


# ---------------------------------------------------------------------------
# hull_volume
# ---------------------------------------------------------------------------

HULL_CATALOG = ("jordan_product_3_3", "jordan_product_2_3", "e8_t1_a3_a4", "e8_t1_a4_a2_a1")


class HullVolume:
    name = "hull_volume"
    threaded_census = False

    def build(self, api, seed, t=NULL):
        inputs = [Input("kaehler_b2_polytope 8", "kaehler", d=8)]
        inputs += [_loaded(api, t, f"delta_min {name}", name) for name in HULL_CATALOG]
        return _shuffled(inputs, seed)

    def run(self, api, inp, ctx):
        return self._timed(api, inp, NULL)

    def trace(self, api, inp, ctx, t):
        return self._timed(api, inp, t)

    @staticmethod
    def _timed(api, inp, t):
        t0 = time.perf_counter()
        if inp.kind == "kaehler":
            try:
                P = t.call("polytope.hull", inp.id, api.homspace.kaehler_b2_polytope, inp.d)
                faces = t.call("polytope.face_lattice", inp.id, P.all_proper_faces)
                nu = t.call("polytope.volume", inp.id, P.normalized_volume)
            except Exception as exc:  # noqa: BLE001
                return time.perf_counter() - t0, _exception_result(exc)
            elapsed = time.perf_counter() - t0
            _count_hull(t, P)
            n_faces = sum(len(fs) for fs in faces.values())
            t.count("polytope.faces", n_faces)
            t.count("polytope.nu", nu)
            got = {"vertices": len(P.vertices), "facets": len(P.facets),
                   "faces": n_faces, "nu": nu}
            misses = [] if got == oracle.KAEHLER_8 else [
                f"kaehler d=8: {got}, expected {oracle.KAEHLER_8}"]
            return elapsed, Result(OK, misses)
        try:
            dmin = _minimal_polytope(api, t, inp.id, inp.data)
            nu = _lattice_and_volume(t, inp.id, dmin)
        except Exception as exc:  # noqa: BLE001
            return time.perf_counter() - t0, _exception_result(exc)
        elapsed = time.perf_counter() - t0
        misses = oracle.check_nu_bound(inp.data.d, nu)
        expected = (inp.data.expected or {}).get("nu")
        if expected is not None and expected != nu:
            misses.append(f"nu = {nu}, expected {expected}")
        return elapsed, Result(OK, misses)


# ---------------------------------------------------------------------------
# solver_d3
# ---------------------------------------------------------------------------

class SolverD3:
    name = "solver_d3"
    # Its polytopes are too small for the census's thread pool.
    threaded_census = False

    def build(self, api, seed, t=NULL):
        inputs = []
        for i, doc in enumerate(generator.documents(seed)):
            input_id = f"random_{i:03d} (seed {seed})"
            data = t.call("homspace.load", input_id, api.homspace.parse, doc)
            inputs.append(Input(input_id, "data", data))
        return inputs

    def run(self, api, inp, ctx):
        return self._analyze(api, inp, ctx, NULL)

    def trace(self, api, inp, ctx, t):
        with t.span("input", inp.id):
            _replay(api, t, inp)
            return self._analyze(api, inp, ctx, t)

    @staticmethod
    def _analyze(api, inp, ctx, t):
        t0 = time.perf_counter()
        try:
            report, code = t.call("report.analyze", inp.id, api.report.analyze, inp.data)
            text = t.call("report.render", inp.id, api.report.render_report, report)
        except Exception as exc:  # noqa: BLE001
            return time.perf_counter() - t0, _exception_result(exc)
        elapsed = time.perf_counter() - t0
        misses = oracle.check_report(report) + ctx.digests.check(inp.id, text)
        return elapsed, Result(oracle.exit_outcome(code), misses)


WORKLOADS = {w.name: w for w in (AnalyzeCatalog(), HullVolume(), SolverD3())}
