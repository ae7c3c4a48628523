"""Independent cross-check of the bivariate torus-solution count.

Random small systems are counted twice: by the resultant/quotient-gcd
machinery and by an exact shape-position reading of a lex Groebner basis
computed with sympy.  (sympy.solve itself is not a reliable oracle: it can
silently drop quartic roots.)  A digest pins the eliminants and counts of
a larger seeded set that reaches every branch of the fiber count, and the
integer count is checked against the same fiber recursion over Q[x]/(h)
in Fraction arithmetic that counts each fiber by the derivative gcd, a
second route to the same number.  On a seeded family of documents with
rational and singular solutions, every certified real count has the
parity of the complex count.  The d = 3 count is held against Bernstein's
mixed volume of the two Newton polygons, computed with the hull and the
normalized volume.  The one-point fibers that `_fibers` reads without a
gcd, and the box scan that stops once a root's fiber is placed, are held
against the gcd route on every branch and a decision on every box, and
the box scan builds one Tarski query per fiber and y-interval it decides.
"""

import hashlib
import importlib.util
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from einpoly import solver
from einpoly.exact import (
    ZPoly,
    bivar_cols,
    isolate_real_roots,
    refine_root_interval,
    resultant,
)
from einpoly.homspace import HomSpaceData, parse
from einpoly.polytope import hull
from einpoly.solver import DegenerateSystemError, _eliminant, _fibers
from qpoly import QPoly, as_zpoly, reference_einstein_system
from qpoly import bivar_cols as fraction_bivar_cols
from test_solver import integer_system, pin_documents

X, Y = sympy.symbols("x y")


def _expr(poly):
    return sympy.Add(*[sympy.Rational(c) * X**e[0] * Y**e[1] for e, c in poly.items()])


def _shape_position_count(g1, g2):
    """Distinct torus solutions via a lex Groebner basis, or None when the
    basis is not in shape position (constant-leading x-generator plus a
    univariate in y)."""
    basis = sympy.groebner([_expr(g1), _expr(g2)], X, Y, order="lex")
    exprs = list(basis.exprs)
    if exprs == [sympy.Integer(1)]:
        return 0
    if len(exprs) != 2:
        return None
    univ = [e for e in exprs if X not in e.free_symbols]
    linear = [e for e in exprs if X in e.free_symbols]
    if len(univ) != 1 or len(linear) != 1:
        return None
    u = sympy.Poly(univ[0], Y)
    lin = sympy.Poly(linear[0], X)
    if lin.degree() != 1:
        return None
    a = lin.coeff_monomial(X)
    if a.free_symbols:
        return None  # leading coefficient depends on y: not shape position
    b = sympy.Poly(sympy.expand(a * X - linear[0]), Y)  # x = b(y) / a
    # distinct y-values: squarefree part of u, excluding y = 0
    usf = u.div(sympy.gcd(u, u.diff(Y)))[0]
    count = sympy.degree(usf, Y)
    if usf.eval(0) == 0:
        count -= 1
        usf = sympy.Poly(sympy.cancel(usf.as_expr() / Y), Y)
    # exclude solutions with x = 0: common roots of usf and b
    g = sympy.gcd(usf, b)
    drop = sympy.degree(g, Y)
    if drop:
        if g.eval(0) == 0:
            drop -= 1  # y = 0 already excluded
        count -= drop
    return int(count)


def _pair_outcome(g1, g2):
    """(q1, count, q2, count_y) as `solver._solve` computes them: both
    eliminants, then the torus count over the fibers of each order, each
    gcd taken with the other order's eliminant."""
    q1, branches = _eliminant(g1, g2, 1)
    q2, branches_y = _eliminant(g1, g2, 0)
    return q1, _fibers(branches, q2)[1], q2, _fibers(branches_y, q1)[1]


def _random_poly(rng, deg):
    poly = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            if rng.random() < 0.7:
                poly[(i, j)] = F(rng.randint(-4, 4))
    return {e: c for e, c in poly.items() if c}


def test_bivariate_count_matches_groebner_shape_oracle():
    rng = random.Random(90)
    checked = 0
    attempts = 0
    while checked < 12 and attempts < 200:
        attempts += 1
        g1 = _random_poly(rng, 2)
        g2 = _random_poly(rng, 2)
        if len(g1) < 2 or len(g2) < 2:
            continue
        try:
            _, count, _, count_y = _pair_outcome(g1, g2)
        except DegenerateSystemError:
            continue
        if count != count_y:
            continue
        expected = _shape_position_count(g1, g2)
        if expected is None:
            continue
        assert count == expected, (g1, g2, count, expected)
        checked += 1
    assert checked >= 8


def test_fiber_splitting_handles_shared_projections():
    # two solutions over the same x-coordinate: (1, 1) and (1, -1);
    # forces a genuine gcd-degree split over the eliminant root x = 1
    g1 = {(1, 1): F(1), (1, 0): F(-3), (0, 1): F(-1), (0, 0): F(3)}  # (x-1)(y-3)
    g2 = {(0, 2): F(1), (0, 0): F(-1)}  # y^2 - 1
    assert _pair_outcome(g1, g2)[1::2] == (2, 2)


def test_common_factor_detected():
    # both polynomials share the factor (x y - 1): infinitely many zeros
    g1 = {(1, 1): F(1), (0, 0): F(-1)}
    g2 = {(2, 2): F(1), (1, 1): F(-1)}
    for axis in (1, 0):
        with pytest.raises(DegenerateSystemError):
            _eliminant(g1, g2, axis)


def test_zero_fiber_root_over_part_of_the_eliminant():
    # g1 = (x-1)(x-2), g2 = y(y - x + 1): over x = 1 the only fiber root is
    # y = 0, which is not a torus point; over x = 2 it is y = 1
    g1 = {(2, 0): F(1), (1, 0): F(-3), (0, 0): F(2)}
    g2 = {(0, 2): F(1), (1, 1): F(-1), (0, 1): F(1)}
    assert _pair_outcome(g1, g2)[1::2] == (1, 1)
    # g2 = y(y - x)^2: each fiber holds y = 0 and the double root y = x
    g2 = {(0, 3): F(1), (1, 2): F(-2), (2, 1): F(1)}
    assert _pair_outcome(g1, g2)[1::2] == (2, 2)


def test_fiber_gcd_of_two_units_on_a_branch():
    # h = (x - 1)(x + 1).  Over x = 1, A = 1 + (x - 1) y and
    # B = 2 + (x - 1) y^2 are trimmed to the units 1 and 2, a pair the
    # subresultant chain rejects as constant in y: a unit is its own gcd.
    # Over x = -1 they are 1 - 2y and 2 - 2y^2, which are coprime.
    h = ZPoly([-1, 0, 1])
    A = [ZPoly([1]), ZPoly([-1, 1])]
    B = [ZPoly([2]), ZPoly(), ZPoly([-1, 1])]
    branches = solver._fiber_gcd_branches(A, B, h)
    assert sorted((hb.coeffs, len(G)) for hb, G in branches) == [((-1, 1), 1), ((1, 1), 1)]
    # one unit against a polynomial of positive degree: the unit again
    branches = solver._fiber_gcd_branches(A, [ZPoly([-1]), ZPoly([1])], ZPoly([-1, 1]))
    assert [(hb.coeffs, [c.coeffs for c in G]) for hb, G in branches] == [((-1, 1), [(1,)])]


# sha256 over the pair outcomes (q1, count, q2, count_y) or the exception on
# the systems of `_digest_systems`, generated when each order's count became
# the gcd with the other order's eliminant;
# `test_eliminant_matches_its_fraction_form` ties every eliminant to the
# monic Fraction eliminant returned before
ELIMINANT_DIGEST = "b8488fcd811fa0658abb41adf7531a06724f15414c14023ea7bdc9c72b9a21fb"


def _digest_systems():
    """200 seeded pairs of bivariate polynomials of total degree <= 3 with
    coefficients from {1, -1} or {1, 2, 4, -1, -2}: small sets make common
    factors, shared projections and zero fiber roots frequent."""
    rng = random.Random(7)
    for _ in range(200):
        coeffs = rng.choice(((1, -1), (1, 2, 4, -1, -2)))
        pair = []
        while len(pair) < 2:
            p = {(i, j): F(rng.choice(coeffs))
                 for i in range(4) for j in range(4 - i) if rng.random() < 0.3}
            if len(p) >= 2:
                pair.append(p)
        yield pair


def _zero_root_over_part(g1, g2, axis, h):
    """Whether the eliminated variable is 0 at a common root over some, but
    not all, roots of h: 0 < deg gcd(g1|0, g2|0, h) < deg h."""
    z = bivar_cols(g1, axis)[0].gcd(bivar_cols(g2, axis)[0]).gcd(h)
    return 0 < z.degree < h.degree


def test_eliminant_digest_over_random_systems(monkeypatch):
    splits = []
    trim = solver._trim

    def counted(A, h):
        branches = trim(A, h)
        splits.append(len(branches) > 1)
        return branches

    monkeypatch.setattr(solver, "_trim", counted)
    digest = hashlib.sha256()
    degenerate = partial = 0
    for g1, g2 in _digest_systems():
        try:
            outcome = _pair_outcome(g1, g2)
        except ValueError as exc:
            degenerate += isinstance(exc, DegenerateSystemError)
            digest.update(repr(exc).encode() + b"\n")
            continue
        digest.update(repr(outcome).encode() + b"\n")
        for axis, h in ((1, outcome[0]), (0, outcome[2])):
            partial += h.degree > 0 and _zero_root_over_part(g1, g2, axis, h)
    assert any(splits)
    assert partial
    assert degenerate
    assert digest.hexdigest() == ELIMINANT_DIGEST


def _fraction_eliminant(g1, g2, axis):
    """`_eliminant` as it was when it returned a Fraction eliminant: the
    resultant with its x power stripped, made squarefree (p / gcd(p, p')
    by Euclid over Q) and monic at positive degree, the raw constant
    otherwise; the gcd branches through the same integer fiber recursion."""
    A, B = bivar_cols(g1, axis), bivar_cols(g2, axis)
    if len(A) == 1 and len(B) == 1:
        if A[0].gcd(B[0]).degree > 0:
            raise DegenerateSystemError("common factor present")
        return QPoly.const(1), []
    r = resultant(A, B)
    if not r:
        raise DegenerateSystemError("resultant vanished; common factor present")
    _, h = QPoly(r.coeffs).strip_x_power()
    if h.degree <= 0:
        return h, []
    h = h.squarefree()
    return h, solver._fiber_gcd_branches(A, B, as_zpoly(h).primitive())


def test_eliminant_matches_its_fraction_form():
    outcomes = []
    for g1, g2 in list(_digest_systems()) + list(_rational_systems()):
        for axis in (1, 0):
            try:
                h, branches = _fraction_eliminant(g1, g2, axis)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    _eliminant(g1, g2, axis)
                assert repr(got.value) == repr(exc)
                outcomes.append("exception")
                continue
            H, got_branches = _eliminant(g1, g2, axis)
            assert H.degree == h.degree and repr(got_branches) == repr(branches)
            if H.degree > 0:
                assert QPoly(H.coeffs).monic() == h
            outcomes.append(H.degree > 0)
    assert len(outcomes) == 600
    assert {"exception", True, False} <= set(outcomes)


# ---------------------------------------------------------------------------
# the fiber recursion over Q[x]/(h), in Fraction arithmetic: modular
# inverses and monic moduli, as the count was computed before it moved to
# pseudo-remainders over Z[x] and to the gcd with the other eliminant
# ---------------------------------------------------------------------------

def _fraction_mod(p, h):
    return p.divmod(h)[1]


def _fraction_inverse_mod(c, h):
    r0, r1 = c, h
    s0, s1 = QPoly.const(1), QPoly()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0
    return _fraction_mod(s0 * (F(1) / r0.coeffs[0]), h)


def _fraction_trim(A, h):
    A = [_fraction_mod(c, h) for c in A]
    while A and A[-1].is_zero():
        A.pop()
    if not A:
        return [(h, A)]
    g = A[-1].gcd(h)
    if g.degree == 0:
        return [(h, A)]
    return _fraction_trim(A, (h // g).monic()) + _fraction_trim(A, g)


def _fraction_poly_mod(A, B, h):
    inv = _fraction_inverse_mod(B[-1], h)
    rem = [_fraction_mod(c, h) for c in A]
    db = len(B) - 1
    while len(rem) - 1 >= db:
        while rem and rem[-1].is_zero():
            rem.pop()
        if len(rem) - 1 < db:
            break
        factor = _fraction_mod(rem[-1] * inv, h)
        shift = len(rem) - 1 - db
        for i, c in enumerate(B):
            rem[shift + i] = _fraction_mod(rem[shift + i] - factor * c, h)
        rem.pop()
    while rem and rem[-1].is_zero():
        rem.pop()
    return rem


def _fraction_fiber_gcd_branches(A, B, h):
    out = []
    for ha, A1 in _fraction_trim(A, h):
        for hb, B1 in _fraction_trim(B, ha):
            if A1 and B1:
                a, b = (B1, A1) if len(A1) < len(B1) else (A1, B1)
                out += _fraction_fiber_gcd_branches(b, _fraction_poly_mod(a, b, hb), hb)
            elif A1 or B1:
                out.append((hb, A1 or B1))
            else:
                raise DegenerateSystemError("both polynomials vanish on a whole branch")
    return out


def _fraction_torus_roots(G, h):
    """Distinct nonzero y-roots of G(a, y), summed over the roots a of the
    squarefree h, for lead(G) invertible mod h, by the derivative gcd:
    G(a, y) has the same degree k at every a, its distinct roots number the
    sum of deg(hb) * (k - deg D) over the branches (hb, D) of gcd(G, dG/dy),
    and deg gcd(G(x, 0), h) of the roots a have G(a, 0) = 0."""
    k = len(G) - 1
    deriv = [G[i] * i for i in range(1, k + 1)]
    branches = _fraction_fiber_gcd_branches(G, deriv, h)
    return sum(hb.degree * (k - (len(D) - 1)) for hb, D in branches) - G[0].gcd(h).degree


def _fraction_count(g1, g2, axis):
    """The torus count of one elimination order through the Fraction
    recursion and the derivative gcd, on the Fraction columns of g1, g2,
    without the other order's eliminant."""
    r = resultant(bivar_cols(g1, axis), bivar_cols(g2, axis))
    if not r:
        raise DegenerateSystemError("resultant vanished")
    _, h = QPoly(r.coeffs).strip_x_power()
    if h.degree <= 0:
        return 0
    h = h.squarefree()
    return sum(_fraction_torus_roots(G, hb) for hb, G in _fraction_fiber_gcd_branches(
        fraction_bivar_cols(g1, axis), fraction_bivar_cols(g2, axis), h))


def _rational_systems():
    """100 seeded pairs of total degree <= 3 with rational coefficients."""
    rng = random.Random(11)
    for _ in range(100):
        pair = []
        while len(pair) < 2:
            p = {(i, j): F(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 1, 2, 3)))
                 for i in range(4) for j in range(4 - i) if rng.random() < 0.35}
            if len(p) >= 2:
                pair.append(p)
        yield pair


def test_integer_fiber_count_matches_the_fraction_recursion():
    compared = 0
    for g1, g2 in list(_digest_systems()) + list(_rational_systems()):
        try:
            _, count, _, count_y = _pair_outcome(g1, g2)
        except DegenerateSystemError:
            for axis in (1, 0):
                try:
                    _eliminant(g1, g2, axis)
                except DegenerateSystemError:
                    with pytest.raises(DegenerateSystemError):
                        _fraction_count(g1, g2, axis)
            continue
        for axis, n in ((1, count), (0, count_y)):
            if len(bivar_cols(g1, axis)) == len(bivar_cols(g2, axis)) == 1:
                assert n == 0
                continue
            assert n == _fraction_count(g1, g2, axis), (g1, g2, axis)
            compared += 1
    assert compared > 500


# ---------------------------------------------------------------------------
# parity of the real count
# ---------------------------------------------------------------------------


def _degenerate_family(n):
    """d = 3 documents with small dimensions, small b and constants in
    {1/4, 1/2, 1, 2}: rational and singular solutions are common."""
    rng = random.Random(7)
    keys = [k for k in combinations_with_replacement((1, 2, 3), 3) if len(set(k)) > 1]
    for i in range(n):
        dims = tuple(rng.randint(1, 4) for _ in range(3))
        b = tuple(F(rng.choice((0, 1, 2, 4))) for _ in range(3))
        triples = {k: F(rng.choice((F(1, 4), F(1, 2), 1, 2)))
                   for k in rng.sample(keys, rng.randint(1, 4))}
        yield HomSpaceData(name=f"family_{i}", d=3, dims=dims, b=b, triples=triples)


def test_real_count_has_the_parity_of_the_complex_count():
    # the complex solutions of a rational system come in conjugate pairs, so
    # a certified real count differs from the complex count by an even number
    for data in _degenerate_family(300):
        sol = solver.real_positive(data)
        assert not any(w.startswith("cluster separation failure") for w in sol.warnings), data
        assert (sol.distinct_complex - sol.real_count) % 2 == 0, data


# ---------------------------------------------------------------------------
# Bernstein's bound on the d = 3 count
# ---------------------------------------------------------------------------


def _mixed_volume(g1, g2):
    """MV(N(g1), N(g2)) = (nu(A + B) - nu(A) - nu(B)) / 2, each exponent
    (i, j) placed at (i, j, 1 - i - j), where `normalized_volume` is twice
    the area."""
    def nu(points):
        return hull([(i, j, 1 - i - j) for i, j in points]).normalized_volume()

    twice = nu([(i + k, j + l) for i, j in g1 for k, l in g2]) - nu(g1) - nu(g2)
    assert twice % 2 == 0
    return twice // 2


def _initial_system_has_torus_root(g1, g2):
    """Whether some edge-initial system (in_w g1, in_w g2), w != 0, has a
    zero in the torus.  Only w normal to an edge of both polygons can give
    one.  On an edge of primitive direction v each initial form is a
    monomial times a polynomial in t = x^v with a nonzero constant term, and
    x^v takes every nonzero value: a root is a gcd of positive degree."""
    normals = set()
    for g in (g1, g2):
        for a, b in combinations(g, 2):
            u, v = b[0] - a[0], b[1] - a[1]
            k = gcd(u, v)
            normals |= {(-v // k, u // k), (v // k, -u // k)}
    for w in normals:
        faces = []
        for g in (g1, g2):
            low = min(w[0] * e[0] + w[1] * e[1] for e in g)
            faces.append([e for e in g if w[0] * e[0] + w[1] * e[1] == low])
        if min(map(len, faces)) < 2:
            continue
        v = (-w[1], w[0])
        polys = []
        for g, face in zip((g1, g2), faces):
            e0 = min(face, key=lambda e: v[0] * e[0] + v[1] * e[1])
            steps = {e: (v[0] * (e[0] - e0[0]) + v[1] * (e[1] - e0[1])) // (v[0]**2 + v[1]**2)
                     for e in face}
            polys.append(sympy.Poly(sum(sympy.Rational(g[e]) * X**steps[e] for e in face), X))
        if sympy.gcd(*polys).degree() > 0:
            return True
    return False


def _squarefree(g):
    return all(m == 1 for _, m in sympy.sqf_list(_expr(g))[1])


def test_d3_count_against_the_mixed_volume():
    # Bernstein (1975): with finitely many torus solutions their number,
    # counted with multiplicity, is MV(N(g1), N(g2)) when no edge-initial
    # system has a torus root and below it otherwise.  In these pinned
    # documents a repeated root lies on a squared factor of g1 or g2, so the
    # distinct count is MV wherever neither happens.
    seen = Counter()
    for data in [d for d in pin_documents() if d.d == 3] + list(_degenerate_family(300)):
        g1, g2 = integer_system(data)
        count = solver.count_complex(data).distinct_complex
        mv = _mixed_volume(g1, g2)
        if _initial_system_has_torus_root(g1, g2):
            assert count < mv, data
            seen["initial root"] += 1
        elif count == mv:
            seen["equal"] += 1
        else:
            assert count < mv and not (_squarefree(g1) and _squarefree(g2)), data
            seen["squared factor"] += 1
    assert seen == {"equal": 303, "initial root": 16, "squared factor": 1}


_CONSTANT = st.builds(F, st.integers(1, 9), st.integers(1, 9))


@st.composite
def _generic_d3_documents(draw):
    """d = 3 documents with dimensions in 1..8 and constants p/q, p and q
    in 1..9, some Killing coefficients 0."""
    keys = [k for k in combinations_with_replacement((1, 2, 3), 3) if len(set(k)) > 1]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    return HomSpaceData(
        name="generic", d=3, dims=tuple(draw(st.lists(st.integers(1, 8), min_size=3, max_size=3))),
        b=tuple(draw(st.lists(st.one_of(st.just(F(0)), _CONSTANT), min_size=3, max_size=3))),
        triples={k: draw(_CONSTANT) for k in chosen},
    )


@given(_generic_d3_documents())
@settings(max_examples=60, deadline=None)
def test_d3_count_is_at_most_the_mixed_volume(data):
    g1, g2 = integer_system(data)
    try:
        count = solver.count_complex(data).distinct_complex
    except DegenerateSystemError:
        return
    mv = _mixed_volume(g1, g2)
    assert count <= mv
    if _initial_system_has_torus_root(g1, g2):
        assert count < mv


# ---------------------------------------------------------------------------
# one-point fibers and the box scan against the gcd route and all pairs
# ---------------------------------------------------------------------------


def _d3_eliminations():
    """(data, q1, branches, q2, branches_y) of the d = 3 pinned documents
    and the degenerate family, those without a common factor."""
    for data in [d for d in pin_documents() if d.d == 3] + list(_degenerate_family(300)):
        g1, g2 = integer_system(data)
        try:
            q1, branches = _eliminant(g1, g2, 1)
            q2, branches_y = _eliminant(g1, g2, 0)
        except DegenerateSystemError:
            continue
        yield data, q1, branches, q2, branches_y


def _gcd_route_fibers(branches, q):
    """`_fibers` with the gcd of every branch's G and q, as it was before
    one-point fibers were read directly."""
    Q = [ZPoly([c]) for c in q.coeffs]
    fibers = [fiber for h, G in branches for fiber in solver._fiber_gcd_branches(G, Q, h)]
    return fibers, sum(h.degree * (len(S) - 1) for h, S in fibers)


def _exact_entry(system, x) -> dict:
    """A rational solution x, checked on the Laurent system."""
    assert all(f.eval(list(x) + [F(1)]) == 0 for f in system)
    return {"x": [str(v) for v in x], "exact": True, "residual": "0"}


def _box_entry(ibox) -> dict:
    """A solution box, one isolating interval (a, b, D) per coordinate."""
    return {
        "box": [[str(F(a, d)), str(F(b, d))] for a, b, d in ibox],
        "exact": False,
    }


def _all_pairs_certificate(q1, q2, fibers, system):
    """The real and positive counts and solutions of `_real_d3` and
    `_record_real` with one `_holds_solution` decision on every pair of
    isolating intervals, and entries built here."""
    out = solver.SolutionSet(3, 0, real_count=0, positive_count=0)
    iso1 = isolate_real_roots(q1)
    iso2 = isolate_real_roots(q2)
    for i1 in iso1:
        for i2 in iso2:
            if not solver._holds_solution(*solver._fiber_at(fibers, i1), i1, i2, {}):
                continue
            out.real_count += 1
            out.positive_count += i1[0] >= 0 and i2[0] >= 0
            r1 = solver._rational_root_in(q1, i1)
            r2 = None if r1 is None else solver._rational_root_in(q2, i2)
            if r2 is not None:
                out.solutions.append(_exact_entry(system, (r1, r2)))
            else:
                box = (refine_root_interval(q1, i1, solver._BOX_WIDTH),
                       refine_root_interval(q2, i2, solver._BOX_WIDTH))
                out.solutions.append(_box_entry(box))
    return out


def test_one_point_fibers_match_the_gcd_route():
    seen = Counter()
    for data, q1, branches, q2, branches_y in _d3_eliminations():
        fibers, count = _fibers(branches, q2)
        ref_fibers, ref_count = _gcd_route_fibers(branches, q2)
        generic = count == _fibers(branches_y, q1)[1]
        assert (count, generic) == (ref_count, ref_count == _gcd_route_fibers(branches_y, q1)[1])
        for h, G in branches + branches_y:
            seen[min(len(G) - 1, 2)] += 1
            # a one-point fiber whose zero has y = 0 over part of h
            seen["y = 0"] += len(G) == 2 and any(not G0 for _, G0 in solver._trim(G[:1], h))
    # deg_y G = 0, 1 and 2 or more all occur
    assert seen[0] and seen[1] and seen[2] and seen["y = 0"]


def test_box_scan_matches_the_all_pairs_reference():
    compared = 0
    for data, q1, branches, q2, _ in _d3_eliminations():
        fibers, count = _fibers(branches, q2)
        got = solver.SolutionSet(3, count)
        # the solver checks an exact point on its integer system, the
        # reference on the Laurent system
        solver._record_real(got, solver._real_d3(q1, q2, fibers), integer_system(data))
        ref = _all_pairs_certificate(q1, q2, _gcd_route_fibers(branches, q2)[0],
                                     reference_einstein_system(data))
        assert (got.real_count, got.positive_count, got.solutions) == (
            ref.real_count, ref.positive_count, ref.solutions), data.name
        compared += got.real_count > 0
    assert compared > 50


def test_box_scan_skips_decisions(monkeypatch):
    # The scan over a root a stops once deg_y S solutions are placed, and a
    # one-point fiber's last interval needs no test: with one real root of
    # q2 and one-point fibers only, no box is tested at all.
    calls = []
    holds = solver._holds_solution

    def counted(*args):
        calls.append(args)
        return holds(*args)

    monkeypatch.setattr(solver, "_holds_solution", counted)
    pairs = total = silent = 0
    for data, q1, branches, q2, _ in _d3_eliminations():
        before = len(calls)
        solver.real_positive(data)
        r1, r2 = len(isolate_real_roots(q1)), len(isolate_real_roots(q2))
        pairs += r1 * r2
        total += len(calls) - before
        fibers, _ = _fibers(branches, q2)
        if r1 and r2 == 1 and all(len(S) <= 2 for _, S in fibers):
            assert len(calls) == before, data.name
            silent += 1
    assert 0 < total < pairs
    assert silent


def solver_d3_documents(seed):
    """The d <= 3 documents of the benchmark's solver_d3 workload for a
    seed, from perfbench/generator.py, those that parse."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generator.py"
    spec = importlib.util.spec_from_file_location("solver_d3_generator", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = []
    for doc in generator.documents(seed):
        try:
            out.append(parse(doc))
        except ValueError:
            continue
    return out


def test_one_tarski_query_per_fiber_and_y_interval(monkeypatch):
    # Over one real_positive, one Tarski query (one Sturm-Tarski chain) is
    # built per distinct pair of a fiber, named by its branch h, and an
    # isolating interval of q2 that a box decision reads; over the seed-1
    # documents of the solver_d3 benchmark that is fewer than the decisions
    calls, queries = [], []
    holds, query = solver._holds_solution, solver.tarski_query

    def counted_holds(*args):
        calls.append((args[0].coeffs, args[3]))
        return holds(*args)

    def counted_query(*args):
        queries.append(args)
        return query(*args)

    monkeypatch.setattr(solver, "_holds_solution", counted_holds)
    monkeypatch.setattr(solver, "tarski_query", counted_query)
    for data in solver_d3_documents(1):
        if data.d != 3:
            continue
        before = len(calls), len(queries)
        try:
            solver.real_positive(data)
        except DegenerateSystemError:
            continue
        assert len(queries) - before[1] == len(set(calls[before[0]:])), data.name
    assert 0 < len(queries) < len(calls)
