"""Solution counting, certification, and the bounds block of the report."""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import lcm, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einpoly.curvature import scalar_curvature
from einpoly.exact import (
    ZPoly,
    common_denominator,
    isolate_real_roots,
    refine_root_interval,
    zpoly,
)
from einpoly.homspace import (
    HomSpaceData,
    jordan_space,
    load_catalog,
    parse,
    product_of_irreducibles,
)
from einpoly.report import analyze
from einpoly.solver import (
    DegenerateSystemError,
    SolutionSet,
    UnsupportedDimensionError,
    _eliminant,
    _fiber_at,
    _fibers,
    _holds_solution,
    _integer_system,
    _rational_root_in,
    _real_d3,
    _record_real,
    common_torus_zero,
    count_complex,
    delannoy,
    legendre_at_3,
    real_positive,
)
from qpoly import QPoly, as_zpoly, dehomogenize, reference_einstein_system, surd_sign
from test_infinity import spectral_documents


def wang_ziller_shape(b1, b2, t1, t2, name="wz_shape"):
    return HomSpaceData(
        name=name, d=3, dims=(2, 2, 1), b=(F(b1), F(b2), F(0)),
        triples={(1, 1, 3): F(t1), (2, 2, 3): F(t2)},
        bracket_meets_h=frozenset({(1, 1), (2, 2)}),
        h_nontrivial=frozenset({1, 2}),
        central=frozenset({3}),
        complement="killing_orthogonal",
    )


# ---------------------------------------------------------------------------
# combinatorial sequences
# ---------------------------------------------------------------------------


def test_delannoy_series():
    assert [delannoy(n) for n in range(6)] == [1, 3, 13, 63, 321, 1683]


def test_delannoy_equals_legendre_at_three():
    for n in range(13):
        assert delannoy(n) == legendre_at_3(n)


def test_delannoy_one_by_one_grid():
    assert delannoy(1) == 3


# ---------------------------------------------------------------------------
# the integer system
# ---------------------------------------------------------------------------


def integer_system(data):
    return _integer_system(data, scalar_curvature(data))


def test_dehomogenize_product_case_linear():
    data = product_of_irreducibles(2)
    polys = integer_system(data)
    assert len(polys) == 1
    assert set(polys[0]) <= {(0,), (1,)}


def test_dehomogenize_bivariate(su3_t2):
    polys = integer_system(su3_t2)
    assert len(polys) == 2
    assert all(len(next(iter(p))) == 2 for p in polys)


def test_clearing_preserves_torus_zeros(su3_t2):
    rng = random.Random(6)
    system = reference_einstein_system(su3_t2)
    polys = integer_system(su3_t2)
    for _ in range(20):
        x = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
        full = [f.eval(list(x) + [F(1)]) for f in system]
        cleared = []
        for p in polys:
            acc = F(0)
            for e, c in p.items():
                acc += c * x[0] ** e[0] * x[1] ** e[1]
            cleared.append(acc)
        for a, b in zip(full, cleared):
            assert (a == 0) == (b == 0)


def check_integer_system(data):
    """The solver's integer system is the Einstein system by its
    definition, dehomogenized, times one positive factor per equation, or
    it raises on a zero equation."""
    expected = dehomogenize(reference_einstein_system(data))
    if not all(expected):
        with pytest.raises(DegenerateSystemError, match="^zero polynomial after clearing$"):
            integer_system(data)
        return
    got = integer_system(data)
    assert len(got) == len(expected) == data.d - 1
    for f, g in zip(got, expected):
        assert set(f) == set(g) and all(isinstance(c, int) for c in f.values())
        ratios = {F(c, 1) / g[e] for e, c in f.items()}
        assert len(ratios) == 1 and ratios.pop() > 0


# the catalog entries with d <= 3
@pytest.mark.parametrize("name", ["su3_t2", "sphere_s3", "wang_ziller_killing", "wang_ziller_q",
                                  "jordan_2", "product_of_irreducibles_2",
                                  "product_of_irreducibles_3"])
def test_integer_system_matches_the_fraction_route_on_catalog(name):
    check_integer_system(load_catalog(name))


@given(spectral_documents())
@settings(max_examples=150, deadline=None)
def test_integer_system_matches_the_fraction_route_on_drawn_data(data):
    check_integer_system(data)


def test_integer_system_of_a_zero_curvature_raises_like_the_fraction_route():
    # no triples and every b_i = 0: s is zero, and so is every equation
    data = HomSpaceData(name="zero_s", d=3, dims=(1, 2, 3), b=(F(0),) * 3, triples={})
    with pytest.raises(DegenerateSystemError, match="^zero polynomial after clearing$"):
        integer_system(data)
    check_integer_system(data)


# ---------------------------------------------------------------------------
# complex counts
# ---------------------------------------------------------------------------


def test_product_d2_has_one_solution():
    sol = count_complex(product_of_irreducibles(2))
    assert sol.distinct_complex == 1


def test_wang_ziller_shape_has_three_solutions():
    rng = random.Random(17)
    for _ in range(5):
        data = wang_ziller_shape(
            F(rng.randint(1, 30), rng.randint(1, 9)),
            F(rng.randint(1, 30), rng.randint(1, 9)),
            F(rng.randint(1, 30), rng.randint(1, 9)),
            F(rng.randint(1, 30), rng.randint(1, 9)),
        )
        assert count_complex(data).distinct_complex == 3


def test_su3_t2_counts(su3_t2):
    sol = real_positive(su3_t2)
    assert sol.distinct_complex == 4
    assert sol.real_count == 4
    assert sol.positive_count == 4
    exact_points = sorted(tuple(s["x"]) for s in sol.solutions if s["exact"])
    assert exact_points == [("1", "1"), ("1", "2"), ("1/2", "1/2"), ("2", "1")]
    assert all(s["residual"] == "0" for s in sol.solutions if s["exact"])


def test_jordan_2_single_solution():
    assert count_complex(jordan_space(2)).distinct_complex == 1


def test_unsupported_dimension_raises(e8_d5):
    with pytest.raises(UnsupportedDimensionError):
        count_complex(e8_d5)


def test_counts_scale_invariant(su3_t2, wang_ziller_killing):
    for data in (su3_t2, wang_ziller_killing):
        scaled = HomSpaceData(
            name=data.name + "_scaled",
            d=data.d,
            dims=data.dims,
            b=tuple(F(7, 3) * v for v in data.b),
            triples={k: F(7, 3) * v for k, v in data.triples.items()},
            bracket_meets_h=data.bracket_meets_h,
            h_nontrivial=data.h_nontrivial,
            central=data.central,
            complement=data.complement,
        )
        assert count_complex(scaled).distinct_complex == count_complex(data).distinct_complex


def test_counts_stable_under_small_perturbation():
    rng = random.Random(23)
    base = wang_ziller_shape(4, 4, 2, 2)
    expected = count_complex(base).distinct_complex
    for _ in range(6):
        eps = [F(rng.randint(-1, 1), rng.randint(50, 99)) for _ in range(4)]
        data = wang_ziller_shape(4 + eps[0], 4 + eps[1], 2 + eps[2], 2 + eps[3])
        assert count_complex(data).distinct_complex == expected == 3


# ---------------------------------------------------------------------------
# real and positive counts
# ---------------------------------------------------------------------------


def test_product_d2_real_positive():
    sol = real_positive(product_of_irreducibles(2))
    assert sol.real_count == 1 and sol.positive_count == 1
    assert sol.solutions[0]["exact"] and sol.solutions[0]["residual"] == "0"


def test_instance_without_real_roots():
    # an eliminant with a complex-conjugate pair only
    data = HomSpaceData(
        name="noreal", d=2, dims=(1, 1), b=(F(10), F(2)),
        triples={(1, 2, 2): F(4)},
    )
    sol = real_positive(data)
    assert sol.real_count == 0
    assert sol.positive_count == 0


def test_wang_ziller_catalog_positive_solutions(wang_ziller_killing):
    sol = real_positive(wang_ziller_killing)
    assert sol.distinct_complex == 3
    # for this parameter choice two of the three solutions are complex
    # (the eliminant has a single real root, certified by Sturm)
    assert sol.real_count == 1
    assert sol.positive_count == 1
    assert sol.solutions[0]["x"] == ["3/4", "3/4"]


def test_jordan_2_solution_on_an_interval_endpoint_is_exact():
    # the one solution (1, 1) is the right end of both isolating intervals,
    # where the fiber gcd vanishes instead of changing sign
    sol = real_positive(jordan_space(2))
    assert (sol.distinct_complex, sol.real_count, sol.positive_count) == (1, 1, 1)
    assert sol.solutions == [{"x": ["1", "1"], "exact": True, "residual": "0"}]
    assert not sol.warnings


def test_rational_solution_is_decided_exactly():
    # g1 = xy/4 - 1/2, g2 = (1 - y)/2: the single solution (2, 1)
    data = HomSpaceData(name="rational", d=3, dims=(4, 1, 2), b=(F(1), F(1), F(1)),
                        triples={(2, 3, 3): F(1)})
    sol = real_positive(data)
    assert (sol.distinct_complex, sol.real_count, sol.positive_count) == (1, 1, 1)
    assert sol.solutions == [{"x": ["2", "1"], "exact": True, "residual": "0"}]
    assert not sol.warnings


def test_one_rational_coordinate_is_decided_exactly():
    # the solutions (+-sqrt(6)/2, -3) share the rational y = -3: neither
    # is positive, and each is reported as a box
    data = HomSpaceData(name="half_rational", d=3, dims=(2, 2, 2), b=(F(0), F(1), F(0)),
                        triples={(1, 1, 3): F(1)})
    sol = real_positive(data)
    assert (sol.real_count, sol.positive_count) == (2, 0)
    assert not sol.warnings
    for s, sign in zip(sol.solutions, (-1, 1)):
        (xlo, xhi), (ylo, yhi) = ([F(v) for v in iv] for iv in s["box"])
        assert not s["exact"] and ylo <= -3 <= yhi
        # sign * x lies in [lo, hi], and (sqrt(6)/2)^2 = 3/2
        lo, hi = sorted((sign * xlo, sign * xhi))
        assert 0 < lo and lo**2 <= F(3, 2) <= hi**2


def solve_cleared(g1, g2) -> SolutionSet:
    """The d = 3 steps of `_solve` on a cleared pair g1, g2, certified
    with no Laurent system to check exact entries on."""
    q1, branches = _eliminant(g1, g2, 1)
    q2, branches_y = _eliminant(g1, g2, 0)
    fibers, count = _fibers(branches, q2)
    sol = SolutionSet(3, count, genericity=count == _fibers(branches_y, q1)[1])
    _record_real(sol, _real_d3(q1, q2, fibers), [])
    return sol


def test_singular_irrational_solutions_are_left_as_clusters():
    # The id is kept from when such boxes ended in a "cluster separation
    # failure" with no solution counted.  g1 = x^2 - 2, g2 = (y - x)^2: the
    # solutions (+-sqrt 2, +-sqrt 2) are singular and irrational, and the
    # fiber gcd y - x over x^2 - 2 decides every box exactly.
    g1 = {(2, 0): F(1), (0, 0): F(-2)}
    g2 = {(0, 2): F(1), (1, 1): F(-2), (2, 0): F(1)}
    sol = solve_cleared(g1, g2)
    assert sol.distinct_complex == 2 and sol.genericity
    assert (sol.real_count, sol.positive_count) == (2, 1)
    assert not sol.warnings
    for s, sign in zip(sol.solutions, (-1, 1)):
        assert not s["exact"]
        for lo, hi in s["box"]:
            lo, hi = sorted((sign * F(lo), sign * F(hi)))
            assert 0 < lo and lo**2 <= 2 <= hi**2


def planted_system(roots, surds, c, e, m):
    """g1 = p(x) + x L and g2 = L^m, L = y - c x - e, p with the distinct
    rational roots and the factors x^2 - s: the solutions are (a, c a + e)
    over the roots a of p, singular for m = 2."""
    p = QPoly.from_roots(roots)
    for s in surds:
        p = p * QPoly([-s, 0, 1])
    line = {(0, 1): F(1), (1, 0): -c, (0, 0): -e}
    g1 = {(i, 0): a for i, a in enumerate(p.coeffs) if a}
    for (i, j), a in line.items():
        g1[(i + 1, j)] = g1.get((i + 1, j), F(0)) + a
    g2 = {(0, 0): F(1)}
    for _ in range(m):
        prod_ = {}
        for (i, j), a in g2.items():
            for (k, l), b in line.items():
                prod_[(i + k, j + l)] = prod_.get((i + k, j + l), F(0)) + a * b
        g2 = prod_
    return ({k: v for k, v in g1.items() if v}, {k: v for k, v in g2.items() if v})


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                min_size=0, max_size=3, unique=True),
       st.lists(st.sampled_from([2, 3, 5]), max_size=2, unique=True),
       st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)]),
       st.sampled_from([F(0), F(1), F(-1), F(3, 2)]),
       st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_planted_systems_count_every_real_and_positive_solution(roots, surds, c, e, m):
    if not roots and not surds:
        roots = [F(1)]
    g1, g2 = planted_system(roots, surds, c, e, m)
    # a root a = u + v sqrt(s) as (u, v, s), and the signs of a and c a + e
    xs = [(r, F(0), 2) for r in roots] + [(F(0), F(side), s) for s in surds for side in (1, -1)]
    signs = [(surd_sign(u, v, s), surd_sign(c * u + e, c * v, s)) for u, v, s in xs]
    torus = [(sx, sy) for sx, sy in signs if sx and sy]
    sol = solve_cleared(g1, g2)
    assert sol.distinct_complex == len(torus) and sol.genericity
    assert sol.real_count == len(torus)
    assert sol.positive_count == sum(sx > 0 and sy > 0 for sx, sy in torus)
    assert not sol.warnings


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                min_size=1, max_size=4, unique=True),
       st.sampled_from([None, 2, 3, 5]),
       st.booleans(),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=80, deadline=None)
def test_positive_matches_the_sign_of_the_root(roots, surd, flip, bits):
    roots = [r for r in roots if r != 0]
    p = QPoly.from_roots(roots) * QPoly([-1 if flip else 1])
    negative = sum(r < 0 for r in roots)
    if surd is not None:
        p = p * QPoly([-surd, 0, 1])
        negative += 1
    z = as_zpoly(p)
    if z.degree < 1:
        return
    # the i-th interval holds the i-th smallest real root, and lies on one
    # side of 0, so its root is positive iff its left end is >= 0
    for i, interval in enumerate(isolate_real_roots(z)):
        for iv in (interval, refine_root_interval(z, interval, F(1, 2**bits))):
            assert (iv[0] >= 0) == (i >= negative)
            assert iv[0] * iv[1] >= 0


def test_counts_never_exceed_complex(su3_t2):
    for data in (su3_t2, product_of_irreducibles(2), jordan_space(2)):
        sol = real_positive(data)
        assert sol.positive_count <= sol.real_count <= sol.distinct_complex


# ---------------------------------------------------------------------------
# bounds block of the report
# ---------------------------------------------------------------------------


def bounds(data, solve=True):
    """The bounds block of the analysis report."""
    return analyze(data, solve=solve)[0]["bounds"]


def test_bound_report_e8_d5(e8_d5):
    br = bounds(e8_d5)
    assert br["nu"] == 82
    assert br["epsilon_computed"] is None
    assert br["epsilon_annotation"] == 81
    assert br["escaped_to_infinity"] == 1
    assert br["verdicts"]["epsilon_le_nu"] is True


def test_bound_report_jordan_3():
    br = bounds(jordan_space(3), solve=False)
    assert br["nu"] == 23
    assert br["t_size"] == 4
    assert br["epsilon_annotation"] == 19


def test_kaehler_d4_nu_below_a_third_of_delannoy():
    # nu = 20 for the d = 4 family polytope; 20 < 63/3 = 21
    from einpoly.homspace import kaehler_b2_polytope

    nu = kaehler_b2_polytope(4).normalized_volume()
    assert nu == 20
    assert nu < F(delannoy(3), 3)


def test_bound_report_inequalities_on_catalog():
    for name in ("su3_t2", "wang_ziller_killing", "wang_ziller_q", "sphere_s3",
                  "e8_t1_a3_a4", "e8_t1_a4_a2_a1"):
        report = analyze(load_catalog(name))[0]
        br = report["bounds"]
        assert br["nu"] <= br["delannoy_bound"] < br["six_power"]
        assert br["verdicts"]["nu_le_delannoy"] and br["verdicts"]["delannoy_lt_six_power"]
        if br["epsilon_computed"] is not None:
            assert br["epsilon_computed"] == report["solver"]["distinct_complex"]
            assert br["epsilon_computed"] <= br["nu"]


def test_bound_report_of_a_degenerate_system_has_no_solver_count():
    # wb has a positive-dimensional solution set: analyze leaves
    # epsilon_computed empty instead of raising
    data = parse(json.dumps({
        "schema": "homspace/v1", "name": "wb", "d": 3, "dims": [2, 3, 2],
        "b": ["0", "0", "0"], "triples": [{"ijk": [1, 2, 3], "value": "1"},
                                          {"ijk": [1, 1, 2], "value": "1"},
                                          {"ijk": [2, 3, 3], "value": "1"}],
    }))
    with pytest.raises(DegenerateSystemError):
        count_complex(data)
    br = bounds(data)
    assert br["epsilon_computed"] is None
    assert br == bounds(data, solve=False)


# ---------------------------------------------------------------------------
# certification bytes
# ---------------------------------------------------------------------------


def pin_documents(seed: int = 0, n: int = 30) -> list:
    """Random d = 2 and d = 3 documents: 40% with dimensions in {1, 2, 4}
    and constants in {1, 2}, which often have rational solutions, the rest
    with generic constants p/q, p and q in 1..9."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        d = rng.choice((2, 3, 3))
        if rng.random() < 0.4:
            dims = [rng.choice((1, 2, 4)) for _ in range(d)]
            def const():
                return F(rng.choice((1, 2)))
        else:
            dims = [rng.randint(1, 8) for _ in range(d)]
            def const():
                return F(rng.randint(1, 9), rng.randint(1, 9))
        keys = [k for k in combinations_with_replacement(range(1, d + 1), 3)
                if len(set(k)) > 1]
        chosen = rng.sample(keys, rng.randint(1, 2))
        out.append(HomSpaceData(
            name=f"pin_{i}", d=d, dims=tuple(dims),
            b=tuple(const() for _ in range(d)),
            triples={k: const() for k in chosen},
        ))
    return out


# sha256 of json.dumps(real_positive(doc).to_json_obj(), sort_keys=True) for
# each document of pin_documents(), in order
CERTIFICATION_DIGESTS = [
    "3dfa15ed8a36622397e1a6ae59ebf0d3b38bf35d61cd9f302a3261314121ad25",
    "80903bc96ff81933102cdbbf258d5af1299854cd7e12dd65670dda258db39505",
    "89488c9999ab1ca8853842196f7ef4a49cb858d028545b5f1b4166f0bf32bfb8",
    "80903bc96ff81933102cdbbf258d5af1299854cd7e12dd65670dda258db39505",
    "80903bc96ff81933102cdbbf258d5af1299854cd7e12dd65670dda258db39505",
    "80903bc96ff81933102cdbbf258d5af1299854cd7e12dd65670dda258db39505",
    "80903bc96ff81933102cdbbf258d5af1299854cd7e12dd65670dda258db39505",
    "f6bf4856f91c420196200885e68cf184c05e56f1aa88d86cae30bc7707154dc2",
    "f64a51cd952fa6c125e7cf30c58ee6298118e75c00f1436654975688ebb92a1e",
    "c65d455ff4213adf1f4504022259865790ec748726c93735ca7ec577be9476ad",
    "630842603bfad494e52976a33f8e5b9980527f0ccc66bcf1525a68e3a6678575",
    "f643014ad928fa85ab51d83d20472a7eb14222478aa758bbbec0539a73febcb9",
    "a7fb45e7978d4e57d67201670010cddb59558de8b76d3e0580b01486c5b3ceae",
    "09a2c4a64d2656e3bdcc944eb702bb4ac0532dcf0af92fcaad46cd6337c61df8",
    "98d663c0710ceba53427aa70c024cd1fec79795097a5ab0bdfcc6972e3a65dca",
    "1bc75c6281ff8ffd7599ebeecfcf3c2d6566802a0ef8878e57cb138cf8ee0355",
    "015e726403c2b9c49fe2bd3ed76962581266662853f98ab4fd4f63121068a0bb",
    "05c4d3c8d1be3c0619be1120eba4d06ae6831ae15949d134ada0f15c33ff2a17",
    "630842603bfad494e52976a33f8e5b9980527f0ccc66bcf1525a68e3a6678575",
    "630842603bfad494e52976a33f8e5b9980527f0ccc66bcf1525a68e3a6678575",
    "655be18334694129bfb690ba8a631de0596aac206b0bd075c93d2264a8ccd7fa",
    "ab9b816af42cec2805b0bf4171146e2aade9d43fa91ea85a8f352fd76b66fca3",
    "1bc75c6281ff8ffd7599ebeecfcf3c2d6566802a0ef8878e57cb138cf8ee0355",
    "630842603bfad494e52976a33f8e5b9980527f0ccc66bcf1525a68e3a6678575",
    "86bfcbd7cc582082dac7ff9c301d490ee9c12743adab526f4dde254b05afca59",
    "f8e57aa48aa9ad281f685c7a93c7cd90917e61bd009817a2a154db0006fdde70",
    "b1b18a99e9e217d8435c28357b77a4a2d3f092943ba265954420620e8704b00b",
    "5346d8b9ad8752764a678099a661279b65c8bdd479102107e87f19131207be42",
    "fed5e8cd77772e8dc4628206162f0e26f0b2c3a330ccaa9b664f698f744b2a46",
    "dbd9604c91ce0e316620e0c019d269384610424792028ac12278694ded1b752b",
]


def test_certification_bytes_pinned():
    seen = set()
    for data, expected in zip(pin_documents(), CERTIFICATION_DIGESTS, strict=True):
        obj = real_positive(data).to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, data.name
        if obj["real_count"] == 0:
            seen.add("no real solution")
        seen.update((data.d, "exact" if s["exact"] else "box") for s in obj["solutions"])
        seen.update(w.split(";")[0] for w in obj["warnings"])
    # the pinned set reaches every kind of certificate
    assert seen == {
        "no real solution", (2, "exact"), (2, "box"), (3, "exact"), (3, "box"),
    }


def test_d2_positive_count_of_an_unsplit_isolation():
    # y^3 -+ 2 has one real root in (-4, 4], 4 the least power of two above
    # the Cauchy bound 3, which the isolation still cuts at 0, so the half
    # that holds it decides its sign
    for c0, positive, interval in ((2, 0, (-8, 0, 2)), (-2, 1, (0, 8, 2))):
        sf = ZPoly([c0, 0, 0, 1])
        assert isolate_real_roots(sf) == [interval]
        sol = SolutionSet(2, 3)
        _record_real(sol, [[(sf, i)] for i in isolate_real_roots(sf)], [])
        assert (sol.real_count, sol.positive_count) == (1, positive)
        assert not sol.solutions[0]["exact"]


# ---------------------------------------------------------------------------
# root search and 80-digit references
# ---------------------------------------------------------------------------


def fraction_box(ibox):
    """Integer intervals (a, b, D) as Fraction intervals [a/D, b/D]."""
    return tuple((F(a, d), F(b, d)) for a, b, d in ibox)


def rational_root_reference(p, lo, hi):
    """Every candidate num/den of the rational root theorem, num | a_0 and
    den | a_n in all signs, under the same 10**7 cap."""
    scale = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    a0 = next(c for c in ints if c != 0)
    an = ints[-1]
    if abs(a0) > 10**7 or abs(an) > 10**7:
        return None
    nums = [n for n in range(1, abs(a0) + 1) if a0 % n == 0]
    dens = [d for d in range(1, abs(an) + 1) if an % d == 0]
    for num in nums:
        for den in dens:
            for cand in (F(num, den), F(-num, den)):
                if lo < cand <= hi and p(cand) == 0:
                    return cand
    return None


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                min_size=1, max_size=4, unique=True),
       st.sampled_from([None, 2, 3, 5]),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=80, deadline=None)
def test_rational_root_search_matches_brute_force(roots, surd, bits):
    p = QPoly.from_roots(roots)
    if surd is not None:
        p = p * QPoly([-surd, 0, 1])
    z = as_zpoly(p)
    for interval in isolate_real_roots(z):
        interval = refine_root_interval(z, interval, F(1, 2**bits))
        lo, hi = fraction_box([interval])[0]
        found = _rational_root_in(z, interval)
        assert found == rational_root_reference(p, lo, hi)
        planted = [r for r in roots if lo < r <= hi and r != 0]
        assert found == (planted[0] if planted else None)


def test_rational_root_search_respects_the_cap():
    # a_0 = 3001 * 4001 > 10**7: the rational root 1 is not searched for
    p = as_zpoly(QPoly.from_roots([F(1), F(3001), F(4001)]))
    assert all(_rational_root_in(p, iv) is None for iv in isolate_real_roots(p))
    # leading coefficient over the cap after clearing denominators
    p = as_zpoly(QPoly.from_roots([F(1, 3001), F(1, 4001), F(2)]))
    assert all(_rational_root_in(p, iv) is None for iv in isolate_real_roots(p))
    # just under the cap the same roots are found
    p = as_zpoly(QPoly.from_roots([F(1), F(2), F(3001), F(1000)]))
    found = [_rational_root_in(p, iv) for iv in isolate_real_roots(p)]
    assert found == [F(1), F(2), F(1000), F(3001)]


MP80 = mpmath.MPContext()
MP80.dps = 80


def real_roots_in(q, intervals):
    """The real root of q in each isolating interval, in 80-digit mpmath:
    the one of all its roots (`polyroots`) that lies there."""
    roots = [r.real for r in MP80.polyroots(list(reversed(q.coeffs)), maxsteps=200,
                                             extraprec=200)
             if abs(r.imag) < MP80.mpf(10)**-60]
    out = []
    for lo, hi, d in intervals:
        inside = [r for r in roots if lo < r * d <= hi + MP80.mpf(10)**-60]
        assert len(inside) == 1
        out.append(inside[0])
    return out


def mp_residual(polys, point):
    """The largest |g(point)| over the cleared polynomials, in 80 digits."""
    return max(abs(sum(MP80.mpf(c.numerator) / c.denominator
                       * prod(x**ei for x, ei in zip(point, e)) for e, c in g.items()))
               for g in polys)


def test_krawczyk_image_matches_fraction_reference():
    # The id is kept from the interval test this replaced.  The box rule on
    # each pair of isolating intervals of the d = 3 pinned documents and on
    # three refinements of it, against an 80-digit residual at the roots:
    # it is below 10^-40 on a solution and above 10^-20 everywhere else.
    tiny, large = MP80.mpf(10)**-40, MP80.mpf(10)**-20
    decisions = []
    for data in pin_documents():
        if data.d != 3:
            continue
        g1, g2 = integer_system(data)
        q1, branches = _eliminant(g1, g2, 1)
        q2, _ = _eliminant(g1, g2, 0)
        if q1.degree <= 0 or q2.degree <= 0:
            continue
        fibers, _ = _fibers(branches, q2)
        iso1 = isolate_real_roots(q1)
        iso2 = isolate_real_roots(q2)
        for i1, x in zip(iso1, real_roots_in(q1, iso1)):
            for i2, y in zip(iso2, real_roots_in(q2, iso2)):
                residual = mp_residual((g1, g2), (x, y))
                assert residual < tiny or residual > large
                b1, b2 = i1, i2
                for _ in range(4):
                    solution = _holds_solution(*_fiber_at(fibers, b1), b1, b2, {})
                    assert solution == (residual < tiny), (data.name, b1, b2)
                    decisions.append(solution)
                    b1 = refine_root_interval(q1, b1, F(b1[1] - b1[0], 4 * b1[2]))
                    b2 = refine_root_interval(q2, b2, F(b2[1] - b2[0], 4 * b2[2]))
    assert 0 < sum(decisions) < len(decisions)


def test_every_solution_box_holds_one_solution():
    # each box of the pinned documents, of width in (2^-21, 2^-20], pairs
    # the one root of each eliminant in it, and that pair has an 80-digit
    # residual below 10^-40 on the cleared system
    tiny = MP80.mpf(10)**-40
    boxes = {2: 0, 3: 0}
    for data in pin_documents():
        polys = integer_system(data)
        if data.d == 2:
            eliminants = [zpoly({e[0]: c for e, c in polys[0].items()})[0].squarefree()]
        else:
            eliminants = [_eliminant(*polys, axis)[0] for axis in (1, 0)]
        for s in real_positive(data).solutions:
            if s["exact"]:
                continue
            point = []
            for q, (lo, hi) in zip(eliminants, s["box"], strict=True):
                lo, hi = F(lo), F(hi)
                assert F(1, 2**21) < hi - lo <= F(1, 2**20), data.name
                (a, b), den = common_denominator((lo, hi))
                point += real_roots_in(q, [(a, b, den)])
            assert mp_residual(polys, point) < tiny, data.name
            boxes[data.d] += 1
    assert boxes[2] and boxes[3]


# ---------------------------------------------------------------------------
# both polynomials constant in the eliminated variable
# ---------------------------------------------------------------------------

# dehomogenizes to g1 = -x^2/32 - 7/16 and the nonzero constant g2 = -7/80:
# no solution, and both are constant in y
CONSTANT_IN_Y_DOCUMENT = json.dumps({
    "schema": "homspace/v1", "name": "random_048", "d": 3, "dims": [7, 5, 5],
    "b": ["3/3", "0", "0"], "triples": [{"ijk": [1, 3, 3], "value": "7/8"}],
    "bracket_meets_h": [[1, 1], [1, 3], [3, 3]], "h_nontrivial": [], "central": [],
    "complement": "other",
})


def test_constant_in_one_variable_counts_zero_through_the_library():
    data = parse(CONSTANT_IN_Y_DOCUMENT)
    g1, g2 = integer_system(data)
    assert all(e[1] == 0 for e in g1) and list(g2) == [(0, 0)]
    assert count_complex(data).distinct_complex == 0
    out = real_positive(data)
    assert (out.distinct_complex, out.real_count, out.positive_count) == (0, 0, 0)
    assert out.genericity and not out.solutions


def test_constant_d2_system_has_no_solution():
    # no triples: the cleared polynomial is a negative constant (-1/2 before
    # clearing), whose squarefree part 1 has no root to isolate
    data = HomSpaceData(name="constant_d2", d=2, dims=(1, 1), b=(F(1), F(0)), triples={})
    ((exponent, c),) = integer_system(data)[0].items()
    assert exponent == (0,) and c < 0
    complex_only = count_complex(data)
    assert (complex_only.distinct_complex, complex_only.multiplicity_excess) == (0, 0)
    out = real_positive(data)
    assert (out.distinct_complex, out.real_count, out.positive_count) == (0, 0, 0)
    assert out.multiplicity_excess == 0 and not out.solutions


def test_constant_in_the_eliminated_variable_without_common_factor():
    # g1 = x - 1, g2 = x - 2: no common zero; the other order agrees
    g1 = {(1, 0): F(1), (0, 0): F(-1)}
    g2 = {(1, 0): F(1), (0, 0): F(-2)}
    assert _eliminant(g1, g2, 1)[1] == _eliminant(g1, g2, 0)[1] == []
    sol = solve_cleared(g1, g2)
    assert sol.distinct_complex == sol.real_count == 0 and sol.genericity


def test_common_torus_zero():
    # y - x and y + x - 2 meet at (1, 1) only; y - x and y + x at (0, 0)
    f = {(0, 1): F(1), (1, 0): F(-1)}
    g = {(0, 1): F(1), (1, 0): F(1), (0, 0): F(-2)}
    assert common_torus_zero(f, g, {(1, 0): F(1), (0, 0): F(-1)})
    assert not common_torus_zero(f, g, {(1, 0): F(1), (0, 0): F(-2)})
    assert common_torus_zero(f, g, {})
    assert not common_torus_zero(f, {(0, 1): F(1), (1, 0): F(1)}, {})
    with pytest.raises(DegenerateSystemError):
        common_torus_zero(f, {(0, 2): F(1), (1, 1): F(-1)}, {})


def test_constant_in_the_eliminated_variable_with_common_factor():
    # g1 = (x - 1)(x - 2), g2 = x - 1: the line x = 1 is a common zero
    g1 = {(2, 0): F(1), (1, 0): F(-3), (0, 0): F(2)}
    g2 = {(1, 0): F(1), (0, 0): F(-1)}
    for axis in (1, 0):
        with pytest.raises(DegenerateSystemError):
            _eliminant(g1, g2, axis)
