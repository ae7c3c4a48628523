"""Command-line surface: exit codes, JSON reports, determinism."""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einpoly.cli import main
from einpoly.homspace import weight_points
from einpoly.infinity import flat_complex
from test_infinity import spectral_documents, weight_shape_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_delannoy_value(capsys):
    code, out, _ = run(capsys, "delannoy", "4")
    assert code == 0 and out.strip() == "321"


def test_delannoy_negative_is_usage_error(capsys):
    code, _, err = run(capsys, "delannoy", "--", "-1")
    assert code == 1


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(max_value=-1), st.integers(min_value=1001), st.integers(0, 30)))
@example(n=1000)
@example(n=1001)
def test_delannoy_range_is_zero_to_one_thousand(n):
    # in range: the value, one line; out of range: exit 1, one stderr line,
    # with no value computed (n = 5800 used to end in a traceback)
    code, out, err = _main(["delannoy", "--", str(n)])
    if 0 <= n <= 1000:
        assert code == 0 and err == "" and out.strip().isdigit() and out.count("\n") == 1
    else:
        assert code == 1 and out == "" and err == "error: supported range is 0 <= n <= 1000\n"


@settings(max_examples=6, deadline=None)
@given(d=st.integers(-2, 10))
@example(d=1)
@example(d=2)
@example(d=9)
def test_kaehler_b2_range_is_two_to_eight(d):
    # few draws: d = 8 takes about half a second
    code, out, err = _main(["kaehler-b2", "--", str(d)])
    if 2 <= d <= 8:
        obj = json.loads(out)
        assert code == 0 and err == "" and isinstance(obj, dict) and obj["d"] == d
    else:
        assert code == 1 and out == "" and err == "error: supported range is 2 <= d <= 8\n"


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "frobnicate")
    assert exc.value.code == 1


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "e8_t1_a3_a4" in out
    code, out, _ = run(capsys, "catalog", "show", "e8_t1_a4_a2_a1")
    assert code == 0
    for line in ("[1, 1, 2] = 8", "[1, 2, 3] = 6", "[1, 3, 4] = 4", "[1, 4, 5] = 2",
                 "[1, 5, 6] = 1", "[2, 2, 4] = 6", "[2, 3, 5] = 2", "[2, 4, 6] = 2",
                 "[3, 3, 6] = 2"):
        assert line in out


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 1 and "unknown" in err


def test_catalog_export_parses_back(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "export", "su3_t2")
    assert code == 0
    from einpoly.homspace import parse

    assert parse(out).name == "su3_t2"


def test_polytope_volume(capsys):
    code, out, _ = run(capsys, "polytope", "wang_ziller", "--min", "--volume")
    assert code == 0 and out.strip() == "3"


def test_polytope_export_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "polytope", "wang_ziller", "--min")
    assert code == 0
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "polytope", str(path), "--facets")
    assert code == 0
    code, out3, _ = run(capsys, "polytope", "wang_ziller", "--min", "--facets")
    assert out2 == out3


def test_output_integers_have_no_digit_limit(capsys, tmp_path):
    # facet normals of products of 2500-digit coordinates pass the 4300
    # digits Python converts to a string by default; main lifts that limit
    # for the command and gives the caller's limit back
    sevens, threes = int("7" * 2500), int("3" * 2400)
    verts = [[sevens, 1, 0], [0, threes, 1], [1, 0, sevens], [0, 0, 0]]
    doc = tmp_path / "big.json"
    doc.write_text('{"vertices": [[%s, 1, 0], [0, %s, 1], [1, 0, %s], [0, 0, 0]]}'
                   % ("7" * 2500, "3" * 2400, "7" * 2500))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "polytope", str(doc))
    assert code == 0 and err == "" and "7" * 2500 in out
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "polytope", str(doc), "--facets")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        facets = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(facets) == 4 and max(abs(x) for f in facets for x in f["normal"]) >= 10**4300
    for f in facets:
        values = [sum(a * x for a, x in zip(f["normal"], v)) for v in verts]
        assert min(values) == f["offset"] and values.count(f["offset"]) == 3
    # input stays capped at 4300 digits, and an exit 2 restores the limit too
    doc.write_text('{"vertices": [[%s, 0], [0, 1], [1, 0]]}' % ("9" * 4301))
    code, out, err = run(capsys, "polytope", str(doc))
    assert code == 2 and err.startswith("invalid data: /: ")
    assert sys.get_int_max_str_digits() == limit


def test_kaehler_b2_summary(capsys):
    code, out, _ = run(capsys, "kaehler-b2", "4")
    obj = json.loads(out)
    assert code == 0
    assert obj["facets"] == 7 and obj["nu"] == 20 and obj["marked_total"] == 3


def test_kaehler_b2_out_of_range(capsys):
    code, _, err = run(capsys, "kaehler-b2", "9")
    assert code == 1
    assert "2 <= d <= 8" in err


def test_kaehler_b2_top_of_range(capsys):
    # values computed through kaehler_b2_polytope, b2_exponent and
    # marked_census before the command accepted d = 8
    code, out, _ = run(capsys, "kaehler-b2", "8")
    assert code == 0
    assert json.loads(out) == {
        "d": 8,
        "facets": 280,
        "nu": 7526,
        "b2_exponent": 1,
        "marked_by_dim": {"2": 55, "3": 34, "4": 157, "5": 127, "6": 67},
        "marked_total": 440,
        "test2_count": 4,
    }


def test_analyze_small_fixture(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "su3_t2", "--json", str(out_path))
    assert code == 0
    assert "nu = 4" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == "report/v1"
    assert report["nu"] == 4
    assert report["solver"]["positive_count"] == 4


def test_analyze_unsupported_solve_dimension_exits_three(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "e8_t1_a3_a4", "--json", str(out_path))
    assert code == 3
    report = json.loads(out_path.read_text())  # analysis still emitted
    assert report["nu"] == 82
    code, _, _ = run(capsys, "analyze", "e8_t1_a3_a4", "--no-solve")
    assert code == 0


def test_analyze_degenerate_system_exits_three(capsys, tmp_path):
    # a d = 3 system with a positive-dimensional solution set: the solver is
    # skipped with one warning and the rest of the analysis is emitted
    doc = tmp_path / "wb.json"
    doc.write_text(json.dumps({
        "schema": "homspace/v1", "name": "wb", "d": 3, "dims": [2, 3, 2],
        "b": ["0", "0", "0"], "triples": [{"ijk": [1, 2, 3], "value": "1"},
                                          {"ijk": [1, 1, 2], "value": "1"},
                                          {"ijk": [2, 3, 3], "value": "1"}],
    }))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", str(doc), "--json", str(out_path))
    assert code == 3 and err == "" and "wb: d = 3" in out
    report = json.loads(out_path.read_text())
    assert report["solver"] is None
    assert report["bounds"]["epsilon_computed"] is None
    skipped = [w for w in report["warnings"] if w.startswith("solver skipped: ")]
    assert skipped == ["solver skipped: degenerate system "
                       "(both polynomials vanish on a whole branch)"]
    code, _, _ = run(capsys, "analyze", str(doc), "--no-solve")
    assert code == 0


def test_analyze_malformed_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": "homspace/v1", "name": "bad", "d": 2,
        "dims": [1, 1], "b": ["1", "1"],
        "triples": [{"ijk": [0, 1, 2], "value": "1"}],
    }))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "/triples/0" in err


def test_analyze_missing_input_exits_one(capsys):
    code, _, _ = run(capsys, "analyze", "no_such_fixture")
    assert code == 1


def test_report_is_byte_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "analyze", "wang_ziller_q", "--json", str(p1))
    run(capsys, "analyze", "wang_ziller_q", "--json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# Each failure the command line can meet on bad input: exit code and the
# start of its one stderr line.  Paths are relative to a directory holding
# the malformed documents below.
_MALFORMED = {
    "mixed.json": b'{"vertices": [[1, 0], [0, 1, 0]]}',
    "empty.json": b'{"vertices": []}',
    "text.json": b'{"vertices": [["a", 1]]}',
    "binary.json": b'\xff\xfe{"vertices": []}',
    "bool_vertex.json": b'{"vertices": [[true, 0], [0, 1], [0, 0]]}',
    # json.loads converts integer literals of at most 4300 digits
    "long_vertex.json": b'{"vertices": [[' + b"9" * 4301 + b', 0], [0, 1], [1, 0]]}',
    "long_d.json": b'{"schema": "homspace/v1", "name": "long_d", "d": ' + b"9" * 4301
                   + b', "dims": [1, 1], "b": ["1", "1"], "triples": []}',
    # json.loads nests no deeper than the recursion limit
    "deep.json": b"[" * 100000 + b"]" * 100000,
    # the normalized volume lives on the coordinate-sum-1 hyperplane
    "off_sum_one.json": b'{"vertices": [[0], [3]]}',
    "bool_dims.json": json.dumps({
        "schema": "homspace/v1", "name": "bool_dims", "d": 3, "dims": [True, 2, 2],
        "b": ["1", "1", "1"], "triples": [{"ijk": [1, 2, 3], "value": "1"}],
    }).encode(),
    "str_b.json": json.dumps({
        "schema": "homspace/v1", "name": "str_b", "d": 3, "dims": [1, 2, 2],
        "b": "111", "triples": [{"ijk": [1, 2, 3], "value": "1"}],
    }).encode(),
    "zero_den.json": json.dumps({
        "schema": "homspace/v1", "name": "zero_den", "d": 3, "dims": [1, 2, 2],
        "b": ["1/0", "1", "1"], "triples": [{"ijk": [1, 2, 3], "value": "1"}],
    }).encode(),
    "bool_value.json": json.dumps({
        "schema": "homspace/v1", "name": "bool_value", "d": 3, "dims": [1, 2, 2],
        "b": ["1", "1", "1"], "triples": [{"ijk": [1, 2, 3], "value": True}],
    }).encode(),
    **{
        f"{name}.json": json.dumps({
            "schema": "homspace/v1", "name": name, "d": 3, "dims": [1, 2, 2],
            "b": ["1", "1", "1"], "triples": [{"ijk": [1, 2, 3], "value": "1"}],
            "expected": expected,
        }).encode()
        for name, expected in (("str_epsilon", {"epsilon": "3"}),
                               ("str_expected", "epsilon"),
                               ("bool_nu", {"nu": True}))
    },
}


@pytest.mark.parametrize("argv, code, prefix", [
    (["polytope", "mixed.json"], 2, "invalid data: /vertices/1"),
    (["polytope", "empty.json"], 2, "invalid data: /vertices"),
    (["polytope", "text.json"], 2, "invalid data: /vertices/0"),
    (["polytope", "binary.json"], 2, "invalid data: /: "),
    (["analyze", "binary.json"], 2, "invalid data: /: "),
    (["polytope", "bool_vertex.json"], 2, "invalid data: /vertices/0"),
    (["polytope", "long_vertex.json"], 2, "invalid data: /: "),
    (["analyze", "long_vertex.json"], 2, "invalid data: /: "),
    (["polytope", "long_d.json"], 2, "invalid data: /: "),
    (["analyze", "long_d.json"], 2, "invalid data: /: "),
    (["polytope", "deep.json"], 2, "invalid data: /: invalid JSON: "),
    (["analyze", "deep.json"], 2, "invalid data: /: invalid JSON: "),
    (["polytope", "off_sum_one.json", "--volume"], 2, "invalid data: /vertices: "),
    (["analyze", "bool_dims.json"], 2, "invalid data: /dims/0"),
    (["analyze", "bool_value.json"], 2, "invalid data: /triples/0/value"),
    (["analyze", "str_b.json"], 2, "invalid data: /b: must be a list"),
    (["analyze", "zero_den.json"], 2, "invalid data: /b/0: not a decimal-free rational"),
    (["analyze", "str_epsilon.json"], 2, "invalid data: /expected/epsilon: must be"),
    (["analyze", "str_expected.json"], 2, "invalid data: /expected: must be an object"),
    (["analyze", "bool_nu.json"], 2, "invalid data: /expected/nu: must be"),
    (["analyze", "."], 1, "error: "),
    (["polytope", "."], 1, "error: "),
    (["analyze", "su3_t2", "--no-solve", "--json", "missing/x.json"], 1, "error: "),
    (["analyze", "jordan_4"], 1, "error: no such file or catalog entry: jordan_4"),
    (["polytope", "jordan_4"], 1, "error: no such file or catalog entry: jordan_4"),
    (["catalog", "show", "jordan_4"], 1, "error: unknown catalog entry: jordan_4"),
    (["catalog", "show", "product_of_irreducibles_1000000000000"], 1,
     "error: unknown catalog entry: product_of_irreducibles_1000000000000"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_failures_exit_with_one_line(capsys, tmp_path, monkeypatch, argv, code, prefix):
    for name, raw in _MALFORMED.items():
        (tmp_path / name).write_bytes(raw)
    monkeypatch.chdir(tmp_path)
    got, _, err = run(capsys, *argv)
    assert got == code
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unknown_option_is_a_one_line_usage_error(capsys):
    # --export was removed: the default output is the polytope document
    with pytest.raises(SystemExit) as exc:
        main(["polytope", "su3_t2", "--export"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err == "error: unrecognized arguments: --export\n"


def test_unwritable_json_path_fails_before_the_analysis(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "analyze", "su3_t2", "--json", "missing/x.json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_analysis_leaves_no_json_report(capsys, tmp_path):
    # spectral data whose weight polytope is too small: exit 2 after the
    # report path was opened
    doc = tmp_path / "flat.json"
    doc.write_text(json.dumps({
        "schema": "homspace/v1", "name": "flat", "d": 3, "dims": [7, 5, 5],
        "b": ["1", "0", "0"], "triples": [{"ijk": [1, 3, 3], "value": "7/8"}],
        "bracket_meets_h": [[1, 1], [1, 3], [3, 3]], "h_nontrivial": [], "central": [],
        "complement": "other",
    }))
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", str(doc), "--json", str(out_path))
    assert code == 2 and out == "" and err.startswith("invalid data: ")
    assert not out_path.exists()


def test_failed_analysis_leaves_a_device_json_path_alone(capsys, tmp_path, monkeypatch):
    # the degenerate document above, with its report sent to /dev/null: the
    # failed run must not remove the device (os.remove only records here)
    doc = tmp_path / "flat.json"
    doc.write_text(json.dumps({
        "schema": "homspace/v1", "name": "flat", "d": 3, "dims": [7, 5, 5],
        "b": ["1", "0", "0"], "triples": [{"ijk": [1, 3, 3], "value": "7/8"}],
        "bracket_meets_h": [[1, 1], [1, 3], [3, 3]], "h_nontrivial": [], "central": [],
        "complement": "other",
    }))
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    code, out, err = run(capsys, "analyze", str(doc), "--json", os.devnull)
    assert code == 2 and out == ""
    assert err.startswith("invalid data: ") and err.count("\n") == 1
    assert os.devnull not in removed


# ---------------------------------------------------------------------------
# the exit contract on drawn documents
# ---------------------------------------------------------------------------

ALL_FLAT = "ValueError: no generating points left for the minimal polytope"


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "doc.json"


def _main(argv):
    """(exit code, stdout, stderr) of one run; an escaping ValueError, the
    all-flat defect, stands in for the code as its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except ValueError as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(spectral_documents(), weight_shape_documents()))
@pytest.mark.parametrize("command", [["analyze"], ["polytope", "--min", "--volume"]],
                         ids=["analyze", "polytope_min_volume"])
def test_drawn_documents_keep_the_exit_contract(doc_path, command, data):
    doc_path.write_text(data.to_json())
    argv = command[:1] + [str(doc_path)] + command[1:]
    first = _main(argv)
    code, out, err = first
    assert "Traceback" not in out + err
    T = flat_complex(data)
    if all(T.contains_point(w) for w in weight_points(data)):
        # known defect: with every weight in a flat and a weight polytope
        # of full dimension, no generating point is left for the minimal
        # polytope and the ValueError escapes main
        assert code in (2, ALL_FLAT)
    else:
        assert code in (0, 2, 3)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n")
    assert _main(argv) == first
