"""The README's library quick tour runs and gives the values its comments
state.

Under pytest the tour runs against the einpoly on the path.  Run as a script,

    python tests/test_readme.py README.md

it runs the tour of the given README against whichever einpoly is
importable, such as an installed package with its packaged catalog.
"""

import ast
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# the comments of the tour that are prose, with what each one states
PROSE = {
    "# 14 vertices, 16 facets": lambda ns: (len(ns["P"].vertices), len(ns["P"].facets)) == (14, 16),
    "# empty for this space": lambda ns: ns["T"].is_empty(),
    "# sparse Laurent polynomial": lambda ns: isinstance(ns["s"], ns["ep"].LaurentPoly),
    "# 13 marked faces": lambda ns: len(ns["census"].marked_faces()) == 13,
}


def quick_tour(readme: Path) -> str:
    text = readme.read_text(encoding="utf-8")
    return re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)


def check_quick_tour(readme: Path) -> int:
    """Run the tour statement by statement.  A bare expression whose comment
    is a Python literal must evaluate to it; each prose comment must be in
    the tour and hold.  Returns the number of comments checked."""
    code = quick_tour(readme)
    lines = code.splitlines()
    ns = {}
    checked = 0
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "<quick tour>", "eval"), ns)
            expected = ast.literal_eval(comment.strip())
            assert value == expected, f"{source!r} gave {value!r}, README says {expected!r}"
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "<quick tour>", "exec"), ns)
    for comment, holds in PROSE.items():
        assert comment in code, f"the quick tour lost the comment {comment!r}"
        assert holds(ns), f"the quick tour does not give {comment!r}"
        checked += 1
    return checked


def test_readme_quick_tour_gives_its_stated_values():
    # 82, True, 'singular' and (4, 4) as literals, and the four prose comments
    assert check_quick_tour(README) == 8


if __name__ == "__main__":
    import einpoly

    n = check_quick_tour(Path(sys.argv[1]))
    print(f"quick tour: {n} stated values hold with {einpoly.__file__}")
