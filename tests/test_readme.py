"""The README's library surface runs as written and gives the results its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_block_runs_as_documented():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library surface\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace: dict = {}
    stated = []  # (expression, value, the comment after it)
    for line in block.splitlines():
        commented = re.fullmatch(r"(.*?)\s+# (.*)", line)
        if commented is None:
            exec(line, namespace)
        else:
            code, comment = commented.groups()
            stated.append((code, eval(code, namespace), comment))
    assert len(stated) == 8
    for code, value, comment in stated:
        if code.startswith("qb.boundary_consistency("):  # the comment elides all but the status
            assert value and all(check.status == "pass" for check in value), value
        else:
            # a repr, or a str followed by a note in parentheses
            assert comment == repr(value) or re.fullmatch(re.escape(str(value)) + r"(\s+\(.*\))?", comment), \
                (code, value, comment)
