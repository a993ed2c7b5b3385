"""The README's library surface runs as written and gives the results its comments state."""

import re
from pathlib import Path

import quadbook as qb

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


def test_public_surface_is_pinned():
    # the package exports what the README, the reports and the acceptance criteria use, and no helper
    assert sorted(qb.__all__) == [
        "CheckResult", "Configuration", "ConfigurationError", "CyclicPartition", "DEFAULT_SUBSET_CAP",
        "ExteriorSpace", "GradedGroup", "InvalidConfigurationError", "ManifoldDescription",
        "NormalFormError", "OpenBookError", "OpenBookStructure", "OracleMismatchError", "PageDescription",
        "ParseError", "ProductPiece", "PuncturedProduct", "QuadbookError", "SizeCapError",
        "SphereProduct", "SplittingLedger", "ValidationReport", "boundary_consistency", "classify_complex",
        "classify_real", "complexify", "d_values", "delete_coordinate",
        "double_partition", "duplicate_coordinate", "euler_cellcount", "expected_homology",
        "exterior_homology", "homology_Z", "homology_ZC", "homology_Zplus", "make_configuration",
        "normal_form", "normal_form_labelled", "open_book_complex", "open_book_real", "page_homology",
        "page_topology", "pair_homology", "partition_configuration", "rotate_parts", "splitting_ledger",
        "validate",
    ]
