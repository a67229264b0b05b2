"""The command-line outputs, byte for byte against the golden record.

tests/golden holds the fig3-fig6 CSVs, a validate report and both roles'
queue-sim reports, made by tests/golden/regenerate.py.  A change that
moves an output regenerates the record, so the diff shows every number
that moved.  The record holds only for the library versions named in its
header; under others the test skips.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _load_regenerate():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_difference(name: str, want: str, got: str) -> str | None:
    """Where got first differs from want: the file, the 1-based row and
    the column, named by the CSV header for a CSV and by its 1-based
    character position otherwise; None where they are equal."""
    if want == got:
        return None
    want_rows, got_rows = want.splitlines(), got.splitlines()
    for row, (w, g) in enumerate(zip(want_rows, got_rows), start=1):
        if w == g:
            continue
        if name.endswith(".csv"):
            header = want_rows[0].split(",")
            for col, (a, b) in enumerate(zip(w.split(","), g.split(","))):
                if a != b:
                    return (f"{name}: row {row}, column "
                            f"{header[col] if col < len(header) else col + 1}"
                            f": recorded {a!r}, got {b!r}")
            return f"{name}: row {row}: recorded {w!r}, got {g!r}"
        col = next((i for i, (a, b) in enumerate(zip(w, g)) if a != b),
                   min(len(w), len(g)))
        return (f"{name}: row {row}, column {col + 1}: recorded {w!r}, "
                f"got {g!r}")
    row = min(len(want_rows), len(got_rows)) + 1
    return (f"{name}: row {row}: recorded {len(want_rows)} rows, got "
            f"{len(got_rows)}" if len(want_rows) != len(got_rows)
            else f"{name}: line endings differ")


def test_first_difference_names_file_row_and_column():
    want = "a,b,c\n1,2,3\n4,5,6\n"
    assert first_difference("x.csv", want, want) is None
    assert first_difference("x.csv", want, "a,b,c\n1,2,3\n4,7,6\n") == \
        "x.csv: row 3, column b: recorded '5', got '7'"
    assert first_difference("x.txt", "ab\ncd\n", "ab\ncx\n") == \
        "x.txt: row 2, column 2: recorded 'cd', got 'cx'"
    assert first_difference("x.txt", "ab\n", "ab\ncd\n") == \
        "x.txt: row 2: recorded 1 rows, got 2"


def test_outputs_match_golden_record():
    regenerate = _load_regenerate()
    recorded = (GOLDEN / regenerate.HEADER).read_text().strip()
    installed = regenerate.versions()
    if installed != recorded:
        pytest.skip(f"golden record made with {recorded}; installed are "
                    f"{installed}")
    built = regenerate.build()
    assert sorted(built) == sorted(regenerate.OUTPUTS)
    for name, text in built.items():
        diff = first_difference(name, (GOLDEN / name).read_text(), text)
        assert diff is None, diff
