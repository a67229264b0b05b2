"""Regenerate the golden record of nomafbl's command-line outputs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every file of OUTPUTS in this directory, and versions.txt, the
record's header, which names the numpy and scipy versions the record was
made with, and prints what moved: each file's moved lines, old and new,
and the largest relative change of each column (named by the CSV header,
or numbered by its place among a text line's numbers).
tests/test_golden.py rebuilds the same outputs in-process and compares them
with the record byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from nomafbl import cli

HERE = Path(__file__).resolve().parent
HEADER = "versions.txt"
# record file -> command-line arguments; a figure's record is its CSV, every
# other record is the command's standard output
OUTPUTS = {
    **{f"{name}.csv": ["figure", name, "--seed", "3", "--mc-samples", "50000"]
       for name in ("fig3", "fig4", "fig5", "fig6")},
    "validate.txt": ["validate", "--rho-db", "0", "10", "20", "30",
                     "--mc-samples", "50000"],
    **{f"queue_{role}.txt": ["queue-sim", "--blocks", "400000", "--role", role]
       for role in ("strong", "weak")},
}


def versions() -> str:
    """The header line naming the installed numpy and scipy."""
    return f"numpy {numpy.__version__}, scipy {scipy.__version__}"


def build() -> dict[str, str]:
    """Each record's text, made by running its command in this process."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in OUTPUTS.items():
            out = io.StringIO()
            if argv[0] == "figure":
                argv = [*argv, "--out", str(Path(tmp) / name)]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code not in (0, 1):      # validate exits 1 on a failed gate
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            texts[name] = (Path(tmp, name).read_text()
                           if argv[0] == "figure" else out.getvalue())
    return texts


_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _columns(name: str, header: list[str], line: str) -> list[tuple]:
    """(column, field) pairs of one record line: a CSV line's fields under
    the header's names, and a text line's numbers under the line's text
    with its numbers as # and the number's place."""
    if name.endswith(".csv"):
        return list(zip(header, line.split(",")))
    label = " ".join(_NUMBER.sub("#", line).split())
    return [(f"{label} [{i + 1}]", x)
            for i, x in enumerate(_NUMBER.findall(line))]


def moved(name: str, old: str, new: str) -> list[str]:
    """The report of one record: its moved lines, old and new, and the
    largest relative change of each column whose numbers moved."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    if old_rows == new_rows:
        return [f"{name}: unchanged"]
    header = new_rows[0].split(",") if new_rows else []
    report, largest = [], {}
    for row, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        if a == b:
            continue
        report += [f"  {row}: {a}", f"  {row}> {b}"]
        for (key, x), (_, y) in zip(_columns(name, header, a),
                                    _columns(name, header, b)):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            change = 0.0 if y == x else abs(y - x) / abs(x) if x else math.inf
            largest[key] = max(largest.get(key, 0.0), change)
    return ([f"{name}: {len(report) // 2} of {len(new_rows)} lines moved"
             + (f", {len(old_rows)} rows before" if len(old_rows)
                != len(new_rows) else "")] + report
            + [f"  largest relative change in {key}: {change:.2e}"
               for key, change in largest.items() if change])


def main() -> int:
    for name, text in build().items():
        path = HERE / name
        old = path.read_text() if path.exists() else ""
        print("\n".join(moved(name, old, text)))
        path.write_text(text)
    (HERE / HEADER).write_text(versions() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
