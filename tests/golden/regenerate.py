"""Regenerate the golden record of nomafbl's command-line outputs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

It rewrites every file of OUTPUTS in this directory, and versions.txt, the
record's header, which names the numpy, scipy and mpmath versions the
record was made with.  tests/test_golden.py rebuilds the same outputs
in-process and compares them with the record byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import mpmath
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
    """The header line naming the installed numpy, scipy and mpmath."""
    return (f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"mpmath {mpmath.__version__}")


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


def main() -> int:
    for name, text in build().items():
        (HERE / name).write_text(text)
    (HERE / HEADER).write_text(versions() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
