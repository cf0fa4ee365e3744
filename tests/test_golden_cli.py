"""Golden CLI transcripts, compared byte for byte.

Every input below goes through every command in `COMMANDS`, each run in a
fresh directory.  The transcript records the exit code, stdout, stderr and
every file the command wrote.  The expected transcripts live in
`tests/golden/expected/<input>.txt`.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import GOLDEN

EXPECTED = GOLDEN / "expected"

COMMANDS = (
    ("check",),
    ("dist",),
    ("run", "--seed", "1"),
    ("render",),
    ("render", "--format", "latex"),
    ("translate", "--to", "proof"),
    ("translate", "--to", "circuit"),
)

# Inputs beyond the golden files: a rejected weakening, an assumption leaf,
# the leaf below a rejected weakening (still `assumed` in the failure report),
# and one malformed input per wire check in each format.
EXTRA_INPUTS = {
    "weaken.qmc": "proof weak {\n  a = ax;\n  w = weaken a |0>;\n}\n",
    "prep_leaf.qmc": (
        "proof leaf {\n  p = prep |1>;\n  h = gate H [0] p;\n  d = born h;\n}\n"
    ),
    "prep_fail.qmc": (
        "proof leaf {\n  p = prep |1>;\n  h = gate H [0] p;\n  w = weaken h |0>;\n}\n"
    ),
    "bad_arity.qmc": "proof bad {\n  a = ax;\n  g = gate CNOT [0] a;\n}\n",
    "bad_duplicate.qmc": (
        "proof bad {\n  a = ax;\n  b = ax;\n  t = tensor a b;\n"
        "  g = gate CNOT [1,1] t;\n}\n"
    ),
    "bad_range.qmc": "proof bad {\n  a = ax;\n  g = gate H [3] a;\n}\n",
    "bad_arity.qc": "qubits 2\nCNOT 0\n",
    "bad_duplicate.qc": "qubits 2\nCNOT 1 1\n",
    "bad_range.qc": "qubits 2\nH 0\n  H   5\n",
}


def golden_inputs() -> dict[str, str]:
    inputs = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(GOLDEN.iterdir())
        if path.suffix in (".qc", ".qmc")
    }
    inputs.update(EXTRA_INPUTS)
    return inputs


def _section(title: str, text: str) -> str:
    return f"--- {title} ({len(text.encode())} bytes)\n{text}"


def transcript(name: str, text: str, workdir: Path) -> str:
    """Run every command on one input and return the combined transcript."""
    from qmc.cli import main

    parts = []
    for i, (command, *flags) in enumerate(COMMANDS):
        rundir = workdir / str(i)
        rundir.mkdir()
        (rundir / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(rundir)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, name, *flags])
        finally:
            os.chdir(cwd)
        parts.append(f"$ qmc {' '.join([command, name, *flags])}\nexit {code}\n")
        parts.append(_section("stdout", out.getvalue()))
        parts.append(_section("stderr", err.getvalue()))
        for written in sorted(rundir.iterdir()):
            if written.name != name:
                content = written.read_text(encoding="utf-8")
                parts.append(_section(f"file {written.name}", content))
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(golden_inputs()))
def test_cli_transcript_is_unchanged(name, tmp_path):
    actual = transcript(name, golden_inputs()[name], tmp_path).encode()
    assert actual == (EXPECTED / f"{name}.txt").read_bytes()
