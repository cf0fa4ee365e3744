"""The oldest Python the project supports compiles qmc's regular expressions.

`pyproject.toml` and the README promise Python 3.10 or later, while the suite
usually runs on a newer one.  Pattern syntax is where the versions differ
most quietly (3.11 added possessive quantifiers and atomic groups), so every
module-level compiled pattern in `qmc` is compiled again, with its flags,
under `python3.10` in a subprocess that needs nothing but the standard
library.  The test is skipped where no `python3.10` starts.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import re
import shutil
import subprocess

import pytest

import qmc

OLDEST = "python3.10"

# Compiles each (name, pattern, flags) read from stdin and prints the names
# of those that fail, with the error.
_COMPILE_ALL = """
import json, re, sys
for name, pattern, flags in json.load(sys.stdin):
    try:
        re.compile(pattern, flags)
    except re.error as err:
        print(name, err)
"""


def _module_patterns() -> list[tuple[str, str, int]]:
    found = []
    for info in pkgutil.iter_modules(qmc.__path__):
        if info.name.startswith("__"):  # __main__ would run the CLI
            continue
        module = importlib.import_module(f"qmc.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found.append((f"{info.name}.{name}", value.pattern, value.flags))
    return found


def test_module_patterns_compile_under_the_oldest_python():
    exe = shutil.which(OLDEST)
    if exe is None:
        pytest.skip(f"{OLDEST} is not on PATH")
    probe = subprocess.run(
        [exe, "-I", "-c", "import sys; print(sys.version_info[:2])"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if probe.returncode != 0:  # e.g. a version manager's shim with no 3.10
        pytest.skip(f"{OLDEST} does not start: {probe.stderr.strip()[:200]}")
    assert probe.stdout.strip() == "(3, 10)"
    patterns = _module_patterns()
    assert "parser._TOKEN_RE" in {name for name, _, _ in patterns}
    result = subprocess.run(
        [exe, "-I", "-c", _COMPILE_ALL],
        input=json.dumps(patterns),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
