"""The README's library example runs and prints what it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_prints_its_documented_output():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == (
        "|00> 1/2\n"
        "|11> 1/2\n"
        "(BasisState(bits='11'), ExactReal(1/2))\n"
    )
