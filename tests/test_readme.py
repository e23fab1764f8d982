"""The README's library quick start runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_unchanged():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert '"statistic"' in out.getvalue()
