"""The README's quick starts run as written."""
import contextlib
import io
import re
import shlex
from pathlib import Path

from cohercause import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_unchanged():
    text = README.read_text()
    section = text[text.index("## Quick start (library)") :]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert '"statistic"' in out.getvalue()


def test_cli_quick_start_runs_unchanged(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Quick start (CLI)") :]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 7 and all(line.startswith("cohercause ") for line in lines)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    for line in lines:
        # Split as the shell does, trailing comments included.
        with contextlib.redirect_stdout(out):
            assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
    assert '"statistic"' in out.getvalue()
