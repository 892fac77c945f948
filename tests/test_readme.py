import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_recovers_trig_signal():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, f"{README}:Library example", "exec"), {})
    assert float(printed.getvalue()) < 1e-12
