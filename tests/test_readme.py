import contextlib
import io
import re
import shlex
from pathlib import Path

from randsamp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_code(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_recovers_trig_signal():
    code = readme_code("## Library example", "python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, f"{README}:Library example", "exec"), {})
    assert float(printed.getvalue()) < 1e-12


def test_cli_commands_parse():
    # Every randsamp command of the CLI section parses, so no flag can stay
    # in the README after the CLI drops it. $t0 is read from its comment.
    block = readme_code("## CLI", "sh").replace("\\\n", " ")
    t0 = re.search(r"^t0=.*#\s*(\S+)$", block, re.M).group(1)
    parser = cli.build_parser()
    commands = [
        parser.parse_args(shlex.split(line.replace("$t0", t0), comments=True)[1:])
        for line in block.splitlines()
        if line.startswith("randsamp ")
    ]
    assert {args.command for args in commands} == {
        "generate", "sample", "build-matrix", "recover", "experiment", "sweep-p",
    }
