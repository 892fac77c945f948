"""Golden outputs: each case's CLI commands, run in-process through cli.main,
must give the exit code, stdout, stderr and written files recorded in
tests/golden/<case>.txt.

A case runs its commands in an empty directory, with relative paths and
RANDSAMP_OUT_DIR unset; every command before the last must exit 0, and only
the last one's results are recorded. Integers and the text between numbers
must match exactly. Floats must agree to 1e-9 relative plus 1e-12 absolute,
which absorbs the last-bit differences between CPU kernels of one BLAS build
(an error moved by at most 1.3e-11 relative under OPENBLAS_CORETYPE=Prescott).

Left out: --help and argparse's own errors, whose text depends on the Python
version and the terminal width.

`python tests/test_golden.py` (with randsamp importable) rewrites the golden
file of each case that has none, whose file records other commands, or whose
output no longer matches it, and prints their names. A matching output keeps
its recorded bytes, also under new commands, so a host with another CPU
kernel moves no float of a case whose output has not changed. Review the diff
before committing it.
"""

import contextlib
import io
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest

from randsamp import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_README_TRIG = [
    "sample --signal trig --m 64 --duration 0.32 --seed 11 --out samples.csv",
    "build-matrix --times samples.csv --rate 800 --n 256 --method poisson --out m0.csv",
]
_README_PULSE = [
    "sample --signal gauspuls --m 93 --duration 9.28e-5 --seed 3 --out pulse_samples.csv",
    "build-matrix --times pulse_samples.csv --rate 1e7 --n 928 --t0=-4.635491741357094e-05 --out pulse_m0.csv",
]
_README_SQUARE = [
    "sample --signal square --m 80 --duration 1 --seed 7191089600892374487 --out square_samples.csv",
    "build-matrix --times square_samples.csv --rate 240 --n 240 --out square_m0.csv",
]
_SMALL_TRIG = ["sample --signal trig --m 8 --duration 0.02 --seed 11 --out s.csv"]

# Each case: its commands (randsamp's argv, without the program name).
CASES = {
    "experiment_trig_poisson": ["experiment --preset trig --runs 3 --seed 7"],
    "experiment_trig_naive": ["experiment --preset trig --matrix naive --runs 3 --seed 7"],
    "experiment_trig_truncated": ["experiment --preset trig --matrix truncated --p-terms 200 --runs 3 --seed 7"],
    "experiment_gauspuls": ["experiment --preset gauspuls --runs 3 --seed 7"],
    "experiment_gauspuls_odd_n": ["experiment --preset gauspuls --rate 9.99e6 --runs 3 --seed 7"],
    "experiment_square_tv": ["experiment --preset square --runs 2 --seed 7"],
    # A second square seed: CI also runs these cases under another CPU
    # kernel, across which the TV outputs must agree on more than one seed.
    "experiment_square_tv_seed11": ["experiment --preset square --runs 3 --seed 11"],
    "experiment_square_omp": ["experiment --preset square --solver omp --runs 2 --seed 7"],
    "experiment_json_out": ["experiment --preset trig --runs 2 --seed 5 --format json --out report.json"],
    "experiment_all_failed": ["experiment --preset trig --runs 2 --seed 7 --m 8 --max-atoms 16 --residual-tol 0"],
    "experiment_config": ["experiment --config exp.cfg --runs 3"],
    "experiment_poisson_ignores_p": ["experiment --preset trig --matrix poisson --p-terms 3 --runs 2 --seed 7"],
    "sweep_p": ["sweep-p --p-list 2,20 --runs 3 --seed 7"],
    "generate_trig_csv": ["generate --signal trig --n 32 --rate 800"],
    "generate_trig_json": ["generate --signal trig --n 32 --rate 800 --format json"],
    "generate_gauspuls_csv": ["generate --signal gauspuls --rate 1e6"],
    "generate_gauspuls_json": ["generate --signal gauspuls --rate 1e6 --format json"],
    "generate_square_csv": ["generate --signal square --n 24 --rate 16"],
    "generate_square_json": ["generate --signal square --n 24 --rate 16 --format json"],
    "sample_trig_csv": ["sample --signal trig --m 16 --duration 0.04 --seed 11"],
    "sample_trig_json": ["sample --signal trig --m 16 --duration 0.04 --seed 11 --format json"],
    "sample_gauspuls_csv": ["sample --signal gauspuls --m 16 --duration 9.28e-5 --seed 3"],
    "sample_gauspuls_json": ["sample --signal gauspuls --m 16 --duration 9.28e-5 --seed 3 --format json"],
    "sample_square_csv": ["sample --signal square --m 16 --duration 1 --seed 3"],
    "sample_square_json": ["sample --signal square --m 16 --duration 1 --seed 3 --format json"],
    "build_matrix_naive": [*_SMALL_TRIG, "build-matrix --times s.csv --rate 800 --n 16 --method naive --out m.csv"],
    "build_matrix_truncated": [
        *_SMALL_TRIG,
        "build-matrix --times s.csv --rate 800 --n 16 --method truncated --p-terms 20 --out m.csv",
    ],
    "build_matrix_poisson": [*_SMALL_TRIG, "build-matrix --times s.csv --rate 800 --n 16 --out m.csv"],
    "build_matrix_negative_t0": [
        "sample --signal gauspuls --m 8 --duration 9.28e-5 --seed 3 --out s.csv",
        "build-matrix --times s.csv --rate 1e5 --n 10 --t0 -4.635491741357094e-05 --out m.csv",
    ],
    "recover_trig": [*_README_TRIG, "recover --matrix m0.csv --measurements samples.csv --solver omp --out recovered.csv"],
    "recover_trig_json": [*_README_TRIG, "recover --matrix m0.csv --measurements samples.csv --format json"],
    "recover_pulse": [
        *_README_PULSE,
        "recover --matrix pulse_m0.csv --measurements pulse_samples.csv --max-atoms 24 --residual-tol 1e-4 "
        "--out pulse_rec.csv",
    ],
    "recover_square": [
        *_README_SQUARE,
        "recover --matrix square_m0.csv --measurements square_samples.csv --solver tv --max-atoms 24 "
        "--residual-tol 1e-6 --tv-iters 6000 --out square_rec.csv",
    ],
    "recover_over_selection": [
        "sample --signal trig --m 8 --duration 0.32 --seed 11 --out s.csv",
        "build-matrix --times s.csv --rate 800 --n 256 --out m.csv",
        "recover --matrix m.csv --measurements s.csv --max-atoms 16 --residual-tol 0",
    ],
    # A matrix CSV whose P breaks the layout's rule is refused with its line.
    "recover_odd_p_terms": ["recover --matrix m.csv --measurements s.csv"],
    "usage_generate_needs_n": ["generate --signal trig --rate 800"],
    "usage_build_matrix_needs_out": ["build-matrix --times s.csv --rate 1 --n 8"],
}

# Files a case finds in its directory before its first command.
INPUTS = {
    "experiment_config": {
        "exp.cfg": "# trig at P=20\npreset=trig\nmatrix=truncated\np_terms=20\nruns=2\nseed=7\ntimings=false\n",
    },
    "recover_odd_p_terms": {
        "m.csv": "M,N,method,P\n2,4,truncated,3\n1.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n",
        "s.csv": "time,value\n0.0,1.0\n1.0,0.5\n",
    },
}

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def mismatch(expected: str, actual: str) -> str | None:
    """Where actual departs from expected, or None when it matches: the text
    between numbers and every integer exactly, every float to 1e-9 relative
    plus 1e-12 absolute."""
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        line = "".join(want[:i]).count("\n") + 1
        is_float = i % 2 == 1 and all(any(c in ".eE" for c in number) for number in (a, b))
        if is_float and abs(float(a) - float(b)) <= 1e-9 * abs(float(a)) + 1e-12:
            continue
        return f"line {line}: expected {a!r}, got {b!r}"
    if len(want) != len(got):
        return f"expected {len(want) // 2} numbers, got {len(got) // 2}"
    return None


@contextlib.contextmanager
def _inside(workdir: Path):
    """Run with workdir as the working directory and RANDSAMP_OUT_DIR unset."""
    cwd, out_dir = os.getcwd(), os.environ.pop(cli.OUT_DIR_ENV, None)
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)
        if out_dir is not None:
            os.environ[cli.OUT_DIR_ENV] = out_dir


def _call(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return code, out.getvalue(), err.getvalue()


def _files(workdir: Path) -> set[str]:
    return {path.relative_to(workdir).as_posix() for path in workdir.rglob("*") if path.is_file()}


def _header(name: str) -> str:
    return "".join(f"$ randsamp {command}\n" for command in CASES[name])


def _body(text: str) -> str:
    """A golden text without its leading command lines."""
    return re.sub(r"\A(\$ randsamp .*\n)*", "", text)


def run_case(name: str, workdir: Path) -> str:
    """A case's golden text: its commands, then the last one's exit code,
    stdout, stderr and each file it wrote."""
    for file, text in INPUTS.get(name, {}).items():
        (workdir / file).write_text(text, encoding="utf-8")
    *setup, last = CASES[name]
    with _inside(workdir):
        for command in setup:
            code, _, err = _call(command)
            assert code == 0, f"{name}: {command!r} exited {code}: {err}"
        before = _files(workdir)
        code, out, err = _call(last)
    sections = [("stdout", out), ("stderr", err)]
    sections += [(file, (workdir / file).read_text(encoding="utf-8")) for file in sorted(_files(workdir) - before)]
    return _header(name) + f"exit {code}\n" + "".join(f"=== {title}\n{body}" for title, body in sections)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert expected.startswith(_header(name)), f"{name}.txt records other commands; rewrite it"
    problem = mismatch(expected, run_case(name, tmp_path))
    assert problem is None, f"{name}: {problem}"


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize(
    "expected, actual, matches",
    [
        ("x=0.1\n", "x=0.10000000000000002\n", True),
        ("x=1e-13\n", "x=-5e-13\n", True),
        ("x=0.215095\n", "x=0.21509545331298985\n", False),
        ("n=16\n", "n=16.0\n", False),
        ("n=16\n", "n=17\n", False),
        ('{"a": 1, "b": 2}\n', '{"b": 2, "a": 1}\n', False),
        ("1.5,2.5\n", "1.5,2.5,3.5\n", False),
    ],
)
def test_mismatch(expected, actual, matches):
    assert (mismatch(expected, actual) is None) is matches


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN / f"{case}.txt"
        expected = path.read_text(encoding="utf-8") if path.exists() else ""
        with tempfile.TemporaryDirectory() as tmp:
            actual = run_case(case, Path(tmp))
        body = _body(expected) if mismatch(_body(expected), _body(actual)) is None else _body(actual)
        if _header(case) + body != expected:
            path.write_text(_header(case) + body, encoding="utf-8")
            print(f"rewrote {path.name}")
