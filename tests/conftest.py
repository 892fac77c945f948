import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def run_cli(tmp_path):
    """Run the CLI in a subprocess with cwd at a temp dir. A numpy
    RuntimeWarning fails it, unless PYTHONWARNINGS is set otherwise."""

    def _run(*args, env_extra=None):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.setdefault("PYTHONWARNINGS", "error::RuntimeWarning")
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "randsamp", *map(str, args)],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )

    return _run
