"""The install job's console-script helper, ``.github/expect_cli.py``.

Every install-job check runs through it, so a helper that cannot fail
would leave each of those checks checking nothing.
"""
import os
import subprocess
import sys
from pathlib import Path

import ordfactor as of

SRC = Path(of.__file__).parents[1]
HELPER = Path(__file__).parents[1] / ".github" / "expect_cli.py"
MONUMENTS = ("--input", 'of.load_dataset("monuments")')


def test_the_helper_fails_on_each_unmet_expectation(tmp_path):
    # an ``ordfactor`` on PATH that runs the console script from src/
    shim = tmp_path / "ordfactor"
    shim.write_text(
        f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {str(SRC)!r})\n"
        "from ordfactor.cli import main\nmain()\n"
    )
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
        PYTHONPATH=str(SRC),
    )

    def expect(*args):
        done = subprocess.run(
            [sys.executable, str(HELPER), *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stderr

    checks = ("--check", 'p["incidences"] == 44', "--check", 'e is None')
    assert expect(*MONUMENTS, *checks, "stats", "-") == (0, "")
    failures = {
        "FAIL: exit code 0, expected 1": (*MONUMENTS, "--exit", "1", "stats", "-"),
        # a usage error exits 2 as expected, but argparse writes to stderr
        "FAIL: stderr is not empty": ("--exit", "2", "check"),
        'FAIL: p["incidences"] == 45': (
            *MONUMENTS, "--check", 'p["incidences"] == 45', "stats", "-",
        ),
        # exact repair of this context runs until its 5 s budget ends
        "FAIL: ran past 0.5 s": (
            "--input", "of.random_context(of.GeneratorSpec(34, 34, 0.5, 0))",
            "--timeout", "0.5", "maximal", "-", "--budget", "5",
        ),
    }
    for message, args in failures.items():
        code, stderr = expect(*args)
        assert code == 1 and stderr.endswith(message + "\n"), (args, stderr)
