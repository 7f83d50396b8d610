"""Checks stay enforced under ``python -O``, which strips assert statements."""

import ast
import subprocess
import sys
from pathlib import Path

import circleact

PACKAGE = Path(circleact.__file__).parent


def test_library_has_no_assert_statements():
    # selftest's checks are asserts on purpose; it refuses to run under -O
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "selftest.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def test_selftest_fails_under_optimized_interpreter(package_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "circleact", "selftest"],
        env=package_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "python -O" in proc.stdout
    assert "failed 1" in proc.stdout
