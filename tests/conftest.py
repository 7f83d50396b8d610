"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import circleact


@pytest.fixture
def package_env():
    """The environment for a child interpreter that imports this checkout's
    package: this process's, with the package's directory first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(circleact.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return env
