"""Every ``circleact.selftest`` check, collected as a test of its own."""

import pytest

from circleact import selftest


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in selftest.CHECKS]
)
def test_check(check):
    check()
