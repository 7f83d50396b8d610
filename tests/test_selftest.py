"""Every ``circleact.selftest`` check, collected as a test of its own."""

import pytest

from circleact import selftest


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in selftest.CHECKS]
)
def test_check(check):
    check()


@pytest.mark.parametrize("names", ["surgery", "zzz"])
def test_run_refuses_a_bare_string(names):
    # read as its characters, "surgery" would run every check (each letter
    # is in some name) and "zzz" the one check whose name contains a "z"
    with pytest.raises(ValueError, match=f"^names must be .* string '{names}'$"):
        selftest.run(names)
