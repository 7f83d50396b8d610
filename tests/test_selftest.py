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


@pytest.mark.parametrize("names", [5, [5], ["surgery", None]], ids=["int", "int-name", "none-name"])
def test_run_refuses_a_name_that_is_not_a_string(names, monkeypatch):
    # each died with a bare TypeError from iterating an int or from ``in``
    ran = []
    monkeypatch.setattr(selftest, "CHECKS", [(name, lambda name=name: ran.append(name))
                                             for name, _ in selftest.CHECKS])
    with pytest.raises(ValueError, match=r"^names must be a list of substrings, got "):
        selftest.run(names)
    assert ran == []


def test_run_reads_an_iterator_of_names_once():
    # the names were read twice, so an iterator of them ran no check at all
    report = selftest.run(iter(["surgery"]))
    assert report.passed >= 1 and report == selftest.run(["surgery"])
