"""The package surface and the result records: each public name and each
stored field is declared once, and every copy is derived from it."""

import dataclasses

import pytest

import circleact
from circleact import bernoulli, classifier, genus, gradedtop
from circleact.classifier import ClassificationResult, ReasonCode
from circleact.gradedtop import SNFResult
from circleact.selftest import SelfTestReport


def test_package_reexports_every_module_name_once():
    for module in (bernoulli, classifier, genus, gradedtop):
        for name in module.__all__:
            assert circleact.__all__.count(name) == 1, name
            assert getattr(circleact, name) is getattr(module, name), name
    assert sorted(circleact.__all__) == sorted(
        ["__version__", *bernoulli.__all__, *classifier.__all__, *genus.__all__,
         *gradedtop.__all__]
    )


def test_derived_flags_are_not_stored():
    for cls, flag in ((ClassificationResult, "admits"), (SNFResult, "rank"),
                      (SelfTestReport, "failed")):
        assert flag not in {f.name for f in dataclasses.fields(cls)}, (cls, flag)


@pytest.mark.parametrize("reason", list(ReasonCode))
def test_admits_follows_the_reason(reason):
    result = ClassificationResult(reason=reason, divisors=None, witness=None, orbit=None)
    assert result.admits is reason.admits
    assert result.to_json_dict()["admits"] is reason.admits
    # a verdict contradicting its reason used to construct and serialize
    with pytest.raises(TypeError):
        ClassificationResult(
            admits=not reason.admits, reason=reason, divisors=None, witness=None, orbit=None
        )

