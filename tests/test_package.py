"""The package surface and the result records: each public name and each
stored field is declared once, and every copy is derived from it."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_public_surface_is_pinned():
    # a new public name is added here on purpose, or not at all
    assert sorted(circleact.__all__) == [
        "BernoulliTable", "ClassificationResult", "DivisorReport", "Family", "GradedGroup",
        "IntMatrix", "InvalidInvariantsError", "ManifoldInvariants", "OrbitModel",
        "OrbitRecipe", "PontrjaginPolynomial", "ReasonCode", "SNFResult", "Witness",
        "__version__", "alpha", "bernoulli_ms", "classify", "cokernel",
        "divisibility_transfer", "gysin_total_space", "im_j_order", "multiplicative_sequence",
        "required_divisor", "smith_normal_form", "standard_orbit_model", "table_rows",
        "validate",
    ]


def test_derived_flags_are_not_stored():
    for cls, flag in ((ClassificationResult, "admits"), (SNFResult, "rank"),
                      (SelfTestReport, "failed")):
        assert flag not in set(cls.__slots__), (cls, flag)


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



def _imported_modules(*args):
    """Every module a fresh ``python -S`` imports while running ``args``,
    read from its ``-X importtime`` report.  ``-S`` keeps the host's site
    hooks out of the list; this checkout's package comes from PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(circleact.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [["-c", "import circleact.cli"], ["-m", "circleact", "imj", "--k", "3"]],
    ids=["import", "imj"],
)
def test_cold_start_skips_dataclasses_and_inspect(args):
    """The records are hand-written, so starting the CLI loads neither
    ``dataclasses`` nor the ``inspect`` it pulls in (about two thirds of
    the import time when they were used)."""
    modules = _imported_modules(*args)
    assert "circleact.cli" in modules
    assert not {"dataclasses", "inspect"} & modules
