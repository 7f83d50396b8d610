"""The package surface and the result records: each public name and each
stored field is declared once, and every copy is derived from it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import circleact
from circleact import bernoulli, classifier, genus, gradedtop
from circleact.classifier import ClassificationResult, ReasonCode
from circleact.gradedtop import OrbitModel, SNFResult
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
                      (SelfTestReport, "failed"), (OrbitModel, "n")):
        assert flag not in set(cls.__slots__), (cls, flag)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: circleact.gysin_total_space((1, 0, 1)),
         r"^model must be of type OrbitModel, got \(1, 0, 1\)$"),
        (lambda: circleact.divisibility_transfer("m", 1), "^model must be of type OrbitModel, got 'm'$"),
        (lambda: circleact.smith_normal_form([[1]]), r"^mat must be of type IntMatrix, got \[\[1\]\]$"),
        (lambda: circleact.cokernel([[2]]), r"^mat must be of type IntMatrix, got \[\[2\]\]$"),
        (lambda: circleact.classify((7, 1, 0)),
         r"^inv must be of type ManifoldInvariants, got \(7, 1, 0\)$"),
        (lambda: circleact.validate((7, 1, 0)),
         r"^inv must be of type ManifoldInvariants, got \(7, 1, 0\)$"),
    ],
    ids=["gysin_total_space", "divisibility_transfer", "smith_normal_form", "cokernel",
         "classify", "validate"],
)
def test_entry_points_name_an_argument_of_the_wrong_type(call, message):
    # each died with a bare AttributeError: '<type>' object has no attribute ...
    with pytest.raises(ValueError, match=message):
        call()


# the cohomology of CP^5, which a cup_t of the wrong shape is paired with
_COHOMOLOGY = gradedtop.GradedGroup((1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: genus.PontrjaginPolynomial(2, 5), "terms"),
        (lambda: gradedtop.OrbitModel(_COHOMOLOGY, 5), "cup_t"),
        (lambda: gradedtop.OrbitModel(_COHOMOLOGY, [[1]]), "cup_t"),
        (lambda: gradedtop.GradedGroup(5), "ranks"),
        (lambda: gradedtop.IntMatrix.from_rows([1]), "rows"),
        (lambda: gradedtop.IntMatrix(2, 2, 5), "entries"),
        (lambda: gradedtop.IntMatrix(1, 1, (5,)), "entries"),
    ],
    ids=["PontrjaginPolynomial", "OrbitModel-int", "OrbitModel-rows", "GradedGroup",
         "IntMatrix.from_rows", "IntMatrix-int", "IntMatrix-row"],
)
def test_constructors_name_a_field_of_the_wrong_shape(call, field):
    # each died with a bare TypeError or AttributeError, or a ValueError
    # from dict that named no field
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call()


def test_only_the_record_module_stores_fields():
    # a record field has one way to be stored: the store _record generates
    # for its class, and no other module reaches a slot's setter
    found = []
    for path in sorted(Path(circleact.__file__).parent.glob("*.py")):
        if path.name == "_record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and node.id in ("_set", "_put"):
                found.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in ("_set", "_put"):
                found.append((path.name, "import", node.name))
            elif isinstance(node, ast.Attribute) and node.attr in ("_put", "__set__"):
                found.append((path.name, node.lineno, node.attr))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                found.append((path.name, node.lineno, "object.__setattr__"))
    assert found == []


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



def _run_fresh(env, code):
    """Run ``code`` in a fresh interpreter with ``env``; it passes when the
    code raises nothing."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


_LAYERS = _BERNOULLI, _CLASSIFIER, _GENUS, _GRADEDTOP = (
    "circleact.bernoulli", "circleact.classifier", "circleact.genus", "circleact.gradedtop"
)


def test_import_loads_no_layer(package_env):
    _run_fresh(
        package_env,
        "import sys, circleact\n"
        f"assert not set({_LAYERS!r}) & set(sys.modules), sorted(sys.modules)\n"
        "circleact.__version__\n"
        "assert not hasattr(circleact, '_no_such_name')\n"
        f"assert not set({_LAYERS!r}) & set(sys.modules), sorted(sys.modules)\n"
    )


def test_star_import_binds_exactly_all(package_env):
    _run_fresh(
        package_env,
        "import circleact\n"
        "from circleact import bernoulli, classifier, genus, gradedtop\n"
        "bound = {}\n"
        "exec('from circleact import *', bound)\n"
        "del bound['__builtins__']\n"
        "assert sorted(bound) == sorted(circleact.__all__), sorted(bound)\n"
        "for layer in (bernoulli, classifier, genus, gradedtop):\n"
        "    for name in layer.__all__:\n"
        "        assert bound[name] is getattr(layer, name), name\n"
        "assert bound['__version__'] == circleact.__version__\n"
    )


def test_dir_lists_the_public_surface(package_env):
    _run_fresh(
        package_env,
        "import circleact\n"
        "listed = dir(circleact)\n"
        "assert set(circleact.__all__) <= set(listed), set(circleact.__all__) - set(listed)\n"
    )


def test_unknown_attribute_is_an_attribute_error(package_env):
    _run_fresh(
        package_env,
        "import circleact\n"
        "try:\n"
        "    circleact.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert \"'no_such_name'\" in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "assert not hasattr(circleact, 'no_such_name')\n"
        "assert circleact.classify is circleact.classifier.classify\n"
    )


def test_a_rebinding_survives_a_missed_lookup(package_env):
    # as monkeypatch.setattr does: read the name (loading the layers), then
    # rebind it; the layers load once, so a later miss binds nothing again
    _run_fresh(
        package_env,
        "import circleact\n"
        "circleact.classify\n"
        "circleact.classify = fake = object()\n"
        "assert not hasattr(circleact, 'no_such_name')\n"
        "dir(circleact)\n"
        "assert circleact.classify is fake\n"
    )


def test_family_is_one_class_under_every_name(package_env):
    _run_fresh(
        package_env,
        "import circleact, circleact.gradedtop, circleact.classifier\n"
        "assert circleact.gradedtop.Family is circleact.Family\n"
        "assert circleact.classifier.Family is circleact.Family\n"
    )


def test_records_round_trip_through_pickle_and_deepcopy(package_env):
    _run_fresh(
        package_env,
        "import copy, pickle, circleact\n"
        "result = circleact.classify(circleact.ManifoldInvariants(15, 3, 2419200))\n"
        "for obj in (circleact.Family.CPN, result.orbit, result):\n"
        "    assert pickle.loads(pickle.dumps(obj)) == obj, obj\n"
        "    assert copy.deepcopy(obj) == obj, obj\n"
        "assert pickle.loads(pickle.dumps(circleact.Family.CPN)) is circleact.Family.CPN\n"
        "assert pickle.loads(pickle.dumps(result)).orbit.orbit_model() == result.orbit.orbit_model()\n"
    )


def _imported_modules(env, *args, code=0):
    """Every module a fresh ``python -S`` imports while running ``args``
    with ``env``, read from its ``-X importtime`` report; the run must exit
    with ``code``.  ``-S`` keeps the host's site hooks out of the list; this
    checkout's package comes from PYTHONPATH."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


_CLI = ["-m", "circleact"]

# (argv, modules it must load, modules it must not load[, exit code if not 0])
_COLD_STARTS = {
    "import": (["-c", "import circleact.cli"], {"circleact.cli"},
               {*_LAYERS, "argparse", "json", "fractions"}),
    # the import system asks the package for the name before it imports
    # the submodule
    "from-import": (["-c", "from circleact import cli"], {"circleact.cli"},
                    {*_LAYERS, "argparse", "json", "fractions"}),
    "imj": ([*_CLI, "imj", "--k", "3"], {_BERNOULLI},
            {_CLASSIFIER, _GRADEDTOP, _GENUS, "fractions", "json"}),
    "classify": ([*_CLI, "classify", "--n", "15", "--bn", "3", "--l", "2419200"],
                 {_CLASSIFIER, _BERNOULLI}, {_GRADEDTOP, _GENUS, "fractions"}),
    "divisor": ([*_CLI, "divisor", "--n", "15", "--format", "json"],
                {_CLASSIFIER, "json"}, {_GRADEDTOP, _GENUS, "fractions"}),
    "gysin": ([*_CLI, "gysin", "--n", "7", "--family", "CPHALF", "--r", "1"],
              {_GRADEDTOP}, {_BERNOULLI, _CLASSIFIER, _GENUS}),
    "ahat": ([*_CLI, "ahat", "--k", "3"], {_GENUS}, {_CLASSIFIER, _GRADEDTOP}),
    "bernoulli": ([*_CLI, "bernoulli", "--max", "5"], {_BERNOULLI, "fractions"},
                  {_CLASSIFIER, _GRADEDTOP}),
    # a domain error prints the JSON the error carries, so it loads no
    # layer beyond the one that raised it
    "gysin-error": ([*_CLI, "gysin", "--n", "6", "--family", "CPN", "--r", "0"],
                    {_GRADEDTOP, "json"}, {_BERNOULLI, _CLASSIFIER, _GENUS}, 1),
    "imj-error": ([*_CLI, "imj", "--k", "0"], {_BERNOULLI, "json"},
                  {_CLASSIFIER, _GRADEDTOP, _GENUS}, 1),
    "ahat-error": ([*_CLI, "ahat", "--k", "0"], {_GENUS, "json"}, {_CLASSIFIER, _GRADEDTOP}, 1),
    "bernoulli-error": ([*_CLI, "bernoulli", "--max", "0"], {_BERNOULLI, "json"},
                        {_CLASSIFIER, _GRADEDTOP, _GENUS}, 1),
}


@pytest.mark.parametrize("case", list(_COLD_STARTS))
def test_cold_start_skips_dataclasses_and_inspect(case, package_env):
    """The records are hand-written, so starting the CLI loads neither
    ``dataclasses`` nor the ``inspect`` it pulls in.  Nor does importing
    ``circleact.cli`` load any layer, ``argparse`` or ``json``: each
    subcommand loads only the layers it runs."""
    args, loads, skips, *code = _COLD_STARTS[case]
    modules = _imported_modules(package_env, *args, code=code[0] if code else 0)
    assert {"circleact.cli", *loads} <= modules
    assert not {"dataclasses", "inspect", *skips} & modules

