import json
import random
import warnings
from math import factorial

import pytest

import circleact.classifier as classifier
from circleact._record import _Table
from circleact.classifier import (
    InvalidInvariantsError,
    ManifoldInvariants,
    ReasonCode,
    Witness,
    classify,
    required_divisor,
    validate,
)
from circleact import selftest
from circleact.bernoulli import im_j_order
from circleact.gradedtop import Family, standard_orbit_model


def test_kervaire_coefficient():
    # k = (n+1)/4 is even for every n = 7 (mod 8), so a_k = 1 and the
    # realizability divisor is (2k-1)!, doubled to 12 in dimension 7
    for n in range(7, 200, 8):
        report = required_divisor(n)
        assert (report.k % 2, report.a_k) == (0, 1)
        assert report.kervaire == (12 if n == 7 else factorial(2 * report.k - 1))


def test_required_divisor_n7():
    report = required_divisor(7)
    assert (report.k, report.a_k) == (2, 1)
    assert report.kervaire == 12
    assert report.j_index == 240
    assert report.required == 1440


def test_classify_computes_the_divisor_once(monkeypatch):
    original = classifier.required_divisor
    calls = []

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(classifier, "required_divisor", counting)
    result = classify(ManifoldInvariants(n=15, b_n=3, l=2419200))
    assert result.admits and calls == [15]


@pytest.fixture
def empty_step_table(monkeypatch):
    """The shared (2k-1)! table emptied for one test, restored after it."""
    table = _Table(classifier._step_factorials.extend)
    monkeypatch.setattr(classifier, "_step_factorials", table)
    return table


def _count_factorials(monkeypatch):
    """Rebind classifier.factorial to a wrapper that records its arguments."""
    calls = []

    def counting(m):
        calls.append(m)
        return factorial(m)

    monkeypatch.setattr(classifier, "factorial", counting)
    return calls


def test_required_divisor_builds_one_factorial(monkeypatch, empty_step_table):
    # ((n-1)/2)! and (2k-1)! are the same number: once the table covers k it
    # is one read, and past the cap (k = 514 at n = 2055) one math.factorial
    calls = _count_factorials(monkeypatch)
    required_divisor(2047)
    for n in (7, 15, 23, 1023, 2055):
        calls.clear()
        report = required_divisor(n)
        assert calls == ([(n - 1) // 2] if n > 2047 else [])
        assert report.required == factorial((n - 1) // 2) * report.j_index


def test_classify_sweep_never_calls_math_factorial(monkeypatch, empty_step_table):
    calls = _count_factorials(monkeypatch)
    ns = list(range(7, 1024, 8))
    random.Random(7).shuffle(ns)
    for n in ns:
        classify(ManifoldInvariants(n=n, b_n=3, l=0))
    assert calls == []
    assert len(empty_step_table.state[0]) == 256


@pytest.mark.parametrize("filled_to", [0, 100, 512])
def test_required_divisor_is_the_same_from_any_table_state(empty_step_table, filled_to):
    # cold, partly filled and full: each n = 7 (mod 8) up to 2063, on both
    # sides of the cap, against ((n-1)/2)! from math.factorial
    if filled_to:
        classifier._step_factorial(filled_to)
    for n in range(7, 2064, 8):
        k = (n + 1) // 4
        step = factorial((n - 1) // 2)
        j_index = im_j_order(k)
        assert required_divisor(n).to_json_dict() == {
            "n": n, "k": k, "a_k": 1, "kervaire": 2 * step if n == 7 else step,
            "j_index": j_index, "required": step * j_index,
        }, n


def test_required_divisor_n15():
    report = required_divisor(15)
    assert report.kervaire == 5040
    assert report.j_index == 480
    assert report.required == 2419200


def test_required_divisor_n23():
    report = required_divisor(23)
    assert report.j_index == 65520
    assert report.required == factorial(11) * 65520
    assert report.required == 2615348736000


def test_required_divisor_rejects_other_dimensions():
    for n in (5, 8, 9, 13, 14):
        with pytest.raises(ValueError, match="7"):
            required_divisor(n)


def test_kervaire_divides_required_up_to_47():
    selftest._check_kervaire_divides_required()


def test_validate_examples():
    assert validate(ManifoldInvariants(15, 3, 5040)) == []
    assert validate(ManifoldInvariants(15, 3, 100)) == ["l not divisible by 5040"]
    assert validate(ManifoldInvariants(7, 1, 6)) == ["l not divisible by 12"]


def test_validate_raises_when_the_factorial_overflows():
    # the divisor report of n = 7 (mod 8) needs ((n-1)/2)!, which
    # math.factorial refuses beyond the platform's C long
    with pytest.raises(OverflowError):
        validate(ManifoldInvariants(8 * 10**20 + 7, 1, 0))


def test_validate_more_violations():
    assert any("b_n" in v for v in validate(ManifoldInvariants(15, -1, 0)))
    assert any("nonnegative" in v for v in validate(ManifoldInvariants(15, 1, -5040)))
    assert any("b_n = 0" in v for v in validate(ManifoldInvariants(15, 0, 5040)))
    assert validate(ManifoldInvariants(8, 1, 0)) != []
    assert validate(ManifoldInvariants(9, 1, 0)) != []  # 1 mod 8 out of scope
    assert validate(ManifoldInvariants(13, 2)) == []


def test_classify_n5_always_admits():
    result = classify(ManifoldInvariants(13, 3))
    assert result.admits and result.reason is ReasonCode.N5_ALWAYS
    assert result.divisors is None
    assert result.witness == Witness(sphere_product_copies=3)
    assert result.orbit.family is Family.CPHALF_TIMES_SPHERE
    assert result.orbit.handles == 1
    assert result.orbit.divisibility is None


def test_classify_even_betti():
    result = classify(ManifoldInvariants(15, 2, 0))
    assert result.admits and result.reason is ReasonCode.EVEN_L_ZERO
    assert result.witness == Witness(sphere_product_copies=2)
    assert result.orbit.family is Family.CPN and result.orbit.handles == 1

    result = classify(ManifoldInvariants(15, 2, 5040))
    assert not result.admits and result.reason is ReasonCode.EVEN_L_NONZERO
    assert result.orbit is None
    assert result.witness == Witness(sphere_product_copies=1, bundle_divisibility=5040)


def test_classify_odd_betti():
    result = classify(ManifoldInvariants(15, 3, 2419200))
    assert result.admits and result.reason is ReasonCode.ODD_DIVISIBLE
    assert result.witness == Witness(sphere_product_copies=2, bundle_divisibility=2419200)
    assert result.orbit.family is Family.CPHALF_TIMES_SPHERE
    assert result.orbit.handles == 1 and result.orbit.divisibility == 2419200

    result = classify(ManifoldInvariants(15, 3, 5040))
    assert not result.admits and result.reason is ReasonCode.ODD_NOT_DIVISIBLE


def test_classify_odd_betti_zero_class():
    # 0 is divisible by everything, so the trivial bundle case admits
    result = classify(ManifoldInvariants(15, 3, 0))
    assert result.admits and result.reason is ReasonCode.ODD_DIVISIBLE
    assert result.orbit.divisibility == 0


def test_omitted_l_classifies_as_zero_for_n7():
    assert classify(ManifoldInvariants(15, 3)).reason is ReasonCode.ODD_DIVISIBLE
    assert classify(ManifoldInvariants(15, 2)).reason is ReasonCode.EVEN_L_ZERO


def test_classify_without_a_remark_has_no_notes():
    assert classify(ManifoldInvariants(13, 2, 0)).notes == ()


def test_classify_homotopy_sphere_flagged():
    result = classify(ManifoldInvariants(7, 0, 0))
    assert result.admits and result.reason is ReasonCode.EVEN_L_ZERO
    assert result.witness == Witness(sphere_product_copies=0)
    assert any("homotopy sphere" in note for note in result.notes)


def test_classify_raises_with_violations():
    with pytest.raises(InvalidInvariantsError) as err:
        classify(ManifoldInvariants(7, 1, 6))
    assert err.value.violations == ["l not divisible by 12"]


@pytest.mark.parametrize(
    "args, field",
    [
        # a float b_n used to classify as ODD_DIVISIBLE with 2.0 copies
        ((15, 3.0, 2419200), "b_n"),
        ((13, 1.5), "b_n"),
        ((7, True, 0), "b_n"),
        # a float n used to die with a bare TypeError from factorial
        ((15.0, 1, 0), "n"),
        ((7, 1, 1440.0), "l"),
        ((7, 1, "1440"), "l"),
        (("7", 1), "n"),
    ],
)
def test_invariants_must_be_ints(args, field):
    with pytest.raises(ValueError, match=f"^{field} must be of type int"):
        ManifoldInvariants(*args)


def test_invariants_keep_int_and_none():
    assert ManifoldInvariants(13, 2).l is None
    assert ManifoldInvariants(15, 3, 2419200).b_n == 3


def test_classify_ignores_l_for_n5():
    selftest._check_l_ignored_for_n5()


def test_classify_says_l_is_ignored_in_its_notes_without_warning():
    # the notes carry the n = 5 (mod 8) message; no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = classify(ManifoldInvariants(13, 3, 7))
    assert result.reason is ReasonCode.N5_ALWAYS
    assert result.notes == ("l ignored for n = 5 (mod 8)",)


@pytest.mark.parametrize("n", [7, 15])
def test_truth_table_matches_parity_predicate(n):
    selftest._check_parity_predicate(dims=(n,))


@pytest.mark.parametrize("n", [7, 15])
def test_round_trip_through_gysin(n):
    selftest._check_classifier_gysin_consistency(dims=(n,))


def test_orbit_recipe_descriptions():
    recipe = classify(ManifoldInvariants(15, 3, 2419200)).orbit
    text = recipe.describe()
    assert "S^15 x S^15" in text and "CP^7 x S^16" in text and "2419200" in text
    sphere_recipe = classify(ManifoldInvariants(7, 0, 0)).orbit
    assert sphere_recipe.core_description() == "CP^7"
    assert "#_" not in sphere_recipe.describe()


def test_result_json_schema():
    result = classify(ManifoldInvariants(15, 3, 2419200))
    data = json.loads(json.dumps(result.to_json_dict()))
    assert set(data) == {"admits", "reason", "divisors", "witness", "orbit", "notes"}
    assert data["admits"] is True
    assert data["reason"] == "ODD_DIVISIBLE"
    assert data["divisors"]["required"] == 2419200
    assert data["witness"] == {
        "sphere_product_copies": 2,
        "bundle_divisibility": 2419200,
    }
    assert data["orbit"]["family"] == "CPHALF_TIMES_SPHERE"


def test_reason_code_admits_property():
    admitting = {ReasonCode.N5_ALWAYS, ReasonCode.EVEN_L_ZERO, ReasonCode.ODD_DIVISIBLE}
    for code in ReasonCode:
        assert code.admits == (code in admitting)


def test_euler_char_cp():
    # chi(CP^n) = n + 1, read from the orbit model as an alternating rank
    # sum; each handle S^n x S^n (n odd) lowers it by 2
    for n in (5, 7, 9, 15, 21):
        for r in (0, 1, 3):
            ranks = standard_orbit_model(n, Family.CPN, r).cohomology.ranks
            assert sum(ranks[::2]) - sum(ranks[1::2]) == n + 1 - 2 * r


def test_surgery_obstruction_parity():
    selftest._check_surgery_parity()


def test_big_l_values_stay_exact():
    # l far beyond 64 bits must not lose precision anywhere
    required = required_divisor(23).required
    big = required * (10 ** 30)
    result = classify(ManifoldInvariants(23, 5, big))
    assert result.admits and result.orbit.divisibility == big
    off = classify(ManifoldInvariants(23, 5, big + required_divisor(23).kervaire))
    assert not off.admits
