import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

import circleact.bernoulli as bernoulli
import circleact.genus as genus
from circleact.classifier import required_divisor
from circleact.genus import PontrjaginPolynomial, alpha, multiplicative_sequence
from circleact.selftest import (
    _check_alpha_three_way,
    _check_bound_by_brute_force,
    _check_multiplicativity,
    _check_pairing_integrality,
    brute_force_bound,
    series_coefficients,
)


def test_partition_basics():
    # a monomial is keyed by its part tuple, and terms are ordered by that
    # tuple, largest first
    poly = PontrjaginPolynomial(4, {(1, 1, 1, 1): 3, (2, 1, 1): Fraction(1, 2), (4,): 0, (3, 1): 5})
    assert poly.terms == {(3, 1): 5, (2, 1, 1): Fraction(1, 2), (1, 1, 1, 1): 3}
    assert list(poly.terms) == [(3, 1), (2, 1, 1), (1, 1, 1, 1)]
    assert all(type(c) is Fraction for c in poly.terms.values())
    assert poly.to_json_dict() == {"k": 4, "terms": {"3,1": "5", "2,1,1": "1/2", "1,1,1,1": "3"}}
    assert str(poly) == "(5)*p3*p1 + (1/2)*p2*p1^2 + (3)*p1^4"
    assert poly.coefficient((2, 1, 1)) == Fraction(1, 2)
    assert poly.coefficient((4,)) == 0


def test_partition_validation():
    for bad, message in (((1, 2), "weakly decreasing"), ((2, 0), "positive"), ((2, -1, 1), "positive")):
        with pytest.raises(ValueError, match=f"^partition parts must be {message}$"):
            PontrjaginPolynomial(2, {bad: Fraction(1)})
        with pytest.raises(ValueError, match=f"^partition parts must be {message}$"):
            multiplicative_sequence(2).coefficient(bad)


def test_char_coeff_examples():
    assert series_coefficients(2) == [1, Fraction(-1, 24), Fraction(7, 5760)]


def test_char_coeff_frozen_table():
    # frozen from the displayed formula evaluated by hand
    expected = {
        3: Fraction(-31, 967680),
        4: Fraction(127, 154828800),
        5: Fraction(-73, 3503554560),
    }
    lam = series_coefficients(5)
    for m, value in expected.items():
        assert lam[m] == value


def test_degree_one_polynomial():
    poly = multiplicative_sequence(1)
    assert poly.terms == {(1,): Fraction(-1, 24)}


def test_degree_two_polynomial():
    poly = multiplicative_sequence(2)
    assert poly.terms == {
        (2,): Fraction(-1, 1440),
        (1, 1): Fraction(7, 5760),
    }


def test_degree_three_polynomial():
    # (-16 p3 + 44 p2 p1 - 31 p1^3) / 967680, a published table value
    poly = multiplicative_sequence(3)
    assert poly.coefficient((3,)) == Fraction(-1, 60480)
    assert poly.coefficient((2, 1)) == Fraction(11, 241920)
    assert poly.coefficient((1, 1, 1)) == Fraction(-31, 967680)


def test_degree_four_polynomial():
    # (381 p1^4 - 904 p1^2 p2 + 208 p2^2 + 512 p1 p3 - 192 p4) / 464486400
    poly = multiplicative_sequence(4)
    denom = 464486400
    assert poly.coefficient((1, 1, 1, 1)) == Fraction(381, denom)
    assert poly.coefficient((2, 1, 1)) == Fraction(-904, denom)
    assert poly.coefficient((2, 2)) == Fraction(208, denom)
    assert poly.coefficient((3, 1)) == Fraction(512, denom)
    assert poly.coefficient((4,)) == Fraction(-192, denom)


# frozen from the formal-root expansion (prod Q(x_i) over k roots rewritten
# in elementary symmetric polynomials) that computed the sequence before
# the partition-basis recurrence; keys and their order are the JSON output
FROZEN_HIGHER_DEGREES = {
    5: {
        "5": "-1/95800320",
        "4,1": "53/1916006400",
        "3,2": "1/45619200",
        "3,1,1": "-61/1277337600",
        "2,2,1": "-311/7664025600",
        "2,1,1,1": "1073/15328051200",
        "1,1,1,1,1": "-73/3503554560",
    },
    6: {
        "6": "-691/2615348736000",
        "5,1": "1219/1743565824000",
        "4,2": "5767/10461394944000",
        "4,1,1": "-16759/13948526592000",
        "3,3": "703/2615348736000",
        "3,2,1": "-3491/1743565824000",
        "3,1,1,1": "36221/20922789888000",
        "2,2,2": "-4009/13948526592000",
        "2,2,1,1": "76247/33476463820800",
        "2,1,1,1,1": "-1540453/669529276416000",
        "1,1,1,1,1,1": "1414477/2678117105664000",
    },
    7: {
        "7": "-1/149448499200",
        "6,1": "101/5706215424000",
        "5,2": "1/71735279616",
        "5,1,1": "-2543/83691159552000",
        "4,3": "283/20922789888000",
        "4,2,1": "-67/1328431104000",
        "4,1,1,1": "2921/66952927641600",
        "3,3,1": "-97/3923023104000",
        "3,2,2": "-5359/251073478656000",
        "3,2,1,1": "56743/502146957312000",
        "3,1,1,1,1": "-8509/148784283648000",
        "2,2,2,1": "33463/1004293914624000",
        "2,2,1,1,1": "-9161/89270570188800",
        "2,1,1,1,1,1": "1151477/16068702633984000",
        "1,1,1,1,1,1,1": "-8191/612141052723200",
    },
}


def test_higher_degrees_match_frozen_table():
    for k, terms in FROZEN_HIGHER_DEGREES.items():
        data = multiplicative_sequence(k).to_json_dict()
        assert data == {"k": k, "terms": terms}
        assert list(data["terms"]) == list(terms)


def test_p1_power_coefficient_is_series_coefficient():
    # one formal root: K(1 + x) = Q(x), so the p1^k coefficient is lam_k
    lam = series_coefficients(10)
    for k in range(1, 11):
        assert multiplicative_sequence(k).coefficient((1,) * k) == lam[k]


def test_polynomial_terms_have_exact_weight():
    for k in range(1, 6):
        poly = multiplicative_sequence(k)
        assert all(type(parts) is tuple and sum(parts) == k for parts in poly.terms)
        assert all(c != 0 for c in poly.terms.values())


def test_polynomial_degree_starts_at_one():
    with pytest.raises(ValueError):
        multiplicative_sequence(0)
    with pytest.raises(ValueError):
        PontrjaginPolynomial(0, {})


@pytest.mark.parametrize("k", [0, -3])
def test_sequence_refuses_a_degree_below_one_before_the_cache(k):
    # the polynomial constructor would refuse it too, after the recurrence
    # had memoized a part of weight k
    cached = genus._sequence_part.cache_info().currsize
    with pytest.raises(ValueError, match="^degree starts at 1$"):
        multiplicative_sequence(k)
    assert genus._sequence_part.cache_info().currsize == cached


@pytest.mark.parametrize("k", [genus._DEGREE_CAP + 1, 400, 10**100])
def test_sequence_refuses_a_degree_above_the_cap_before_any_work(k):
    # k = 340 and above ran the recurrence, which recurses once per weight,
    # out of Python stack (RecursionError); alpha does not recurse, no cap
    cached = genus._sequence_part.cache_info().currsize
    with pytest.raises(ValueError) as info:
        multiplicative_sequence(k)
    assert str(info.value) == "degree above 100 is refused: one term per partition of k"
    assert genus._sequence_part.cache_info().currsize == cached
    assert alpha(400) == -bernoulli.bernoulli_ms(400) / (2 * factorial(800))


def test_polynomial_degree_is_an_exact_int_that_cannot_be_reassigned():
    # PontrjaginPolynomial(2.0, {}) constructed, and degree could be set
    for bad in (2.0, True, "2"):
        with pytest.raises(ValueError, match=f"^degree must be of type int, got {bad!r}$"):
            PontrjaginPolynomial(bad, {})
    poly = multiplicative_sequence(2)
    with pytest.raises(AttributeError):
        poly.degree = 9
    with pytest.raises(AttributeError):
        poly._terms = {}
    poly.terms[(2,)] = Fraction(1)  # a fresh dict: the polynomial stays
    assert poly == multiplicative_sequence(2) and poly.degree == 2


def test_polynomial_rejects_wrong_weight():
    with pytest.raises(ValueError, match="^term 2 has weight 2, expected 3$"):
        PontrjaginPolynomial(3, {(2,): Fraction(1)})
    with pytest.raises(ValueError, match="^term 2,1 has weight 3, expected 2$"):
        PontrjaginPolynomial(2, {(1, 1): Fraction(1), (2, 1): Fraction(1)})


def test_json_serialization_is_ordered():
    assert multiplicative_sequence(2).to_json_dict() == {
        "k": 2,
        "terms": {"2": "-1/1440", "1,1": "7/5760"},
    }


def test_alpha_examples():
    assert alpha(1) == Fraction(-1, 24)
    assert alpha(2) == Fraction(-1, 1440)
    assert alpha(4) == Fraction(-1, 2419200)


def test_alpha_cross_check_guard_fires(monkeypatch):
    # alpha is cross-checked by the selftest check, not on every call; one
    # wrong value at the top of its range must fail the check
    real = genus.alpha
    monkeypatch.setattr(genus, "alpha", lambda k: real(k) + (k == 12) * Fraction(1, 10**40))
    with pytest.raises(AssertionError):
        _check_alpha_three_way()


def test_alpha_is_the_closed_form_alone(monkeypatch):
    def refuse(k):
        raise AssertionError("alpha must not build the sequence")

    monkeypatch.setattr(genus, "multiplicative_sequence", refuse)
    for k in range(1, 41):
        assert alpha(k) == -bernoulli.bernoulli_ms(k) / (2 * factorial(2 * k))


def test_degree_k_reads_the_bernoulli_numbers_up_to_k(monkeypatch):
    read = []
    monkeypatch.setattr(genus, "bernoulli_ms", lambda m: (read.append(m), bernoulli.bernoulli_ms(m))[1])
    genus._log_scalar.cache_clear()
    genus._sequence_part.cache_clear()
    multiplicative_sequence(5)
    assert sorted(read) == [1, 2, 3, 4, 5]


def test_series_oracle_uses_no_bernoulli_number(monkeypatch):
    # the p1^m coefficient of the sequence is lam_m (one formal root)
    expected = [1] + [multiplicative_sequence(m).coefficient((1,) * m) for m in range(1, 13)]

    def refuse(k):
        raise AssertionError("the oracle must not read a Bernoulli number")

    monkeypatch.setattr(bernoulli, "bernoulli_ms", refuse)
    monkeypatch.setattr(genus, "bernoulli_ms", refuse)
    assert series_coefficients(12) == expected
    assert expected[:3] == [1, Fraction(-1, 24), Fraction(7, 5760)]


def test_alpha_rejects_zero():
    # its own message, not the Bernoulli table's "index starts at 1"
    with pytest.raises(ValueError, match="^degree starts at 1$"):
        alpha(0)


def test_alpha_argument_is_an_exact_int():
    # checked before the memo of the log scalar, where True == 1 would be
    # served the entry of k = 1; "1" was a bare TypeError
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^k must be of type int, got {bad!r}$"):
            alpha(bad)


def test_alpha_three_way_agreement():
    _check_alpha_three_way()


def test_twisted_pairing_examples():
    # the pairing with a middle class of divisibility d is alpha_k * d
    assert alpha(1) * 24 == -1
    assert alpha(2) * 0 == 0
    assert alpha(2) * 1440 == -1


def test_integrality_bound_examples():
    assert brute_force_bound(1) == 24
    assert brute_force_bound(2) == required_divisor(7).required == 1440
    assert required_divisor(15).required == 2419200


def test_pairing_integral_on_bound_multiples():
    _check_pairing_integrality()


def test_integrality_bound_by_brute_force():
    _check_bound_by_brute_force()


def test_sequence_is_multiplicative():
    _check_multiplicativity()


def test_multiplicativity_check_detects_a_perturbed_coefficient(monkeypatch):
    original = genus.multiplicative_sequence

    def perturbed(k):
        poly = original(k)
        if k != 4:
            return poly
        terms = poly.terms
        terms[(2, 1, 1)] += Fraction(1, 10**9)
        return PontrjaginPolynomial(k, terms)

    monkeypatch.setattr(genus, "multiplicative_sequence", perturbed)
    with pytest.raises(AssertionError):
        _check_multiplicativity()


def test_partition_parts_must_be_ints():
    poly = multiplicative_sequence(3)
    for lookup in (lambda parts: PontrjaginPolynomial(3, {parts: Fraction(1)}), poly.coefficient):
        with pytest.raises(ValueError, match=r"^partition part 0 must be of type int, got 2\.5$"):
            lookup((2.5, 1))
        with pytest.raises(ValueError, match=r"^partition part 1 must be of type int, got True$"):
            lookup((2, True))
        with pytest.raises(ValueError, match="^partition part 0 must be of type int, got '3'$"):
            lookup(("3",))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PontrjaginPolynomial(2, {(2,): 0.1}),
         "coefficient of term 2 must be of type int or Fraction, got 0.1"),
        (lambda: PontrjaginPolynomial(2, {(2,): 1, (1, 1): True}),
         "coefficient of term 1,1 must be of type int or Fraction, got True"),
        (lambda: PontrjaginPolynomial(2, {(2,): "1/3"}),
         "coefficient of term 2 must be of type int or Fraction, got '1/3'"),
        (lambda: PontrjaginPolynomial(3, {3: 1}), "partition must be of type tuple, got 3"),
        (lambda: multiplicative_sequence(3).coefficient(3), "partition must be of type tuple, got 3"),
        (lambda: multiplicative_sequence(3).coefficient([2, 1]),
         "partition must be of type tuple, got [2, 1]"),
    ],
    ids=["float", "bool", "str", "int_key", "coefficient.int", "coefficient.list"],
)
def test_polynomial_takes_exact_coefficients_and_tuple_keys(call, message):
    # a float was stored as its binary fraction (0.1 as
    # 3602879701896397/36028797018963968), True as 1 and "1/3" as 1/3; an int
    # key died with a bare TypeError, and coefficient() took any iterable
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# The rational recurrence the integer one replaced, kept here as its pin:
# c_m from the series coefficients lam_m, power sums and sequence parts all
# with Fraction coefficients.


_LAMBDA = series_coefficients(40)


@lru_cache(maxsize=None)
def _fraction_log_coeff(m):
    acc = m * _LAMBDA[m]
    for j in range(1, m):
        acc -= j * _fraction_log_coeff(j) * _LAMBDA[m - j]
    return acc / m


def _fraction_add_product(out, a, b, scale):
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(sorted(pa + pb, reverse=True))
            out[key] = out.get(key, 0) + scale * ca * cb


@lru_cache(maxsize=None)
def _fraction_power_sum(m):
    out = {(m,): Fraction((-1) ** (m - 1) * m)}
    for i in range(1, m):
        _fraction_add_product(out, {(i,): Fraction(1)}, _fraction_power_sum(m - i), (-1) ** (i - 1))
    return out


@lru_cache(maxsize=None)
def _fraction_sequence_part(w):
    if w == 0:
        return {(): Fraction(1)}
    out = {}
    for m in range(1, w + 1):
        _fraction_add_product(
            out, _fraction_power_sum(m), _fraction_sequence_part(w - m),
            Fraction(m, w) * _fraction_log_coeff(m),
        )
    return out


def test_log_scalar_is_the_series_logarithm():
    # the closed form m c_m = (-1)^m B_m / (2 (2m)!) against log Q(t)
    # expanded from the series coefficients
    for m in range(1, 41):
        assert genus._log_scalar(m) == m * _fraction_log_coeff(m)


def test_integer_recurrence_equals_the_fraction_recurrence():
    for k in range(1, 17):
        pinned = PontrjaginPolynomial(k, _fraction_sequence_part(k))
        poly = multiplicative_sequence(k)
        assert list(poly.items()) == list(pinned.items())
        # built without the constructor's checks and sort: the checked
        # constructor makes the same record from its terms, in the same order
        checked = PontrjaginPolynomial(k, poly.terms)
        assert poly == checked and repr(poly) == repr(checked) == repr(pinned)
        assert all(type(c) is Fraction for c in poly.terms.values())
        assert poly.to_json_dict() == pinned.to_json_dict()
        assert list(poly.to_json_dict()["terms"]) == list(pinned.to_json_dict()["terms"])
