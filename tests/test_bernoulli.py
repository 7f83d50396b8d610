import threading
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleact.bernoulli as bernoulli
from circleact.bernoulli import (
    BernoulliTable,
    bernoulli_ms,
    im_j_order,
    odd_half_denominator,
    table_rows,
    vsc_denominator,
)
from circleact.classifier import ManifoldInvariants, classify
from circleact.exactnum import den


def fraction_recurrence(max_index):
    """Oracle: B_1..B_max_index in the positive convention from the signed
    binomial recurrence sum_{j<=m} C(m+1, j) b_j = 0 (b_0 = 1), converted by
    B_k = (-1)^{k+1} b_{2k}.  Rational arithmetic, independent of the
    tangent numbers the library uses."""
    b = [Fraction(1)]
    for m in range(1, 2 * max_index + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [b[2 * k] if k % 2 else -b[2 * k] for k in range(1, max_index + 1)]


@pytest.fixture(scope="module")
def oracle():
    return fraction_recurrence(150)


def test_first_values():
    assert bernoulli_ms(1) == Fraction(1, 6)
    assert bernoulli_ms(2) == Fraction(1, 30)
    assert bernoulli_ms(3) == Fraction(1, 42)
    assert bernoulli_ms(4) == Fraction(1, 30)
    assert bernoulli_ms(5) == Fraction(5, 66)
    assert bernoulli_ms(6) == Fraction(691, 2730)


def test_index_starts_at_one():
    with pytest.raises(ValueError, match="index starts at 1"):
        bernoulli_ms(0)
    with pytest.raises(ValueError):
        vsc_denominator(0)


def test_vsc_examples():
    assert vsc_denominator(1) == 6  # primes 2, 3
    assert vsc_denominator(2) == 30  # primes 2, 3, 5
    assert vsc_denominator(6) == 2730  # primes 2, 3, 5, 7, 13


def test_vsc_oracle_equivalence_to_30():
    for k in range(1, 31):
        assert den(bernoulli_ms(k)) == vsc_denominator(k)


def test_positivity_and_parity_to_30():
    for k in range(1, 31):
        b = bernoulli_ms(k)
        assert b > 0
        assert b.numerator % 2 == 1
        assert b.denominator % 2 == 0


def test_j_index_values():
    # frozen after independent reduction of B_k / 4k by hand for k <= 6
    assert [im_j_order(k) for k in range(1, 7)] == [24, 240, 504, 480, 264, 65520]


def test_tangent_table_matches_fraction_recurrence(oracle):
    table = BernoulliTable()
    assert [table.value(k) for k in range(1, 151)] == oracle
    assert [bernoulli_ms(k) for k in range(1, 151)] == oracle


def test_closed_form_matches_table_denominators():
    # two independent production paths: the closed form and the tangent table
    for k in range(1, 401):
        assert im_j_order(k) == den(bernoulli_ms(k) / (4 * k)), k


def _v2(m):
    return (m & -m).bit_length() - 1


@pytest.mark.parametrize("k", [10**12, 2**40])
def test_closed_form_for_huge_k(k):
    start = time.perf_counter()
    order = im_j_order(k)
    assert time.perf_counter() - start < 1.0
    assert _v2(order) == 3 + _v2(k)
    assert order % 24 == 0


def test_closed_form_refuses_an_unproven_prime():
    # 2 * 3^54 + 1 passes every Miller-Rabin base but lies beyond the range
    # in which those bases prove primality
    with pytest.raises(ValueError, match="cannot prove"):
        im_j_order(3**54)


def test_closed_form_needs_no_table(monkeypatch):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    im_j_order(200)
    classify(ManifoldInvariants(n=1023, b_n=3, l=0))
    assert shared.max_index == 0


def test_cold_table_rows_fills_once(monkeypatch, oracle):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    extend = BernoulliTable._extend
    fills = []

    def counting(self, upto):
        fills.append((self.max_index, upto))
        extend(self, upto)

    monkeypatch.setattr(BernoulliTable, "_extend", counting)
    rows = table_rows(60)
    assert fills == [(0, 60)]
    assert [b for _, b, _, _ in rows] == oracle[:60]
    table_rows(70)  # extends by the ten new columns only
    assert fills == [(0, 60), (60, 70)]
    assert shared.value(70) == oracle[69]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_closed_form_property(k):
    assert im_j_order(k) == den(bernoulli_ms(k) / (4 * k))
    if k % 2:
        assert 2 * odd_half_denominator(k) == im_j_order(k)


def test_j_index_divisible_by_24():
    for k in range(1, 31):
        assert im_j_order(k) % 24 == 0


def test_odd_half_denominator_examples():
    assert odd_half_denominator(1) == 12
    assert odd_half_denominator(3) == 252
    assert odd_half_denominator(5) == 132


def test_odd_half_denominator_rejects_even():
    with pytest.raises(ValueError, match="parity"):
        odd_half_denominator(2)


def test_odd_half_relation():
    for k in range(1, 30, 2):
        assert 2 * odd_half_denominator(k) == im_j_order(k)


def test_odd_half_relation_guard_fires(monkeypatch):
    monkeypatch.setattr(bernoulli, "im_j_order", lambda k: 0)
    with pytest.raises(RuntimeError, match="half-denominator relation violated"):
        odd_half_denominator(3)


def test_table_extends_on_demand():
    table = BernoulliTable(3)
    assert table.max_index >= 3
    assert table.value(10) == bernoulli_ms(10)
    assert table.max_index >= 10


def test_table_rejects_bad_index():
    table = BernoulliTable()
    with pytest.raises(ValueError):
        table.value(0)
    with pytest.raises(ValueError):
        table_rows(0)


def test_table_rows_shape():
    rows = table_rows(4)
    assert rows[0] == (1, Fraction(1, 6), 6, 24)
    assert rows[3] == (4, Fraction(1, 30), 30, 480)


def test_table_rows_reads_the_shared_table(monkeypatch):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    table_rows(5)
    assert shared.max_index == 5


def test_concurrent_readers_extend_consistently():
    table = BernoulliTable()
    results = []

    def worker():
        results.append(table.value(25))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == bernoulli_ms(25)
