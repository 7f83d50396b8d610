import math
import random
import re
import sys
import threading
import time
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest

import circleact.bernoulli as bernoulli
import circleact.classifier as classifier
from circleact._record import _Table
from circleact.bernoulli import BernoulliTable, bernoulli_ms, im_j_order, table_rows
from circleact.classifier import ManifoldInvariants, classify, required_divisor
from circleact.genus import multiplicative_sequence
from circleact.gradedtop import divisibility_transfer, standard_orbit_model
from circleact import selftest
from circleact.selftest import fraction_recurrence, vsc_denominator


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


def _v2(m):
    return (m & -m).bit_length() - 1


# the last two are a 16- and a 20-digit prime: trial division would take
# about sqrt(k) steps on them
# the oracle checks live in circleact.selftest; these tests run them

def test_vsc_oracle_equivalence_to_30():
    selftest._check_vsc_oracle()


def test_tangent_table_matches_fraction_recurrence():
    selftest._check_tangent_table_against_recurrence()


def test_closed_form_matches_table_denominators():
    selftest._check_closed_form_im_j()


@pytest.mark.parametrize("k", [10**12, 2**40, 1000000000000037, 10000000000000000051])
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


def test_factorize_beyond_the_trial_division_limit():
    # both factors just above 2^20, so the cofactor is proven composite and
    # split by rho; the order was computed by plain trial division
    assert bernoulli._factorize(1048583 * 1048681) == {1048583: 1, 1048681: 1}
    assert im_j_order(1048583 * 1048681) == 52782195313128
    # factors near 2^30: far beyond the reach of trial division below 2^20
    assert bernoulli._factorize(1073741827 * 1073741831) == {1073741827: 1, 1073741831: 1}


def test_base_41_rejects_the_strong_pseudoprime_to_every_smaller_base():
    # psi_12 = 2k + 1 is a strong pseudoprime to every prime base below 41,
    # so only base 41 keeps it out of the image-of-J order
    psi12 = 318665857834031151167461
    k = 159332928917015575583730
    assert 2 * k + 1 == psi12
    assert im_j_order(k) % psi12 != 0


def test_a_carmichael_number_is_not_proven_prime():
    # 1152271 = 43 * 127 * 211 passes the Fermat test to every base, so
    # only the strong test's square roots of 1 refuse it
    assert not bernoulli._proven_prime(1152271)


def test_the_deterministic_range_ends_below_psi_13():
    # psi_13 = _MR_LIMIT passes every base but is composite: at the limit
    # itself primality is refused, not assumed
    with pytest.raises(ValueError, match="^cannot prove 3317044064679887385961981 prime"):
        im_j_order(1658522032339943692980990)


@pytest.mark.parametrize(
    "k, factors",
    [(1048583 * 1048709, {1048583: 1, 1048709: 1}), (1048583**2, {1048583: 2})],
)
def test_rho_replays_a_batch_that_overshoots(k, factors):
    # the gcd over a 128-step batch at c = 1 is the whole cofactor, so the
    # batch is replayed one difference at a time
    assert bernoulli._factorize(k) == factors


def test_closed_form_refuses_an_unsplittable_cofactor():
    # two 61-bit primes: rho needs about 2^30 steps, far over its budget
    with pytest.raises(ValueError, match="step budget"):
        im_j_order(2305843009213693967 * 2305843009213693973)


def _spy_rho_budgets(monkeypatch):
    """Rebind bernoulli._rho_divisor to a wrapper that records, per split,
    the budget it was given and the budget it left (None if it raised)."""
    budgets = []
    original = bernoulli._rho_divisor

    def spy(n, budget):
        budgets.append((budget, None))
        d, left = original(n, budget)
        budgets[-1] = (budget, left)
        return d, left

    monkeypatch.setattr(bernoulli, "_rho_divisor", spy)
    return budgets


def test_rho_splits_share_one_step_budget(monkeypatch):
    # six primes above 2^21: each split takes a few thousand steps, and each
    # starts from what the one before it left
    primes = [2097169, 2098171, 2100173, 2103181, 2107199, 2112217]
    budgets = _spy_rho_budgets(monkeypatch)
    assert bernoulli._factorize(math.prod(primes)) == dict.fromkeys(primes, 1)
    assert len(budgets) == 5
    assert budgets[0][0] == bernoulli._RHO_STEPS
    for (_, left), (given, _) in zip(budgets, budgets[1:]):
        assert given == left
    assert 0 < budgets[-1][1] < bernoulli._RHO_STEPS


def test_rho_refuses_splits_that_together_overrun_the_budget(monkeypatch):
    # six primes near 2^30: the five splits take 65534, 65534, 65534, 65534
    # and 131070 steps, each within 2^18 alone but not together
    primes = [1073741827, 1073742851, 1073744863, 1073747953, 1073751971, 1073756993]
    budgets = _spy_rho_budgets(monkeypatch)
    with pytest.raises(ValueError, match="step budget"):
        bernoulli._factorize(math.prod(primes))
    *answered, (given, left) = budgets
    assert len(answered) == 4 and left is None
    assert [g - l for g, l in answered] == [65534] * 4
    assert given == bernoulli._RHO_STEPS - 4 * 65534


def test_closed_form_needs_no_table(monkeypatch):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    im_j_order(200)
    classify(ManifoldInvariants(n=1023, b_n=3, l=0))
    assert shared.max_index == 0


def _fresh_table(monkeypatch, module, name):
    """The shared table ``module.name`` emptied for one test, restored after it."""
    table = _Table(getattr(module, name).extend)
    monkeypatch.setattr(module, name, table)
    return table


def _fresh_bernoulli_rows(monkeypatch):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    return shared._rows


@cache
def _recurrence_150():
    return fraction_recurrence(150)


# the three memo tables: (empty the shared table for one test and return
# it, read entry k, the largest k the table holds, its slow path, the k past
# that cap to ask, whether an extension at least doubles the table).  The
# Bernoulli rows have no cap; 150 is as far as the slow path is run
TABLES = {
    "j_orders": (
        lambda mp: _fresh_table(mp, bernoulli, "_j_orders"), im_j_order, 4096,
        bernoulli._im_j_closed_form, (4097, 16384), True),
    "step_factorials": (
        lambda mp: _fresh_table(mp, classifier, "_step_factorials"), classifier._step_factorial,
        512, lambda k: math.factorial(2 * k - 1), (513, 2048), False),
    "bernoulli_rows": (
        _fresh_bernoulli_rows, bernoulli_ms, 150, lambda k: _recurrence_150()[k - 1], (), False),
}


def _spy_extend(memo):
    """Record (entries before, k asked) for each extension of ``memo``."""
    calls = []
    extend = memo.extend

    def spy(values, carry, k):
        calls.append((len(values), k))
        return extend(values, carry, k)

    memo.extend = spy
    return calls


@pytest.fixture(params=list(TABLES))
def table(request, monkeypatch):
    fresh, read, cap, slow, past_cap, doubles = TABLES[request.param]
    memo = fresh(monkeypatch)
    calls = _spy_extend(memo)
    return SimpleNamespace(memo=memo, calls=calls, read=read, cap=cap, slow=slow,
                           past_cap=past_cap, doubles=doubles)


def test_table_at_its_cap_equals_the_slow_path(table):
    cap = table.cap
    table.read(cap)
    assert table.calls == [(0, cap)] and len(table.memo.state[0]) == cap
    assert [table.read(k) for k in range(1, cap + 1)] == [table.slow(k) for k in range(1, cap + 1)]
    assert len(table.calls) == 1


def test_table_grows_to_the_k_asked_up_to_its_cap(table):
    cap = table.cap
    for k in (10, cap // 2, 7, cap // 2 + 1, cap, *table.past_cap):
        before = table.memo.state[0]
        del table.calls[:]
        assert table.read(k) == table.slow(k), k
        after = table.memo.state[0]
        size = len(before)
        if size < k <= cap:
            assert table.calls == [(size, k)], k  # one extension, over the new range only
            size = min(max(k, 2 * size), cap) if table.doubles else k
        else:
            assert table.calls == [], k
        assert len(after) == size, k
        # an extension keeps the very entries it had and only appends
        assert all(a is b for a, b in zip(before, after)), k


def _race(target, args):
    """Run ``target(*a)`` for each ``a`` in ``args`` on its own thread, all
    released at once, switching threads every microsecond."""
    barrier = threading.Barrier(len(args), timeout=10)

    def run(*a):
        barrier.wait()
        target(*a)

    threads = [threading.Thread(target=run, args=a) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside an extension and its assignment
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_readers_get_the_slow_path(table):
    cap = table.cap
    expected = [table.slow(k) for k in range(1, cap + 1)]
    results = {}

    def worker(i):
        results[i] = [table.read(k) for k in range(i + 1, cap + 1, 8)]

    _race(worker, [(i,) for i in range(8)])
    for i in range(8):
        assert results[i] == expected[i::8], i
    assert len(table.memo.state[0]) <= cap


def _count_calls(monkeypatch, name):
    """Rebind bernoulli.<name> to a wrapper that records its arguments."""
    calls = []
    original = getattr(bernoulli, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bernoulli, name, spy)
    return calls


def test_j_table_serves_k_up_to_its_cap(monkeypatch):
    _fresh_table(monkeypatch, bernoulli, "_j_orders")
    expected = {k: bernoulli._im_j_closed_form(k) for k in (4096, 4097)}
    factorized = _count_calls(monkeypatch, "_factorize")
    assert im_j_order(4096) == expected[4096]
    assert factorized == []
    assert im_j_order(4097) == expected[4097]
    assert factorized == [(4097,)]


def test_classify_sweep_never_factorizes(monkeypatch):
    j_orders = _fresh_table(monkeypatch, bernoulli, "_j_orders")
    factorized = _count_calls(monkeypatch, "_factorize")
    ns = list(range(7, 1024, 8))
    random.Random(7).shuffle(ns)
    for n in ns:
        classify(ManifoldInvariants(n=n, b_n=3, l=0))
    assert factorized == []
    assert 256 <= len(j_orders.state[0]) <= 512


def test_closed_form_refuses_too_many_divisors():
    # the first 16 primes: 2^16 divisors, over the cap, refused before any
    # is listed; the first 14 (2^14 divisors) are still answered
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    with pytest.raises(ValueError, match="^k has 65536 divisors, more than the 16384"):
        im_j_order(math.prod(primes))
    k = math.prod(primes[:14])
    start = time.perf_counter()
    assert _v2(im_j_order(k)) == 3 + _v2(k)
    assert time.perf_counter() - start < 1.0


def test_j_index_divisible_by_24():
    selftest._check_j_index_divisible_by_24()


def test_cold_table_rows_fills_once(monkeypatch):
    oracle = _recurrence_150()
    fills = _spy_extend(_fresh_bernoulli_rows(monkeypatch))
    rows = table_rows(60)
    assert fills == [(0, 60)]
    assert [b for _, b, _, _ in rows] == oracle[:60]
    table_rows(70)  # extends by the ten new columns only
    assert fills == [(0, 60), (60, 70)]
    assert bernoulli_ms(70) == oracle[69]


def test_table_extends_on_demand():
    table = BernoulliTable()
    assert table.value(3) == bernoulli_ms(3)
    assert table.max_index >= 3
    assert table.value(10) == bernoulli_ms(10)
    assert table.max_index >= 10


def test_table_extends_only_past_its_end():
    table = BernoulliTable()
    calls = _spy_extend(table._rows)
    table.value(5)
    table.value(5)
    table.value(3)
    assert calls == [(0, 5)]


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


def test_table_rows_image_of_j_column_is_the_fraction_denominator():
    # den(B_k/4k) from num and den of B_k, pinned to the Fraction division
    rows = table_rows(300)
    assert [k for k, _, _, _ in rows] == list(range(1, 301))
    for k, b, den, imj in rows:
        assert den == b.denominator
        assert imj == (b / (4 * k)).denominator


def test_table_rows_reads_the_shared_table(monkeypatch):
    shared = BernoulliTable()
    monkeypatch.setattr(bernoulli, "_SHARED", shared)
    table_rows(5)
    assert shared.max_index == 5


def _recomputed_rows(max_index):
    """Rows from a fresh table, one B_k at a time, den(B_k/4k) by Fraction
    division."""
    table = BernoulliTable()
    rows = []
    for k in range(1, max_index + 1):
        b = table.value(k)
        rows.append((k, b, b.denominator, (b / (4 * k)).denominator))
    return rows


@pytest.mark.parametrize("fills", [(50, 150, 100), (7, 150)])
def test_table_rows_equal_a_fresh_recomputation_after_fills(monkeypatch, fills):
    monkeypatch.setattr(bernoulli, "_SHARED", BernoulliTable())
    for k in fills:
        table_rows(k)
    expected = _recomputed_rows(300)
    for k in range(1, 301):
        assert table_rows(k) == expected[:k], k


def test_table_rows_slices_its_own_fill_after_a_racing_shorter_one(monkeypatch):
    # a racing fill of ten rows publishes its pair after this call's fill:
    # table_rows must not re-read the shared rows and return ten
    monkeypatch.setattr(bernoulli, "_SHARED", BernoulliTable())
    short = BernoulliTable()
    short.value(10)
    value = BernoulliTable.value

    def fill_then_lose_the_race(self, k):
        b = value(self, k)
        self._rows.state = short._rows.state
        return b

    monkeypatch.setattr(BernoulliTable, "value", fill_then_lose_the_race)
    rows = table_rows(60)
    assert [k for k, _, _, _ in rows] == list(range(1, 61))
    assert [b for _, b, _, _ in rows] == _recurrence_150()[:60]


def test_mutating_returned_rows_leaves_the_memo_intact(monkeypatch):
    monkeypatch.setattr(bernoulli, "_SHARED", BernoulliTable())
    rows = table_rows(20)
    expected = list(rows)
    rows[0] = (1, Fraction(7), 7, 7)
    rows.append(rows[0])
    del rows[5:10]
    assert table_rows(20) == expected
    assert table_rows(21)[:20] == expected
    assert bernoulli_ms(1) == Fraction(1, 6)


def test_concurrent_table_rows_return_equal_prefixes(monkeypatch):
    monkeypatch.setattr(bernoulli, "_SHARED", BernoulliTable())
    sizes = [150, 3, 60, 120, 1, 90, 150, 45]
    results = {}

    def worker(i, k):
        results[i] = table_rows(k)

    _race(worker, list(enumerate(sizes)))
    longest = _recomputed_rows(max(sizes))
    for i, k in enumerate(sizes):
        assert results[i] == longest[:k]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: im_j_order(2.0), "k must be of type int, got 2.0"),
        (lambda: table_rows(True), "max_index must be of type int, got True"),
        (lambda: BernoulliTable().value(2.0), "k must be of type int, got 2.0"),
        (lambda: bernoulli_ms(True), "k must be of type int, got True"),
        (lambda: divisibility_transfer(standard_orbit_model(7, "CPN", 1), 2.5),
         "d must be of type int, got 2.5"),
        # k = 1 is cached first, and True == 1 would hit its entry
        (lambda: (multiplicative_sequence(1), multiplicative_sequence(True)),
         "k must be of type int, got True"),
        (lambda: multiplicative_sequence(2.0), "k must be of type int, got 2.0"),
        (lambda: required_divisor(15.0), "n must be of type int, got 15.0"),
    ],
    ids=["im_j_order", "table_rows", "BernoulliTable.value", "bernoulli_ms",
         "divisibility_transfer", "multiplicative_sequence.bool",
         "multiplicative_sequence.float", "required_divisor"],
)
def test_numeric_entry_points_take_exact_ints(call, message):
    # im_j_order(2.0) returned 240.0, table_rows(True) a row,
    # divisibility_transfer(model, 2.5) 0, multiplicative_sequence(True) the
    # polynomial of k = 1 with "k": true; required_divisor(15.0) named
    # k = 4.0, and multiplicative_sequence(2.0) died with a bare TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
