"""Bernoulli numbers in the positive (topologists') convention, and the
image-of-J orders den(B_k / 4k).

``bernoulli_ms(k)`` is the coefficient B_k in the expansion

    z/(e^z - 1) = 1 - z/2 + B_1 z^2/2! - B_2 z^4/4! + B_3 z^6/6! - ...,

i.e. ``|B_{2k}|`` in the modern signed convention.  B_1 = 1/6, B_2 = 1/30,
B_3 = 1/42, ...; every B_k is a positive rational with odd numerator and
even denominator.

``BernoulliTable`` computes them from the tangent numbers T_k (the Taylor
coefficients of tan z times (2k-1)!) as B_k = 2k T_k / (4^k (4^k - 1)).
The T_k come from Brent and Harvey's integer recurrence ("Fast computation
of Bernoulli, Tangent and Secant numbers", 2011): integers only, no gcd per
step.  The table evaluates it one column at a time, so extending it from
K to K' costs only the new columns.

``im_j_order(k)`` needs no Bernoulli number at all: by von Staudt-Clausen
and Adams (On the groups J(X) IV, Topology 5, 1966),

    den(B_k / 4k) = 2^{3 + v_2(k)} * prod_{odd prime p, (p-1) | 2k} p^{1 + v_p(k)},

so ``classifier.classify`` never touches the Bernoulli table.  For
k <= 4096 the value is read from a second table, which a sieve over the
new entries extends to at least twice its length.  Larger k take the
closed form evaluated from the factorisation of k, which trial-divides
below 2^20, splits what is left with Pollard-Brent rho under a fixed step
budget and refuses a k with more than 2^14 divisors, so every k is answered
or refused quickly.
"""

from __future__ import annotations

from itertools import count
from math import gcd, prod

from ._record import _Table, _exact

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BernoulliTable",
    "bernoulli_ms",
    "im_j_order",
    "table_rows",
]


def _bernoulli_rows(rows: list, col: list[int] | None, upto: int) -> tuple[list, list[int]]:
    """Rows 1..upto from rows 1..K and column K of Brent-Harvey's
    recurrence, whose entry j is T_K after pass j + 1 (None for K = 0)."""
    # im_j_order never fills the table, so a process that only asks for it
    # never loads fractions
    from fractions import Fraction

    # Column i follows from column i - 1: t_i(1) = (i-1) t_{i-1}(1) and
    # t_i(j) = (i-j) t_{i-1}(j) + (i-j+2) t_i(j-1) for j = 2..i, where
    # t_i(j) is T_i after pass j of the in-place recurrence
    rows = rows[:]
    for i in range(len(rows) + 1, upto + 1):
        if i == 1:
            col = [1]
        else:
            prev = (i - 1) * col[0]
            nxt = [prev]
            for a, c in zip(range(i - 2, 0, -1), col[1:]):
                prev = a * c + (a + 2) * prev
                nxt.append(prev)
            nxt.append(2 * prev)
            col = nxt
        b = Fraction(2 * i * col[-1], 4**i * (4**i - 1))
        rows.append((i, b, b.denominator, im_j_order(i)))
    return rows, col


class BernoulliTable:
    """Memoized Bernoulli numbers, extended on demand.

    Each k is stored once as a complete row (k, B_k, den(B_k), den(B_k/4k))
    of immutable values, so a repeated ``table_rows`` is a slice of the memo.
    """

    def __init__(self) -> None:
        self._rows = _Table(_bernoulli_rows)

    @property
    def max_index(self) -> int:
        """Largest k whose B_k is currently cached."""
        return len(self._rows.state[0])

    def value(self, k: int) -> Fraction:
        """B_k in the positive convention; always > 0."""
        if _exact(k, int, "k") < 1:
            raise ValueError("index starts at 1")
        return self._rows.upto(k)[k - 1][1]


_SHARED = BernoulliTable()


def bernoulli_ms(k: int) -> Fraction:
    """B_k in the positive convention (B_1 = 1/6, B_2 = 1/30, ...)."""
    return _SHARED.value(k)


# Strong-pseudoprime tests to these bases decide primality exactly below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _proven_prime(n: int) -> bool:
    """Exact primality of n >= 2: trial division by the bases, then Miller-Rabin."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove {n} prime: beyond the deterministic Miller-Rabin range")
    return True


# Trial division stops below _TRIAL_LIMIT; rho then gets _RHO_STEPS
# iterations of its map in total, shared by every split of one
# factorisation, which usually splits a cofactor whose smallest prime
# factor is below about 2^34 and bounds the time (about 0.25 s) spent on
# the rest
_TRIAL_LIMIT = 1 << 20
_RHO_STEPS = 1 << 18
# The closed form lists every divisor of k and tests 2d + 1 for each; with
# at most _DIVISOR_CAP divisors the slowest k measured (the odd primes
# 3..47, 16384 divisors) took 0.15-0.22 s, where 2^16 divisors took 0.9 s
# and 2^18 took 8.6 s
_DIVISOR_CAP = 1 << 14


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n by Pollard-Brent rho, batching
    128 differences per gcd, and the steps left of ``budget``; ValueError
    once the budget is spent."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise ValueError(f"cannot factor {n} within the Pollard-rho step budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


def _factorize(k: int) -> dict[int, int]:
    """Prime factorisation of k >= 1: trial division below 2^20, then each
    cofactor is proven prime or split by ``_rho_divisor``, every split
    drawing on one budget of ``_RHO_STEPS``."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= k and p < _TRIAL_LIMIT:
        while k % p == 0:
            k //= p
            out[p] = out.get(p, 0) + 1
        p += 1 if p == 2 else 2
    pending = [k] if k > 1 else []
    budget = _RHO_STEPS
    while pending:
        m = pending.pop()
        if m < p * p or _proven_prime(m):  # m has no prime factor below p
            out[m] = out.get(m, 0) + 1
        else:
            d, budget = _rho_divisor(m, budget)
            pending += [d, m // d]
    return out


def _im_j_closed_form(k: int) -> int:
    """den(B_k / 4k) for any k >= 1 from the factorisation of k: the odd
    primes p with (p-1) | 2k are the primes among 2d + 1 for the divisors
    d of k.  ValueError when k has more than ``_DIVISOR_CAP`` divisors."""
    factors = _factorize(k)
    tau = prod(e + 1 for e in factors.values())
    if tau > _DIVISOR_CAP:
        raise ValueError(f"k has {tau} divisors, more than the {_DIVISOR_CAP} the closed form lists")
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    out = 2 ** (3 + factors.get(2, 0))
    for d in divisors:
        p = 2 * d + 1
        if _proven_prime(p):
            out *= p ** (1 + factors.get(p, 0))
    return out


# k up to this cap (n = 7 mod 8 up to 16383) is read from the sieved table.
# The cap bounds what one request can make the process build and keep: the
# full table took 1.8-3.1 ms and holds about 155 KB (Python 3.11, Xeon
# x86-64), both growing faster than K; the closed form takes about 5 us
_J_TABLE_CAP = 4096


def _sieve_j_orders(values: list[int], carry: None, k: int) -> tuple[list[int], None]:
    """den(B_k / 4k) at index k - 1: the K ``values``, then the entries up to
    size = max(k, 2K), at most the cap, from one sieve over the primes up to
    2 size + 1 that multiplies only the new entries.  The sieve walks every
    odd number up to there, so growing to exactly k would cost a pass per k:
    k = 1..4096 asked in turn took 1.36 s that way, 4.8 ms doubling."""
    first = len(values) + 1
    size = min(max(k, 2 * len(values)), _J_TABLE_CAP)
    limit = 2 * size + 1
    composite = bytearray(limit + 1)
    out = values + [8 * (j & -j) for j in range(first, size + 1)]  # 2^{3 + v_2(j)}
    for p in range(3, limit + 1, 2):
        if composite[p]:
            continue
        if p * p <= limit:
            composite[p * p :: 2 * p] = b"\1" * len(range(p * p, limit + 1, 2 * p))
        # p enters once for each k that (p-1)/2 divides, then once more for
        # each power of p dividing k ((p-1)/2 is prime to p); the first
        # multiple of step at or past the first new k starts each pass
        step = (p - 1) // 2
        while step <= size:
            for i in range(-(-first // step) * step - 1, size, step):
                out[i] *= p
            step *= p
    return out, carry


_j_orders = _Table(_sieve_j_orders)


def im_j_order(k: int) -> int:
    """den(B_k / 4k): the index of the image of the stable J-homomorphism
    in pi_{4k}(BO) = Z.  (24, 240, 504, 480, 264, 65520, ... for k >= 1.)

    For k <= 4096 the value is read from a sieved table; larger k take the
    closed form of von Staudt-Clausen and Adams, evaluated from the
    factorisation of k.
    """
    if type(k) is not int:
        _exact(k, int, "k")
    if k < 1:
        raise ValueError("index starts at 1")
    if k > _J_TABLE_CAP:
        return _im_j_closed_form(k)
    return _j_orders.upto(k)[k - 1]


def table_rows(max_index: int) -> list[tuple[int, Fraction, int, int]]:
    """Rows (k, B_k, den(B_k), den(B_k/4k)) for k = 1..max_index, as a
    fresh list: a slice of the shared table's memoized rows."""
    table = _SHARED
    # the fill runs in BernoulliTable.value, which refuses an index below 1
    table.value(_exact(max_index, int, "max_index"))
    return table._rows.upto(max_index)[:max_index]
