"""Bernoulli numbers in the positive (topologists') convention.

``bernoulli_ms(k)`` is the coefficient B_k in the expansion

    z/(e^z - 1) = 1 - z/2 + B_1 z^2/2! - B_2 z^4/4! + B_3 z^6/6! - ...,

i.e. ``|B_{2k}|`` in the modern signed convention.  B_1 = 1/6, B_2 = 1/30,
B_3 = 1/42, ...; every B_k is a positive rational with odd numerator and
even denominator.

The signed values are produced by the binomial recurrence
``sum_{j=0}^{m} C(m+1, j) b_j = 0`` (b_0 = 1, b_1 = -1/2) and converted via
``B_k = (-1)^{k+1} b_{2k}``.  The von Staudt-Clausen product
``vsc_denominator`` is computed by trial division only, so it stays an
independent oracle for the denominators.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .exactnum import den

__all__ = [
    "BernoulliTable",
    "bernoulli_ms",
    "vsc_denominator",
    "im_j_order",
    "odd_half_denominator",
    "table_rows",
]


class BernoulliTable:
    """Memoized Bernoulli numbers, extended on demand.

    Extension is serialized behind a lock; the returned Fractions are
    immutable, so any number of concurrent readers is safe.
    """

    def __init__(self, max_index: int = 0) -> None:
        self._lock = threading.Lock()
        self._signed: list[Fraction] = [Fraction(1)]  # modern b_0, b_1, ...
        if max_index > 0:
            self.value(max_index)

    @property
    def max_index(self) -> int:
        """Largest k whose B_k is currently cached."""
        return (len(self._signed) - 1) // 2

    def _extend(self, upto: int) -> None:
        b = self._signed
        for m in range(len(b), upto + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += comb(m + 1, j) * b[j]
            b.append(-acc / (m + 1))

    def value(self, k: int) -> Fraction:
        """B_k in the positive convention; always > 0."""
        if k < 1:
            raise ValueError("index starts at 1")
        with self._lock:
            if len(self._signed) <= 2 * k:
                self._extend(2 * k)
            signed = self._signed[2 * k]
        return signed if k % 2 == 1 else -signed


_SHARED = BernoulliTable()


def bernoulli_ms(k: int) -> Fraction:
    """B_k in the positive convention (B_1 = 1/6, B_2 = 1/30, ...)."""
    return _SHARED.value(k)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def vsc_denominator(k: int) -> int:
    """von Staudt-Clausen denominator: product of primes p with (p-1) | 2k.

    Deliberately computed by trial division, independent of the recurrence,
    so that it can serve as an oracle for ``den(bernoulli_ms(k))``.
    """
    if k < 1:
        raise ValueError("index starts at 1")
    out = 1
    for p in range(2, 2 * k + 2):
        if (2 * k) % (p - 1) == 0 and _is_prime(p):
            out *= p
    return out


def im_j_order(k: int) -> int:
    """den(B_k / 4k): the index of the image of the stable J-homomorphism
    in pi_{4k}(BO) = Z.  (24, 240, 504, 480, 264, 65520, ... for k >= 1.)"""
    return den(bernoulli_ms(k) / (4 * k))


def odd_half_denominator(k: int) -> int:
    """den(2 B_k / 4k) for odd k.

    Equals ``im_j_order(k) / 2``: the numerator of B_k is odd and its
    denominator even, so the extra factor 2 cancels exactly once.
    """
    if k % 2 == 0:
        raise ValueError("parity: defined for odd k")
    out = den(2 * bernoulli_ms(k) / (4 * k))
    if 2 * out != im_j_order(k):
        raise RuntimeError("half-denominator relation violated")
    return out


def table_rows(max_index: int) -> list[tuple[int, Fraction, int, int]]:
    """Rows (k, B_k, den(B_k), den(B_k/4k)) for k = 1..max_index."""
    if max_index < 1:
        raise ValueError("index starts at 1")
    rows = []
    for k in range(1, max_index + 1):
        b = bernoulli_ms(k)
        rows.append((k, b, den(b), den(b / (4 * k))))
    return rows
