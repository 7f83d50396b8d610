"""The A-hat genus as a multiplicative sequence in Pontrjagin classes.

The characteristic series is consumed as a series in t (no square-root
bookkeeping is needed, the expansion is already organized in powers of t):

    Q(t) = 1 + sum_{m>=1} (-1)^m (2^{2m} - 2) B_m / (2^{2m} (2m)!) t^m
         = 1 - t/24 + 7 t^2/5760 - 31 t^3/967680 + ...

The degree-k polynomial K_k of the sequence comes from the generating
function (Hirzebruch, *Topological Methods in Algebraic Geometry* §1;
Milnor-Stasheff §19), computed directly on partitions of k:

* ``log Q(t) = sum_m c_m t^m`` with ``m c_m = (-1)^m B_m / (2 (2m)!)``: Q(t)
  is (y/2)/sinh(y/2) at y^2 = t, and
  ``log(sinh z / z) = sum_m (-1)^{m+1} 2^{2m} B_m z^{2m} / (2m (2m)!)``;
* the power sums ``s_m`` of the formal roots, written in ``p_i = e_i`` by
  Newton's identities;
* ``K = exp(sum_m c_m s_m)``, graded by weight: ``K_0 = 1`` and
  ``w K_w = sum_{m=1..w} m c_m s_m K_{w-m}``.

The recurrence runs on integers, as the Bernoulli table does: each K_w is
integer numerators over one denominator D_w, and a coefficient becomes a
``Fraction`` only when the polynomial is returned.

``alpha(k)``, the coefficient of p_k, is -B_k / (2 (2k)!), read from the
memoized m c_m of the recurrence; its agreement with the full polynomial
and with a Bernoulli-free oracle is a ``selftest`` check, not a cost paid
on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import lt

from ._record import Record, _exact
from .bernoulli import bernoulli_ms

__all__ = [
    "PontrjaginPolynomial",
    "multiplicative_sequence",
    "alpha",
]


def _checked_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """``parts`` itself if it is a tuple keying the monomial
    p_{i1} ... p_{im}: exact positive ints, weakly decreasing."""
    if type(parts) is not tuple:
        _exact(parts, tuple, "partition")
    if not set(map(type, parts)) <= {int}:
        for i, p in enumerate(parts):
            _exact(p, int, "partition part {}", i)
    if min(parts, default=1) < 1:
        raise ValueError("partition parts must be positive")
    if any(map(lt, parts, parts[1:])):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


class PontrjaginPolynomial(Record):
    """Homogeneous weight-k rational polynomial in p_1..p_k, keyed by
    partitions of k as weakly decreasing part tuples, with exact int or
    ``Fraction`` coefficients.  Zero coefficients are never stored, and
    ``terms`` returns a fresh dict, so the stored one never changes."""

    __slots__ = ("degree", "_terms")

    def __init__(self, degree: int, terms: dict[tuple[int, ...], Fraction]) -> None:
        if _exact(degree, int, "degree") < 1:
            raise ValueError("degree starts at 1")
        items = getattr(terms, "items", None)
        if not callable(items):
            raise ValueError(
                f"terms must be a mapping from part tuples to coefficients, got {terms!r}"
            )
        checked = {}
        for parts, c in items():
            parts = _checked_parts(parts)
            if sum(parts) != degree:
                raise ValueError(
                    f"term {','.join(map(str, parts))} has weight {sum(parts)}, expected {degree}"
                )
            if type(c) is not Fraction:
                if type(c) is not int:
                    raise ValueError(
                        f"coefficient of term {','.join(map(str, parts))} must be of type int "
                        f"or Fraction, got {c!r}"
                    )
                c = Fraction(c)
            if c:
                checked[parts] = c
        # lexicographic on decreasing part tuples, largest first: deterministic output
        self._store(degree, dict(sorted(checked.items(), reverse=True)))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def coefficient(self, parts: tuple[int, ...]) -> Fraction:
        return self._terms.get(_checked_parts(parts), Fraction(0))

    def items(self):
        return self._terms.items()

    def to_json_dict(self) -> dict:
        return {
            "k": self.degree,
            "terms": {",".join(map(str, parts)): str(c) for parts, c in self._terms.items()},
        }

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        monos = []
        for parts, c in self._terms.items():
            counts: dict[int, int] = {}
            for p in parts:
                counts[p] = counts.get(p, 0) + 1
            factors = [
                f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in sorted(counts.items(), reverse=True)
            ]
            monos.append(f"({c})*" + "*".join(factors))
        return " + ".join(monos)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(degree={self.degree}, terms={self._terms!r})"


# ---------------------------------------------------------------------------
# Generating-function route in the partition basis.  A polynomial in the
# p_i is a dict from weakly decreasing part tuples to integer coefficients;
# the product of two monomials is the sorted concatenation of their parts.
# The memoized values below are shared between callers and never mutated.

_Poly = dict[tuple[int, ...], int]
_DEGREE_CAP = 100  # the largest k multiplicative_sequence computes


@lru_cache(maxsize=None)
def _log_scalar(m: int) -> Fraction:
    """m c_m = (-1)^m B_m / (2 (2m)!), c_m the coefficient of t^m in
    log Q(t)."""
    return (-1) ** m * bernoulli_ms(m) / (2 * factorial(2 * m))


def _add_product(out: _Poly, a: _Poly, b: _Poly, scale: int) -> None:
    """out += scale * a * b."""
    get = out.get
    for pa, ca in a.items():
        c = scale * ca
        for pb, cb in b.items():
            key = tuple(sorted(pa + pb, reverse=True))
            out[key] = get(key, 0) + c * cb


@lru_cache(maxsize=None)
def _power_sum(m: int) -> _Poly:
    """s_m = sum_i x_i^m in the p_i = e_i(x), by Newton's identities:
    s_m = sum_{i<m} (-1)^{i-1} p_i s_{m-i} + (-1)^{m-1} m p_m."""
    out: _Poly = {(m,): (-1) ** (m - 1) * m}
    for i in range(1, m):
        _add_product(out, {(i,): 1}, _power_sum(m - i), (-1) ** (i - 1))
    return out


@lru_cache(maxsize=None)
def _sequence_part(w: int) -> tuple[_Poly, int]:
    """(N_w, D_w) with K_w = N_w / D_w the weight-w part of
    exp(sum_m c_m s_m), by the weight recurrence K_0 = 1,
    w K_w = sum_{m=1..w} m c_m s_m K_{w-m}.

    D_w is the lcm of the denominators of the scalars
    m c_m / (w D_{w-m}); the gcd of D_w and every numerator is divided
    out, zero numerators are dropped, and the keys descend."""
    if w == 0:
        return {(): 1}, 1
    scalars = [_log_scalar(m) / (w * _sequence_part(w - m)[1]) for m in range(1, w + 1)]
    den = lcm(*(s.denominator for s in scalars))
    out: _Poly = {}
    for m, s in enumerate(scalars, 1):
        _add_product(out, _power_sum(m), _sequence_part(w - m)[0], s.numerator * (den // s.denominator))
    g = gcd(den, *out.values())
    return {key: out[key] // g for key in sorted(out, reverse=True) if out[key]}, den // g


def multiplicative_sequence(k: int) -> PontrjaginPolynomial:
    """Degree-k polynomial of the sequence, exact rational coefficients.

    Degree 1 is -p1/24, degree 2 is (-4 p2 + 7 p1^2)/5760, and so on.  A k
    above ``_DEGREE_CAP`` is refused before any work: the polynomial has one
    term per partition of k, 5,604 at k = 30 and 190,569,292 at k = 100.
    """
    # checked before the cache: True == 1 would hit the entry of k = 1
    if _exact(k, int, "k") < 1:
        raise ValueError("degree starts at 1")
    if k > _DEGREE_CAP:
        raise ValueError(f"degree above {_DEGREE_CAP} is refused: one term per partition of k")
    numerators, den = _sequence_part(k)
    # nonzero terms keyed by descending partitions of k: what the checks store
    terms = {parts: Fraction(c, den) for parts, c in numerators.items()}
    return PontrjaginPolynomial._make(k, terms)


def alpha(k: int) -> Fraction:
    """Coefficient of p_k in the degree-k polynomial: -B_k / (2 (2k)!),
    which is (-1)^{k+1} times the memoized m c_m at m = k."""
    # checked before the cache: True == 1 would hit the entry of k = 1
    if _exact(k, int, "k") < 1:
        raise ValueError("degree starts at 1")
    return (-1) ** (k + 1) * _log_scalar(k)
