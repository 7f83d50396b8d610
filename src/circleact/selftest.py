"""Invariant suites for every module, runnable without a test harness.

Each check is a plain function raising AssertionError on failure; ``run``
executes all of them (or a named subset) and reports pass/fail counts.
``python -O`` strips assert statements, so there ``run`` reports a single
failure instead of checks that cannot fail.
The oracles here are deliberately independent recomputations: trial-division
von Staudt-Clausen products, gcd-of-minors invariant factors, brute-force
divisor searches, and the two-variable-set substitution check of
multiplicativity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from . import bernoulli, classifier, exactnum, genus, gradedtop
from .classifier import ManifoldInvariants
from .gradedtop import Family, IntMatrix

__all__ = ["SelfTestReport", "run", "CHECKS"]


# ---------------------------------------------------------------------------
# exactnum

def _check_den_of_sum_divides() -> None:
    rng = random.Random(20240901)
    for _ in range(300):
        a = exactnum.reduce(rng.randint(-50, 50), rng.randint(1, 60))
        b = exactnum.reduce(rng.randint(-50, 50), rng.randint(1, 60))
        assert (exactnum.den(a) * exactnum.den(b)) % exactnum.den(a + b) == 0


def _check_reduce_idempotent() -> None:
    rng = random.Random(20240902)
    for _ in range(300):
        x = exactnum.reduce(rng.randint(-500, 500), rng.choice([1, -1]) * rng.randint(1, 500))
        again = exactnum.reduce(x.numerator, x.denominator)
        assert (again.numerator, again.denominator) == (x.numerator, x.denominator)


def _check_factorial_recurrence() -> None:
    for m in range(1, 30):
        assert exactnum.factorial(m) == m * exactnum.factorial(m - 1)


def _check_exact_arithmetic() -> None:
    rng = random.Random(20240903)
    for _ in range(300):
        a = exactnum.reduce(rng.randint(-99, 99), rng.randint(1, 99))
        c = exactnum.reduce(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + c) - c == a


# ---------------------------------------------------------------------------
# bernoulli

def _check_vsc_oracle() -> None:
    for k in range(1, 31):
        b = bernoulli.bernoulli_ms(k)
        assert b > 0
        assert exactnum.den(b) == bernoulli.vsc_denominator(k)
        assert b.numerator % 2 == 1 and b.denominator % 2 == 0


def _check_closed_form_im_j() -> None:
    for k in range(1, 61):
        b = bernoulli.bernoulli_ms(k)
        assert bernoulli.im_j_order(k) == exactnum.den(b / (4 * k))


def _check_odd_half_relation() -> None:
    for k in range(1, 30, 2):
        assert 2 * bernoulli.odd_half_denominator(k) == bernoulli.im_j_order(k)


def _check_j_index_divisible_by_24() -> None:
    for k in range(1, 31):
        assert bernoulli.im_j_order(k) % 24 == 0


# ---------------------------------------------------------------------------
# genus

def _check_alpha_three_way() -> None:
    for k in range(1, 9):
        value = genus.alpha(k)  # raises on any internal mismatch
        assert value == -bernoulli.bernoulli_ms(k) / (2 * factorial(2 * k))


def _check_bound_by_brute_force() -> None:
    for k in range(1, 7):
        a_k = 2 if k % 2 else 1
        step = a_k * factorial(2 * k - 1)
        alpha_k = genus.alpha(k)
        d = step
        steps = 1
        while (alpha_k * d).denominator != 1:
            d += step
            steps += 1
            assert steps <= 10 ** 6, "search budget exceeded"
        assert d == genus.integrality_bound(k)


def _check_pairing_integrality() -> None:
    for k in range(1, 7):
        bound = genus.integrality_bound(k)
        for m in (1, 2, 3, 7, 100):
            assert genus.twisted_pairing(k, bound * m).denominator == 1


def _check_multiplicativity() -> None:
    # K(p' p'') = K(p') K(p''): the joint sequence after
    # p_i -> sum_{u+v=i} p'_u p''_v must equal the product of two copies
    order = 6
    table = {(): Fraction(1)}
    for w in range(1, order + 1):
        table.update(
            (part.parts, c) for part, c in genus.multiplicative_sequence(w).items()
        )

    product: dict[tuple, Fraction] = {}
    for pl, cl in table.items():
        for pr, cr in table.items():
            if sum(pl) + sum(pr) <= order:
                product[(pl, pr)] = cl * cr

    substituted: dict[tuple, Fraction] = {}
    for parts, c in table.items():
        expansion = {((), ()): Fraction(1)}
        for i in parts:
            nxt: dict[tuple, Fraction] = {}
            for (lp, rp), cc in expansion.items():
                for u in range(i + 1):
                    v = i - u
                    nl = tuple(sorted(lp + ((u,) if u else ()), reverse=True))
                    nr = tuple(sorted(rp + ((v,) if v else ()), reverse=True))
                    nxt[(nl, nr)] = nxt.get((nl, nr), Fraction(0)) + cc
            expansion = nxt
        for key, cc in expansion.items():
            substituted[key] = substituted.get(key, Fraction(0)) + c * cc

    substituted = {key: v for key, v in substituted.items() if v != 0}
    assert substituted == product


# ---------------------------------------------------------------------------
# gradedtop

def _det(rows: list[list[int]]) -> int:
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * head * _det(minor)
    return total


def minor_gcd_invariant_factors(mat: IntMatrix) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors: d_1...d_k = gcd of the
    k-minors.  Brute force; oracle for smith_normal_form."""
    factors: list[int] = []
    previous = 1
    for k in range(1, min(mat.rows, mat.cols) + 1):
        g = 0
        for rset in combinations(range(mat.rows), k):
            for cset in combinations(range(mat.cols), k):
                sub = [[mat.entries[i][j] for j in cset] for i in rset]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def _check_snf_against_minors() -> None:
    rng = random.Random(20240904)
    for _ in range(100):
        mat = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        )
        got = gradedtop.smith_normal_form(mat)
        assert got.invariant_factors == minor_gcd_invariant_factors(mat)


def _standard_models():
    for n in (5, 7, 15):
        for family in Family:
            for r in (0, 1, 3):
                yield gradedtop.standard_orbit_model(n, family, r)


def _check_euler_characteristic_conservation() -> None:
    for model in _standard_models():
        h = gradedtop.gysin_total_space(model)
        chi = sum((-1) ** j * h.rank(j) for j in range(h.top_degree + 1))
        assert chi == 0


def _check_gysin_round_trip() -> None:
    for model in _standard_models():
        h = gradedtop.gysin_total_space(model)
        assert gradedtop.check_highly_connected(h, model.n)
        middle = h.rank(model.n)
        expected = 2 * model.r if model.family is Family.CPN else 2 * model.r + 1
        assert middle == expected and h.rank(model.n + 1) == expected


def _check_poincare_duality() -> None:
    for model in _standard_models():
        coh = model.cohomology
        for j in range(coh.top_degree + 1):
            assert coh.rank(j) == coh.rank(coh.top_degree - j)
        h = gradedtop.gysin_total_space(model)
        for j in range(h.top_degree + 1):
            assert h.rank(j) == h.rank(h.top_degree - j)


# ---------------------------------------------------------------------------
# classifier

def _check_classifier_gysin_consistency() -> None:
    for n in (7, 15):
        required = classifier.required_divisor(n).required
        for b_n in range(7):
            for l in (0, required, 2 * required):
                if b_n == 0 and l:
                    continue
                result = classifier.classify(ManifoldInvariants(n, b_n, l))
                if not result.admits:
                    continue
                model = result.orbit.orbit_model()
                h = gradedtop.gysin_total_space(model)
                assert h.rank(n) == b_n
                d = result.orbit.divisibility or 0
                assert gradedtop.divisibility_transfer(model, d) == l


def _check_parity_predicate() -> None:
    for n in (7, 15):
        report = classifier.required_divisor(n)
        for b_n in range(7):
            for l in (0, report.kervaire, report.required, 3 * report.required,
                      report.required + report.kervaire):
                inv = ManifoldInvariants(n, b_n, l)
                if classifier.validate(inv):
                    continue
                got = classifier.classify(inv).admits
                expected = (b_n % 2 == 0 and l == 0) or (
                    b_n % 2 == 1 and l % report.required == 0
                )
                assert got == expected


def _check_kervaire_divides_required() -> None:
    for n in range(7, 48, 8):
        report = classifier.required_divisor(n)
        assert report.required % report.kervaire == 0


def _check_l_ignored_for_n5() -> None:
    import warnings as _warnings

    base = classifier.classify(ManifoldInvariants(13, 3))
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        noisy = classifier.classify(ManifoldInvariants(13, 3, 10 ** 30 + 7))
    assert (base.admits, base.reason, base.witness, base.orbit) == (
        noisy.admits, noisy.reason, noisy.witness, noisy.orbit,
    )


def _check_surgery_parity() -> None:
    for k in range(1, 101):
        assert classifier.euler_char_cp(2 * k - 1) == 2 * k
        assert classifier.surgery_obstruction_vanishes(k) is True


CHECKS: list[tuple[str, object]] = [
    ("exactnum: den(a+b) divides den(a)*den(b)", _check_den_of_sum_divides),
    ("exactnum: reduce is idempotent", _check_reduce_idempotent),
    ("exactnum: factorial recurrence", _check_factorial_recurrence),
    ("exactnum: arithmetic is exact", _check_exact_arithmetic),
    ("bernoulli: tangent-number table matches von Staudt-Clausen", _check_vsc_oracle),
    ("bernoulli: closed-form image-of-J matches den(B_k/4k)", _check_closed_form_im_j),
    ("bernoulli: odd-k half-denominator relation", _check_odd_half_relation),
    ("bernoulli: 24 divides den(B_k/4k)", _check_j_index_divisible_by_24),
    ("genus: alpha three-way agreement", _check_alpha_three_way),
    ("genus: integrality bound by brute force", _check_bound_by_brute_force),
    ("genus: pairing integral on bound multiples", _check_pairing_integrality),
    ("genus: sequence is multiplicative", _check_multiplicativity),
    ("gradedtop: SNF matches gcd-of-minors", _check_snf_against_minors),
    ("gradedtop: Euler characteristic of total spaces is 0", _check_euler_characteristic_conservation),
    ("gradedtop: Gysin output is highly connected with the right middle rank", _check_gysin_round_trip),
    ("gradedtop: Poincare duality of ranks", _check_poincare_duality),
    ("classifier: recipes reproduce (b_n, l) through the Gysin engine", _check_classifier_gysin_consistency),
    ("classifier: verdict matches the parity/divisibility predicate", _check_parity_predicate),
    ("classifier: realizability divisor divides the action divisor", _check_kervaire_divides_required),
    ("classifier: l never consulted for n = 5 mod 8", _check_l_ignored_for_n5),
    ("classifier: surgery obstruction parity", _check_surgery_parity),
]


@dataclass
class SelfTestReport:
    passed: int
    failed: int
    failures: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run(names: list[str] | None = None) -> SelfTestReport:
    """Run all checks (or those whose name contains one of ``names``)."""
    if not __debug__:
        return SelfTestReport(
            passed=0,
            failed=1,
            failures=[("selftest", "checks are assert statements, which python -O "
                       "removes; run without -O")],
        )
    passed = 0
    failures: list[tuple[str, str]] = []
    for name, check in CHECKS:
        if names and not any(q in name for q in names):
            continue
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the runner
            failures.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            passed += 1
    return SelfTestReport(passed=passed, failed=len(failures), failures=failures)
