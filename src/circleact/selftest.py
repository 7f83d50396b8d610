"""Invariant suites for every module, runnable without a test harness.

Each check is a plain function raising AssertionError on failure; ``run``
executes all of them (or a named subset) and reports pass/fail counts, and
pytest collects every entry of ``CHECKS`` as a test of its own.
``python -O`` strips assert statements, so there ``run`` reports a single
failure instead of checks that cannot fail.

The package's independent oracles live here and nowhere else, each a slow
recomputation that shares no code with the production path it checks:

* the binomial Bernoulli recurrence and the trial-division von
  Staudt-Clausen product, against ``BernoulliTable``;
* the A-hat series as the inverse of sinh(y/2)/(y/2) (no Bernoulli
  number) and the Newton extraction of the p_k coefficient from it,
  against ``alpha`` and ``multiplicative_sequence``;
* the brute-force integrality-bound search, against the table formula
  (2k-1)! den(B_k/4k) and ``required_divisor``;
* cofactor determinants and gcd-of-minors invariant factors, against
  ``smith_normal_form``;
* the two-variable-set substitution, against the multiplicativity of
  ``multiplicative_sequence``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

from . import bernoulli, classifier, genus, gradedtop
from ._record import Record
from .classifier import ManifoldInvariants, ReasonCode
from .gradedtop import Family, IntMatrix

__all__ = [
    "SelfTestReport",
    "run",
    "CHECKS",
    "vsc_denominator",
    "fraction_recurrence",
    "series_coefficients",
    "newton_top_coefficient",
    "brute_force_bound",
    "minor_gcd_invariant_factors",
]


# ---------------------------------------------------------------------------
# bernoulli

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

    Computed by trial division, independent of the Bernoulli table and of
    ``im_j_order``, as an oracle for ``bernoulli_ms(k).denominator``.
    """
    if k < 1:
        raise ValueError("index starts at 1")
    out = 1
    for p in range(2, 2 * k + 2):
        if (2 * k) % (p - 1) == 0 and _is_prime(p):
            out *= p
    return out


def fraction_recurrence(max_index: int) -> list[Fraction]:
    """B_1..B_max_index in the positive convention from the signed binomial
    recurrence sum_{j<=m} C(m+1, j) b_j = 0 (b_0 = 1), converted by
    B_k = (-1)^{k+1} b_{2k}.  Rational arithmetic, independent of the
    tangent numbers the library uses."""
    b = [Fraction(1)]
    for m in range(1, 2 * max_index + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [b[2 * k] if k % 2 else -b[2 * k] for k in range(1, max_index + 1)]


def _check_tangent_table_against_recurrence() -> None:
    oracle = fraction_recurrence(150)
    table = bernoulli.BernoulliTable()
    assert [table.value(k) for k in range(1, 151)] == oracle
    assert [bernoulli.bernoulli_ms(k) for k in range(1, 151)] == oracle


def _check_vsc_oracle() -> None:
    for k in range(1, 31):
        b = bernoulli.bernoulli_ms(k)
        assert b > 0
        assert b.denominator == vsc_denominator(k)
        assert b.numerator % 2 == 1 and b.denominator % 2 == 0


def _check_closed_form_im_j() -> None:
    # the sieved table that serves these k and the closed form that serves
    # larger ones, each against the tangent-number table
    for k in range(1, 401):
        expected = (bernoulli.bernoulli_ms(k) / (4 * k)).denominator
        assert bernoulli.im_j_order(k) == expected, k
        assert bernoulli._im_j_closed_form(k) == expected, k


def _check_j_index_divisible_by_24() -> None:
    for k in range(1, 31):
        assert bernoulli.im_j_order(k) % 24 == 0


# ---------------------------------------------------------------------------
# genus

def series_coefficients(k: int) -> list[Fraction]:
    """Coefficients lam_0..lam_k of Q(t) = (y/2)/sinh(y/2), t = y^2, with no
    Bernoulli number: Q is the inverse of sinh(y/2)/(y/2) = sum_m s_m t^m,
    s_m = 1/(4^m (2m+1)!), so lam_0 = 1 and lam_m = -sum_{j=1..m} s_j lam_{m-j}."""
    s = [Fraction(1, 4**m * factorial(2 * m + 1)) for m in range(k + 1)]
    lam = [Fraction(1)]
    for m in range(1, k + 1):
        lam.append(-sum(s[j] * lam[m - j] for j in range(1, m + 1)))
    return lam


def newton_top_coefficient(k: int) -> Fraction:
    """Coefficient of p_k in the degree-k polynomial: the power sum s_k of
    the series coefficients by Newton's identities
    s_m = lam_1 s_{m-1} - lam_2 s_{m-2} + ... + (-1)^{m-1} m lam_m."""
    lam = series_coefficients(k)
    s = [Fraction(0)] * (k + 1)
    for m in range(1, k + 1):
        total = Fraction((-1) ** (m - 1) * m) * lam[m]
        for i in range(1, m):
            total += (-1) ** (i - 1) * lam[i] * s[m - i]
        s[m] = total
    return s[k]


def brute_force_bound(k: int) -> int:
    """Least positive d divisible by the Kervaire step a_k (2k-1)! with
    alpha_k * d integral, by stepping through the multiples."""
    step = (2 if k % 2 else 1) * factorial(2 * k - 1)
    target = newton_top_coefficient(k)
    d = step
    for _ in range(10 ** 6):
        if (target * d).denominator == 1:
            return d
        d += step
    raise AssertionError("search budget exceeded")


def _check_alpha_three_way() -> None:
    for k in range(1, 13):
        newton = newton_top_coefficient(k)
        assert genus.multiplicative_sequence(k).coefficient((k,)) == newton
        assert genus.alpha(k) == newton


def _check_bound_by_brute_force() -> None:
    for k in range(1, 7):
        formula = factorial(2 * k - 1) * (bernoulli.bernoulli_ms(k) / (4 * k)).denominator
        assert brute_force_bound(k) == formula
        if k % 2 == 0:  # n = 4k - 1 is 7 mod 8
            assert classifier.required_divisor(4 * k - 1).required == formula


def _check_pairing_integrality() -> None:
    # the pairing of the sequence with a middle class of divisibility d is
    # alpha_k * d, integral on every multiple of the bound
    for k in range(1, 7):
        bound = factorial(2 * k - 1) * bernoulli.im_j_order(k)
        for m in (1, 2, 3, 5, 7, 99, 100):
            assert (genus.alpha(k) * bound * m).denominator == 1


def _check_multiplicativity() -> None:
    # K(p' p'') = K(p') K(p''): the joint sequence after
    # p_i -> sum_{u+v=i} p'_u p''_v must equal the product of two copies
    order = 6
    table = {(): Fraction(1)}
    for w in range(1, order + 1):
        table.update(genus.multiplicative_sequence(w).items())

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
    """Every shape 1..4 x 1..5, half of the matrices with a last row that is
    a combination of the others; the elimination is also run modulo
    2|M| from its first step, which the Hadamard trigger reaches only on
    larger matrices."""
    rng = random.Random(424242)
    for rows in range(1, 5):
        for cols in range(1, 6):
            for trial in range(20):
                grid = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
                if rows > 1 and trial % 2:
                    weights = [rng.randint(-2, 2) for _ in range(rows - 1)]
                    grid[-1] = [sum(w * row[j] for w, row in zip(weights, grid)) for j in range(cols)]
                mat = IntMatrix.from_rows(grid)
                expected = minor_gcd_invariant_factors(mat)
                got = gradedtop.smith_normal_form(mat)
                assert got.invariant_factors == expected
                assert got.rank == len(expected)
                assert gradedtop._invariant_factors(mat, 0) == expected


def _standard_models():
    for n in (5, 7, 15):
        for family in Family:
            for r in (0, 1, 2, 3):
                yield family, r, gradedtop.standard_orbit_model(n, family, r)


def _check_euler_characteristic_conservation() -> None:
    for _, _, model in _standard_models():
        h = gradedtop.gysin_total_space(model)
        chi = sum((-1) ** j * h.rank(j) for j in range(h.top_degree + 1))
        assert chi == 0


def _check_gysin_round_trip() -> None:
    for family, r, model in _standard_models():
        h = gradedtop.gysin_total_space(model)
        # built without a re-check: the checked constructor agrees
        assert gradedtop.GradedGroup(h.ranks) == h
        assert not any(map(h.rank, range(1, model.n)))  # H^1..H^{n-1} vanish
        middle = h.rank(model.n)
        expected = 2 * r if family is Family.CPN else 2 * r + 1
        assert middle == expected and h.rank(model.n + 1) == expected


def _check_poincare_duality() -> None:
    for _, _, model in _standard_models():
        coh = model.cohomology
        # built without a re-check, duality included: the checked constructors agree
        assert gradedtop.OrbitModel(gradedtop.GradedGroup(coh.ranks), dict(model.cup_t)) == model
        for j in range(coh.top_degree + 1):
            assert coh.rank(j) == coh.rank(coh.top_degree - j)
        h = gradedtop.gysin_total_space(model)
        for j in range(h.top_degree + 1):
            assert h.rank(j) == h.rank(h.top_degree - j)


# ---------------------------------------------------------------------------
# classifier

_ADMITTING = {ReasonCode.N5_ALWAYS, ReasonCode.EVEN_L_ZERO, ReasonCode.ODD_DIVISIBLE}


def _grid(n: int):
    """Valid invariants of dimension n with b_n < 7 and l on and off the
    divisor lattice, each with the divisor report of n."""
    report = classifier.required_divisor(n)
    required, kervaire = report.required, report.kervaire
    for b_n in range(7):
        for l in (0, kervaire, required, 2 * required, 3 * required,
                  required + kervaire):
            inv = ManifoldInvariants(n, b_n, l)
            if not classifier.validate(inv):
                yield inv, report


def _check_parity_predicate(dims: tuple[int, ...] = (7, 15)) -> None:
    checked = 0
    for n in dims:
        for inv, report in _grid(n):
            result = classifier.classify(inv)
            expected = (inv.b_n % 2 == 0 and inv.l == 0) or (
                inv.b_n % 2 == 1 and inv.l % report.required == 0
            )
            assert result.admits == expected
            assert result.admits == (result.reason in _ADMITTING)
            checked += 1
    assert checked >= 25 * len(dims)  # the grid must not silently degenerate


def _check_classifier_gysin_consistency(dims: tuple[int, ...] = (7, 15)) -> None:
    for n in dims:
        for inv, _ in _grid(n):
            result = classifier.classify(inv)
            if not result.admits:
                continue
            model = result.orbit.orbit_model()
            h = gradedtop.gysin_total_space(model)
            assert h.rank(n) == inv.b_n
            d = result.orbit.divisibility or 0
            assert gradedtop.divisibility_transfer(model, d) == inv.l


def _check_kervaire_divides_required() -> None:
    # n = 2047 reads the last entry of the (2k-1)! table and n = 2055 calls
    # math.factorial, the first k past it: each route meets the same oracle
    for n in (*range(7, 48, 8), 2047, 2055):
        report = classifier.required_divisor(n)
        assert report.required % report.kervaire == 0
        # k = (n+1)/4 is even, so a_k = 1, and the realizability divisor is
        # exactly ((n-1)/2)!, doubled in dimension 7
        assert report.k % 2 == 0 and report.a_k == 1
        step = factorial((n - 1) // 2)
        assert report.kervaire == (2 * step if n == 7 else step)
        if n < 48:  # against the tangent-number table
            j_index = (bernoulli.bernoulli_ms(report.k) / (n + 1)).denominator
        else:
            j_index = bernoulli._im_j_closed_form(report.k)
        assert report.j_index == j_index
        assert report.required == step * j_index


def _check_l_ignored_for_n5() -> None:
    for b_n in (3, 4):
        base = classifier.classify(ManifoldInvariants(13, b_n))
        for l in (12345, 10 ** 30 + 7):
            noisy = classifier.classify(ManifoldInvariants(13, b_n, l))
            assert "l ignored for n = 5 (mod 8)" in noisy.notes
            assert (base.admits, base.reason, base.witness, base.orbit) == (
                noisy.admits, noisy.reason, noisy.witness, noisy.orbit,
            )


def _check_surgery_parity() -> None:
    # the product-formula surgery obstruction is chi(CP^{2k-1}) times a class
    # in Z/2, so it vanishes when chi is even; chi is the alternating rank
    # sum of the model of CP^{2k-1}, which needs 2k - 1 >= 5
    for k in range(3, 101):
        ranks = gradedtop.standard_orbit_model(2 * k - 1, Family.CPN, 0).cohomology.ranks
        chi = sum(ranks[::2]) - sum(ranks[1::2])
        assert chi % 2 == 0 and chi == 2 * k, k


CHECKS: list[tuple[str, object]] = [
    ("bernoulli: tangent-number table matches the binomial recurrence", _check_tangent_table_against_recurrence),
    ("bernoulli: tangent-number table matches von Staudt-Clausen", _check_vsc_oracle),
    ("bernoulli: closed-form image-of-J matches den(B_k/4k)", _check_closed_form_im_j),
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


class SelfTestReport(Record):
    __slots__ = ("passed", "failures")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run(names: list[str] | None = None) -> SelfTestReport:
    """Run all checks (or those whose name contains one of ``names``).

    A substring of ``names`` that no check name contains is a ValueError
    naming it, so a mistyped name does not pass with nothing run.  So is a
    bare string for ``names``, which would be read as its characters, and
    a ``names`` that is not a sequence of strings; no check runs then."""
    if isinstance(names, str):
        raise ValueError(f"names must be a list of substrings, not the string {names!r}")
    try:  # a name that is not a string fails ``in``
        queries = () if names is None else tuple(names)
        unmatched = [q for q in queries if not any(q in name for name, _ in CHECKS)]
    except TypeError:
        raise ValueError(f"names must be a list of substrings, got {names!r}") from None
    if unmatched:
        raise ValueError(f"no selftest check name contains {', '.join(map(repr, unmatched))}")
    if not __debug__:
        return SelfTestReport(
            passed=0,
            failures=[("selftest", "checks are assert statements, which python -O "
                       "removes; run without -O")],
        )
    passed = 0
    failures: list[tuple[str, str]] = []
    for name, check in CHECKS:
        if queries and not any(q in name for q in queries):
            continue
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the runner
            failures.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            passed += 1
    return SelfTestReport(passed, failures)
