"""Acceptance suite: one test per criterion.

Frozen values were recomputed independently (by hand reduction) before
being frozen; the other criteria run the ``circleact.selftest`` checks,
whose oracles share no code with the paths they check.  Run with
``pytest -v`` (add ``-s`` to see the per-criterion pass lines).
"""

import functools
from math import gcd

from circleact import selftest
from circleact.bernoulli import bernoulli_ms, im_j_order
from circleact.classifier import required_divisor
from circleact.gradedtop import (
    Family,
    GradedGroup,
    divisibility_transfer,
    gysin_total_space,
    standard_orbit_model,
)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")

        return wrapper

    return decorate


# --------------------------------------------------------------------------
# criterion 1: Bernoulli denominators match the von Staudt-Clausen product,
# with positivity and numerator/denominator parity, for k = 1..30.  Exact.

@criterion(1, "Bernoulli oracle equivalence")
def test_criterion_1_bernoulli_vs_von_staudt_clausen():
    selftest._check_vsc_oracle()


# --------------------------------------------------------------------------
# criterion 2: den(B_k/4k) for k = 1..6 equals (24, 240, 504, 480, 264,
# 65520); frozen after independent reduction, re-reduced here by plain gcd.

@criterion(2, "J-index values")
def test_criterion_2_j_index_values():
    frozen = (24, 240, 504, 480, 264, 65520)
    for k, expected in enumerate(frozen, start=1):
        assert im_j_order(k) == expected
        b = bernoulli_ms(k)
        raw_num, raw_den = b.numerator, b.denominator * 4 * k
        assert raw_den // gcd(raw_num, raw_den) == expected


# --------------------------------------------------------------------------
# criterion 3: three-way agreement of the p_k coefficient for k = 1..8:
# Newton extraction from the Bernoulli numbers, the full sequence and the
# closed form, and alpha itself.  Exact equality of fractions.

@criterion(3, "alpha three-way agreement")
def test_criterion_3_alpha_three_ways():
    selftest._check_alpha_three_way()


# --------------------------------------------------------------------------
# criterion 4: for k = 1..6, the least positive d divisible by
# a_k (2k-1)! with alpha_k * d integral equals (2k-1)! * den(B_k/4k),
# found by stepping through multiples (well under 10^6 steps).

@criterion(4, "integrality bound by brute force")
def test_criterion_4_brute_force_bound():
    selftest._check_bound_by_brute_force()


# --------------------------------------------------------------------------
# criterion 5: the Gysin engine against known spaces.  Exact ranks.

@criterion(5, "Gysin engine vs known spaces")
def test_criterion_5_gysin_known_spaces():
    # total space over the plain projective model is the sphere S^{2n+1}
    for n in (5, 7, 15):
        h = gysin_total_space(standard_orbit_model(n, Family.CPN, 0))
        assert h == GradedGroup.from_ranks(2 * n + 1, {0: 1, 2 * n + 1: 1})

    for n in (5, 7, 15):
        for r in (1, 2, 3):
            h = gysin_total_space(standard_orbit_model(n, Family.CPN, r))
            assert (h.rank(n), h.rank(n + 1)) == (2 * r, 2 * r)
            h = gysin_total_space(
                standard_orbit_model(n, Family.CPHALF_TIMES_SPHERE, r)
            )
            assert h.rank(n + 1) == 2 * r + 1

    # divisibility transfer: killed by the projective family, carried by the
    # product family (middle Pontrjagin class defined for n = 7 mod 8 only)
    for n in (7, 15):
        d = required_divisor(n).required
        cpn = standard_orbit_model(n, Family.CPN, 2)
        assert divisibility_transfer(cpn, d) == 0
        half = standard_orbit_model(n, Family.CPHALF_TIMES_SPHERE, 2)
        assert divisibility_transfer(half, d) == d
        assert divisibility_transfer(half, 0) == 0


# --------------------------------------------------------------------------
# criterion 6: classify agrees with the parity/divisibility predicate on
# the full grid of valid inputs.  Exact.

@criterion(6, "decision truth table")
def test_criterion_6_truth_table():
    selftest._check_parity_predicate()


# --------------------------------------------------------------------------
# criterion 7: every admitting verdict's orbit recipe reproduces the input
# (b_n, l) through the Gysin engine and the divisibility transfer.

@criterion(7, "classifier/Gysin round trip")
def test_criterion_7_round_trip():
    selftest._check_classifier_gysin_consistency()


# --------------------------------------------------------------------------
# criterion 8: Smith normal form against a gcd-of-minors brute force on 200
# random 3x3 matrices.  Exact.

@criterion(8, "SNF vs gcd-of-minors oracle")
def test_criterion_8_snf_oracle():
    selftest._check_snf_against_minors()


# --------------------------------------------------------------------------
# criterion 9: the surgery obstruction parity is computed, not assumed:
# chi(CP^{2k-1}), the alternating rank sum of the library's model of
# CP^{2k-1}, is 2k and so even for k = 3..100 (the model needs 2k-1 >= 5).

@criterion(9, "surgery obstruction parity")
def test_criterion_9_surgery_parity():
    selftest._check_surgery_parity()
