import copy
import inspect
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleact.gradedtop as gradedtop
from circleact.gradedtop import (
    Family,
    GradedGroup,
    IntMatrix,
    OrbitModel,
    cokernel,
    divisibility_transfer,
    gysin_total_space,
    smith_normal_form,
    standard_orbit_model,
)
from circleact import selftest
from circleact.selftest import _det, minor_gcd_invariant_factors


def _zeros(rows, cols):
    return IntMatrix(rows, cols, ((0,) * cols,) * rows)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))
    # an empty grid matches any column count, so only the sign check refuses it
    with pytest.raises(ValueError, match="^matrix dimensions must be nonnegative$"):
        IntMatrix(0, -1, ())


def test_matrix_dimensions_must_be_ints():
    # 2 == 2.0 and 1 == True let the grid check pass; cokernel then died
    # with a bare TypeError
    with pytest.raises(ValueError, match=r"^rows must be of type int, got 2\.0$"):
        IntMatrix(2.0, True, ((1,), (2,)))
    with pytest.raises(ValueError, match=r"^cols must be of type int, got True$"):
        IntMatrix(2, True, ((1,), (2,)))


def test_matrix_constructors():
    assert IntMatrix.from_rows([[1, 0], [0, 1]]).entries == ((1, 0), (0, 1))
    assert IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]).is_zero()
    assert not IntMatrix.from_rows([[0, 0, 1]]).is_zero()
    assert IntMatrix.from_rows([[1, 2]]).cols == 2
    assert IntMatrix.from_rows([]) == IntMatrix(0, 0, ())


def test_snf_examples():
    identity = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert smith_normal_form(identity).invariant_factors == (1, 1)
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    zero = smith_normal_form(_zeros(2, 3))
    assert zero.invariant_factors == () and zero.rank == 0


def test_snf_known_matrix():
    mat = IntMatrix.from_rows(
        [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
    )
    got = smith_normal_form(mat)
    assert got.invariant_factors == (1, 10, 30)
    assert got.rank == 3


def test_snf_empty_shapes():
    assert smith_normal_form(_zeros(0, 4)).rank == 0
    assert smith_normal_form(_zeros(4, 0)).rank == 0


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        factors = smith_normal_form(mat).invariant_factors
        assert all(d >= 1 for d in factors)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))


def test_snf_against_minor_gcds_random():
    selftest._check_snf_against_minors()


@st.composite
def _matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    entry = st.integers(-9, 9)
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix(rows, cols, tuple(map(tuple, grid)))


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_snf_property_against_minor_gcds(mat):
    got = smith_normal_form(mat)
    assert got.invariant_factors == minor_gcd_invariant_factors(mat)
    # bound 0 runs modulo N from the first step, a small bound switches
    # there in the middle of the elimination
    for bound in (0, 1, 2, 3, 5, 8):
        assert gradedtop._invariant_factors(mat, bound) == got.invariant_factors
    assert got.rank == len(got.invariant_factors)
    if mat.rows == mat.cols:
        det = _det([list(row) for row in mat.entries])
        if det:
            assert prod(got.invariant_factors) == abs(det)


def test_modular_phase_runs_only_past_the_bound(monkeypatch):
    # the pivots 2 stay below the Hadamard bound 3 * 3, so the elimination
    # stays exact; bound 0 switches at the first pivot and looks up M once
    calls = []
    real = gradedtop._rank_and_minor
    monkeypatch.setattr(gradedtop, "_rank_and_minor", lambda mat: (calls.append(mat), real(mat))[1])
    mat = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert gradedtop._invariant_factors(mat) == (2, 2)
    assert calls == []
    assert gradedtop._invariant_factors(mat, 0) == (2, 2)
    assert calls == [mat]


# sub-seeds of m x m matrices on which smallest-pivot elimination without a
# growth bound ran past 2 s (entries in {-1, 1, 2} at density 1/2)
_BLOW_UP_SEEDS = {
    16: (218, 1396, 1519, 1609),
    17: (11, 51, 68, 73),
    18: (0, 2, 8, 10),
    19: (5, 6, 9, 10),
    20: (0, 1, 2, 3),
}


def _blow_up_matrix(m, sub_seed):
    rng = random.Random(f"snf:{m}:{sub_seed}")
    return [[rng.choice((-1, 1, 2)) if rng.random() < 0.5 else 0 for _ in range(m)]
            for _ in range(m)]


def _fraction_rank_det(rows):
    """Rank, and the determinant when the matrix is square of full rank
    (else 0), by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    cols = len(a[0]) if a else 0
    det, r = Fraction(1), 0
    for c in range(cols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            det = -det
        det *= a[r][c]
        for row in a[r + 1:]:
            f = row[c] / a[r][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], a[r][c:])]
        r += 1
    return r, int(det) if r == len(a) == cols else 0


def _check_product_equals_det():
    rng = random.Random(2024)
    mats = [_blow_up_matrix(m, s) for m, seeds in _BLOW_UP_SEEDS.items() for s in seeds]
    mats += [[[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)] for m in (20, 30, 40, 60)]
    for rows in mats:
        factors = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors
        assert len(factors) == len(rows)
        assert prod(factors) == abs(_fraction_rank_det(rows)[1])
    # dense 25 x 40 of rank 24 (its last row is the sum of the first two) and
    # its transpose: the run modulo 2|M| from the first step must agree, and
    # the rank is the rational rank
    wide = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(24)]
    wide.append([x + y for x, y in zip(wide[0], wide[1])])
    for rows in (wide, [list(col) for col in zip(*wide)]):
        mat = IntMatrix.from_rows(rows)
        factors = smith_normal_form(mat).invariant_factors
        assert gradedtop._invariant_factors(mat, 0) == factors
        assert len(factors) == _fraction_rank_det(rows)[0] == 24


_CHILD_SECONDS = 60


def _check_under_cpu_limit(seconds):
    """``_check_product_equals_det`` with this process's CPU time capped at
    ``seconds``, so that the child ends by itself even when the pytest
    process that started it is killed first."""
    try:
        import resource
    except ImportError:  # no resource module (Windows): the parent's timeout only
        pass
    else:
        _, hard = resource.getrlimit(resource.RLIMIT_CPU)
        soft = seconds if hard == resource.RLIM_INFINITY else min(seconds, hard)
        resource.setrlimit(resource.RLIMIT_CPU, (soft, hard))
    _check_product_equals_det()


def test_snf_product_equals_det_where_elimination_blows_up(package_env):
    """In a child process with a time limit, so that unbounded coefficient
    growth fails the test instead of hanging the suite."""
    # the child imports this module too
    env = dict(package_env)
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    child = subprocess.run(
        [sys.executable, "-c",
         f"import test_gradedtop; test_gradedtop._check_under_cpu_limit({_CHILD_SECONDS})"],
        env=env, capture_output=True, text=True, timeout=_CHILD_SECONDS,
    )
    assert child.returncode == 0, child.stderr


def test_kernel_and_cokernel():
    diag = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert cokernel(diag) == (0, (6,))
    wide = IntMatrix.from_rows([[1, 0, 0]])
    assert cokernel(wide) == (0, ())
    tall = IntMatrix.from_rows([[0], [0]])
    assert cokernel(tall) == (2, ())


def test_kernel_and_cokernel_compute_their_own_snf():
    assert list(inspect.signature(cokernel).parameters) == ["mat"]


def test_graded_group_accessors():
    g = GradedGroup((1, 0, 0, 2))
    assert g.ranks == (1, 0, 0, 2) and g.top_degree == 3
    assert g.rank(0) == 1 and g.rank(3) == 2 and g.rank(7) == 0 and g.rank(-1) == 0
    # the groups are torsion free: the property reads none in every degree
    assert g.torsion == ((), (), (), ())
    with pytest.raises(AttributeError):
        g.torsion = ((2,), (), (), ())
    with pytest.raises(AttributeError):
        g.top_degree = 5


def test_graded_group_validation():
    cases = [
        ((-1,), "ranks must be nonnegative"),
        ((1, 0, -1, 0, 1), "ranks must be nonnegative"),
        ((), "top degree must be nonnegative"),
    ]
    for ranks, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedGroup(ranks)
    group = GradedGroup([1, 0, 0, 0, 1])
    assert group.ranks == (1, 0, 0, 0, 1) and group.top_degree == 4


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_graded_group_rank_type_names_the_degree(bad):
    ranks = [1, 0, 2, 0, 1]
    for j in range(5):
        wrong = ranks[:j] + [bad] + ranks[j + 1:]
        message = f"rank at degree {j} must be of type int, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedGroup(tuple(wrong))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedGroup(wrong)  # lists are converted, as before
    # the first offending degree is named
    with pytest.raises(ValueError, match="^rank at degree 1 must be"):
        GradedGroup((1, bad, 2, bad, 1))


@pytest.mark.parametrize("bad", ["1", 1.0, True])
def test_graded_group_rank_degree_is_an_int(bad):
    # "1" and 1.0 died in the range check with a bare TypeError, and True
    # was read as degree 1
    message = f"degree must be of type int, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradedGroup((1, 3, 0)).rank(bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=13).map(GradedGroup))
def test_graded_group_json_round_trip(g):
    # the JSON form lists every degree as str(j), in order, with its rank and
    # an empty torsion list: the constructor rebuilds the group from the ranks
    data = json.loads(json.dumps(g.to_json_dict()))
    assert data["top_degree"] == g.top_degree == len(g.ranks) - 1
    assert list(data["groups"]) == [str(j) for j in range(g.top_degree + 1)]
    groups = data["groups"].values()
    assert all(grp["torsion"] == [] for grp in groups)
    assert GradedGroup([grp["rank"] for grp in groups]) == g


def test_constructors_require_integers():
    # a float, a bool or a numeric string is refused by the constructor that
    # stores the field, and the error names the field
    ranks = list(standard_orbit_model(7, Family.CPN, 1).cohomology.ranks)
    ranks[7] = 2.6
    with pytest.raises(ValueError, match=r"^rank at degree 7 must be of type int, got 2\.6$"):
        GradedGroup(ranks)
    with pytest.raises(ValueError, match=r"^matrix entry \[0\]\[0\] must be of type int, got True$"):
        IntMatrix.from_rows([[True]])
    with pytest.raises(ValueError, match=r"^matrix entry \[0\]\[0\] must be of type int, got '3'$"):
        IntMatrix.from_rows([["3", 1.9]])
    with pytest.raises(ValueError, match=r"^matrix entry \[0\]\[1\] must be of type int, got 1\.9$"):
        IntMatrix.from_rows([[3, 1.9]])


def test_model_rejects_out_of_range_degrees():
    base = standard_orbit_model(7, Family.CPN, 1)
    coh = base.cohomology
    for j, message in ((40, "^cup map at degree 40 outside 0..12$"),
                       (-2, "^cup map at degree -2 outside 0..12$")):
        cup = {j: _zeros(0, 0), **base.cup_t}
        with pytest.raises(ValueError, match=message):
            OrbitModel(coh, cup)
    # a map out of degree 2n - 1 would land past the top degree
    cup = {**base.cup_t, 13: _zeros(0, 0)}
    with pytest.raises(ValueError, match="^cup map at degree 13 outside 0..12$"):
        OrbitModel(coh, cup)


def test_standard_model_cpn_no_handles():
    model = standard_orbit_model(7, Family.CPN, 0)
    assert model.cohomology.ranks == (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_standard_model_cphalf_one_handle():
    model = standard_orbit_model(7, "CPHALF_TIMES_SPHERE", 1)
    ranks = model.cohomology.ranks
    assert ranks[7] == 2
    assert all(ranks[j] == 1 for j in range(0, 15, 2))
    assert all(ranks[j] == 0 for j in range(1, 15, 2) if j != 7)


def test_standard_model_middle_rank():
    assert standard_orbit_model(5, Family.CPN, 2).cohomology.rank(5) == 4


def test_standard_model_cup_dichotomy():
    n = 7
    cpn = standard_orbit_model(n, Family.CPN, 1)
    assert cpn.cup_t[n - 1].entries == ((1,),)
    # a map that is not stored is the zero map
    half = standard_orbit_model(n, Family.CPHALF_TIMES_SPHERE, 1)
    assert n - 1 not in half.cup_t
    # handle classes always die under cup with t
    assert n not in cpn.cup_t


@pytest.mark.parametrize("family,stored", [(Family.CPN, 15), (Family.CPHALF_TIMES_SPHERE, 14)])
def test_standard_model_stores_only_unit_maps(family, stored):
    n = 15
    model = standard_orbit_model(n, family, 2)
    assert len(model.cup_t) == stored
    assert all(mat.entries == ((1,),) for mat in model.cup_t.values())
    dead = {n - 1} if family is Family.CPHALF_TIMES_SPHERE else set()
    assert set(model.cup_t) == set(range(0, 2 * n - 1, 2)) - dead


def test_standard_model_rejects_bad_dimension():
    # checked before the ranks are built: n = -2 would index past them, and
    # an even n has no degree n - 1 map for the product family to drop
    for n in (-2, -1, 3, 4, 6, 8):
        for family in Family:
            with pytest.raises(ValueError, match="^dimension out of scope$"):
                standard_orbit_model(n, family, 0)
    with pytest.raises(ValueError, match="^handle count must be nonnegative$"):
        standard_orbit_model(7, Family.CPN, -1)
    # the family is an argument of the standard model only, a Family or its name
    with pytest.raises(ValueError, match="'nope'"):
        standard_orbit_model(7, "nope", 0)
    assert standard_orbit_model(7, "CPN", 1) == standard_orbit_model(7, Family.CPN, 1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        # n is read off the cohomology: an n row builds one of top degree 2n
        ("n", 3, "^dimension out of scope$"),
        ("n", 4, "^dimension out of scope$"),
        ("n", 6, "^dimension out of scope$"),
        ("cohomology", GradedGroup((1, 0, 1) + (0,) * 10 + (1, 0, 1)), "^dimension out of scope$"),
        # a top degree 4 cohomology once failed the degrees-0..2n check; n is
        # now read off it, so it fails the dimension check instead
        pytest.param(
            "cohomology", GradedGroup((1, 0, 1, 0, 1)), "^dimension out of scope$",
            id="cohomology-top-degree-4",
        ),
        ("cohomology", GradedGroup((1, 0) * 8 + (1,)), "^dimension out of scope$"),
    ],
)
def test_model_constructor_checks_its_own_fields(field, value, message):
    # a top degree other than 2n for an odd n >= 5 (here 6, 8, 12, 15, 4
    # and 16) is refused before the ranks are read
    cohomology = GradedGroup((1, 0) * value + (1,)) if field == "n" else value
    with pytest.raises(ValueError, match=message):
        OrbitModel(cohomology, {0: IntMatrix.from_rows([[1]])})


@pytest.mark.parametrize("n", [5, 7, 9, 15, 63])
@pytest.mark.parametrize("family", list(Family))
def test_model_n_is_read_off_the_cohomology(n, family):
    model = standard_orbit_model(n, family, 2)
    assert model.n == n == model.cohomology.top_degree // 2
    assert type(model).__slots__ == ("cohomology", "cup_t")
    assert model.__reduce__() == (OrbitModel, (model.cohomology, dict(model.cup_t)))
    rebuilt = OrbitModel(model.cohomology, model.cup_t)
    for clone in (rebuilt, pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert clone == model and clone.n == n


def test_model_arguments_must_be_ints():
    # n = 7.0 died in range() with a bare TypeError, and r = 1.5 was reported
    # as a rank of 3.0 at degree 7, a field the caller never passed
    with pytest.raises(ValueError, match=r"^n must be of type int, got 7\.0$"):
        standard_orbit_model(7.0, "CPN", 1)
    with pytest.raises(ValueError, match=r"^r must be of type int, got 1\.5$"):
        standard_orbit_model(7, "CPN", 1.5)
    with pytest.raises(ValueError, match=r"^r must be of type int, got True$"):
        standard_orbit_model(7, "CPN", True)


_UNIT_MAP = IntMatrix.from_rows([[1]])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("cohomology", (1, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1, 0, 1, 0, 1),
         r"^cohomology must be of type GradedGroup, got \(1, 0, 1, "),
        ("cup_t", {0: [[1]]}, r"^cup map at degree 0 must be of type IntMatrix, got \[\[1\]\]$"),
        ("cup_t", {0: _UNIT_MAP, 4: ((1,),)},
         r"^cup map at degree 4 must be of type IntMatrix, got \(\(1,\),\)$"),
        ("cup_t", {"0": _UNIT_MAP}, "^cup_t key must be of type int, got '0'$"),
        ("cup_t", {0.0: _UNIT_MAP}, r"^cup_t key must be of type int, got 0\.0$"),
        ("cup_t", {0: _UNIT_MAP, True: _UNIT_MAP}, "^cup_t key must be of type int, got True$"),
    ],
)
def test_model_fields_must_have_their_types(field, value, message):
    # a ranks tuple died with AttributeError 'top_degree', a nested list with
    # AttributeError 'cols', and a key "0" or 0.0 with a bare TypeError
    base = standard_orbit_model(7, Family.CPN, 1)
    fields = {"cohomology": base.cohomology, "cup_t": base.cup_t, field: value}
    with pytest.raises(ValueError, match=message):
        OrbitModel(**fields)


@pytest.mark.parametrize("n", [5, 7, 15])
def test_gysin_sphere(n):
    model = standard_orbit_model(n, Family.CPN, 0)
    h = gysin_total_space(model)
    expected = GradedGroup((1,) + (0,) * (2 * n) + (1,))
    assert h == expected


@pytest.mark.parametrize("n,r", [(5, 1), (7, 2), (15, 3)])
def test_gysin_cpn_middle_ranks(n, r):
    h = gysin_total_space(standard_orbit_model(n, Family.CPN, r))
    assert h.rank(n) == 2 * r and h.rank(n + 1) == 2 * r
    assert all(
        h.rank(j) == 0 for j in range(1, 2 * n + 1) if j not in (n, n + 1)
    )


@pytest.mark.parametrize("n,r", [(5, 0), (7, 1), (15, 2)])
def test_gysin_cphalf_middle_ranks(n, r):
    h = gysin_total_space(standard_orbit_model(n, Family.CPHALF_TIMES_SPHERE, r))
    assert h.rank(n) == 2 * r + 1 and h.rank(n + 1) == 2 * r + 1


@pytest.mark.parametrize("family,stored", [(Family.CPN, 15), (Family.CPHALF_TIMES_SPHERE, 14)])
def test_gysin_runs_one_snf_per_stored_map(monkeypatch, family, stored):
    calls = []
    original = gradedtop.smith_normal_form

    def counting(mat):
        calls.append(mat)
        return original(mat)

    model = standard_orbit_model(15, family, 2)
    monkeypatch.setattr(gradedtop, "smith_normal_form", counting)
    gysin_total_space(model)
    assert stored == len(model.cup_t)
    assert len(calls) == len(set(model.cup_t.values())) == 1


def test_gysin_runs_one_snf_per_distinct_map(monkeypatch):
    model = standard_orbit_model(7, Family.CPN, 0)
    cup = dict(model.cup_t)
    cup[2] = IntMatrix.from_rows([[-1]])
    flipped = OrbitModel(model.cohomology, cup)
    expected = gysin_total_space(model)
    calls = []
    original = gradedtop.smith_normal_form
    monkeypatch.setattr(gradedtop, "smith_normal_form", lambda mat: calls.append(mat) or original(mat))
    assert gysin_total_space(flipped) == expected
    assert len(calls) == len(set(flipped.cup_t.values())) == 2


@pytest.mark.parametrize("n", [7, 15])
@pytest.mark.parametrize("r", [0, 2])
@pytest.mark.parametrize("family", list(Family))
def test_explicit_zero_maps_change_nothing(n, r, family):
    model = standard_orbit_model(n, family, r)
    coh = model.cohomology
    cup = {j: _zeros(coh.rank(j + 2), coh.rank(j)) for j in range(2 * n - 1)}
    cup.update(model.cup_t)
    padded = OrbitModel(coh, cup)
    if family is Family.CPHALF_TIMES_SPHERE:
        assert padded.cup_t[n - 1].entries == ((0,),)
    assert gysin_total_space(padded) == gysin_total_space(model)
    for d in (0, 1440, 2419200):
        assert divisibility_transfer(padded, d) == divisibility_transfer(model, d)


def _per_degree_gysin(model):
    """The total-space ranks degree by degree, one cokernel per stored map:
    the bookkeeping gysin_total_space does with built-in sequence
    operations."""
    image = {}
    for j, mat in sorted(model.cup_t.items()):
        free, torsion = cokernel(mat)
        if torsion:
            raise ArithmeticError(
                f"cup-with-t cokernel at degree {j + 2} has torsion {torsion}; "
                "extension undetermined for this model"
            )
        image[j] = mat.rows - free
    n, coh = model.n, model.cohomology
    ranks = tuple(
        coh.rank(j) - image.get(j - 2, 0) + coh.rank(j - 1) - image.get(j - 1, 0)
        for j in range(2 * n + 2)
    )
    return GradedGroup(ranks)


def test_gysin_equals_the_per_degree_formula():
    for n in range(5, 64, 2):
        for family in Family:
            for r in range(5):
                model = standard_orbit_model(n, family, r)
                assert gysin_total_space(model) == _per_degree_gysin(model)


def test_gysin_mixed_maps_equal_the_per_degree_formula():
    model = standard_orbit_model(15, Family.CPHALF_TIMES_SPHERE, 2)
    minus = IntMatrix.from_rows([[-1]])
    cup = dict(model.cup_t)
    for j in (0, 4, 6, 20):
        cup[j] = minus
    mixed = OrbitModel(model.cohomology, cup)
    assert gysin_total_space(mixed) == _per_degree_gysin(mixed) == gysin_total_space(model)
    # torsion at two degrees, the shared unit map in between: both name the
    # lowest degree whose cokernel has torsion
    cup[22] = IntMatrix.from_rows([[2]])
    cup[8] = IntMatrix.from_rows([[3]])
    twisted = OrbitModel(model.cohomology, cup)
    with pytest.raises(ArithmeticError) as new:
        gysin_total_space(twisted)
    with pytest.raises(ArithmeticError) as old:
        _per_degree_gysin(twisted)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("cup-with-t cokernel at degree 10 has torsion (3,)")


def test_gysin_refuses_a_cokernel_with_torsion():
    model = standard_orbit_model(7, Family.CPN, 0)
    cup = dict(model.cup_t)
    cup[2] = IntMatrix.from_rows([[2]])  # H^4 / 2 H^2 has torsion Z/2
    doubled = OrbitModel(model.cohomology, cup)
    with pytest.raises(ArithmeticError, match=r"at degree 4 has torsion \(2,\)"):
        gysin_total_space(doubled)


_PRIMITIVE = r"^a primitive Euler class needs cup_t\[0\] = \[\[1\]\] or \[\[-1\]\]$"


def test_gysin_requires_primitive_euler_class():
    # a model whose Euler class does not generate H^2 cannot be built, so the
    # Gysin engine never sees one
    model = standard_orbit_model(7, Family.CPN, 0)
    for unit in (None, [[0]], [[2]]):
        cup = dict(model.cup_t)
        del cup[0]
        if unit is not None:
            cup[0] = IntMatrix.from_rows(unit)
        with pytest.raises(ValueError, match=_PRIMITIVE):
            OrbitModel(model.cohomology, cup)


def test_gysin_outputs_highly_connected():
    selftest._check_gysin_round_trip()


def test_euler_characteristic_and_duality():
    selftest._check_euler_characteristic_conservation()
    selftest._check_poincare_duality()


def test_divisibility_transfer():
    cpn = standard_orbit_model(7, Family.CPN, 1)
    assert divisibility_transfer(cpn, 1440) == 0
    assert divisibility_transfer(cpn, 0) == 0
    half = standard_orbit_model(7, Family.CPHALF_TIMES_SPHERE, 1)
    assert divisibility_transfer(half, 1440) == 1440
    assert divisibility_transfer(half, 0) == 0


def test_divisibility_transfer_over_zero_groups():
    # H^6 = H^8 = 0, so cup with t on degree n - 1 is the 0 x 0 map: an isomorphism
    coh = GradedGroup((1, 0, 1) + (0,) * 9 + (1, 0, 1))
    model = OrbitModel(coh, {0: IntMatrix.from_rows([[1]])})
    assert 6 not in model.cup_t
    assert divisibility_transfer(model, 1440) == 0


def test_divisibility_transfer_rejects_wrong_dimension():
    model = standard_orbit_model(5, Family.CPN, 0)
    with pytest.raises(ValueError, match="7"):
        divisibility_transfer(model, 0)
    with pytest.raises(ValueError):
        divisibility_transfer(standard_orbit_model(7, Family.CPN, 0), -1)


def test_divisibility_transfer_rejects_broken_dichotomy():
    model = standard_orbit_model(7, Family.CPN, 0)
    cup = dict(model.cup_t)
    cup[6] = IntMatrix.from_rows([[2]])  # neither zero nor unimodular
    broken = OrbitModel(model.cohomology, cup)
    with pytest.raises(ValueError, match="neither zero nor an isomorphism"):
        divisibility_transfer(broken, 24)


def test_model_validation_rejects_bad_shapes():
    model = standard_orbit_model(7, Family.CPN, 1)
    cup = dict(model.cup_t)
    cup[0] = _zeros(3, 7)
    with pytest.raises(ValueError, match="wrong shape"):
        OrbitModel(model.cohomology, cup)
    # the right number of columns, the wrong number of rows
    cup = {**model.cup_t, 2: _zeros(2, 1)}
    with pytest.raises(ValueError, match="^cup map at degree 2 has wrong shape$"):
        OrbitModel(model.cohomology, cup)


def test_model_validation_rejects_bad_cohomology():
    # missing unit in degree 0
    no_unit = GradedGroup((0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 1))
    with pytest.raises(ValueError, match="^H\\^0 = Z, H\\^1 = 0, H\\^2 = Z are required$"):
        OrbitModel(no_unit, {})
    # duality broken: extra class in degree 4 with no partner in degree 10
    lopsided = GradedGroup((1, 0, 1, 0, 2, 0, 1, 2, 1, 0, 1, 0, 1, 0, 1))
    with pytest.raises(ValueError, match="^ranks must satisfy Poincare duality$"):
        OrbitModel(lopsided, {})
    # odd middle rank
    base = standard_orbit_model(7, Family.CPN, 0).cohomology
    odd_middle = GradedGroup(base.ranks[:7] + (1,) + base.ranks[8:])
    with pytest.raises(ValueError, match="^middle rank must be even$"):
        OrbitModel(odd_middle, {})


def test_model_validation_rejects_a_non_generating_euler_class():
    # without cup_t[0] the map H^0 -> H^2 is zero, so t cannot generate H^2;
    # the Gysin engine used to return ranks (1, 1, 1, 0, ..., 0, 1) here
    model = standard_orbit_model(15, Family.CPHALF_TIMES_SPHERE, 2)
    cup = dict(model.cup_t)
    del cup[0]
    with pytest.raises(ValueError, match=_PRIMITIVE):
        OrbitModel(model.cohomology, cup)
    cup[0] = IntMatrix.from_rows([[-1]])  # the other generator of H^2
    flipped = OrbitModel(model.cohomology, cup)
    assert flipped.cup_t[0].entries == ((-1,),)
    assert gysin_total_space(flipped) == gysin_total_space(model)


def test_model_cup_maps_are_a_read_only_copy():
    # assigning through m.cup_t, or changing the dict the model was built
    # from, undid the primitive Euler class check: Gysin then returned ranks
    # (1, 1, 1, 0, ..., 0, 1)
    model = standard_orbit_model(7, "CPN", 0)
    expected = gysin_total_space(model)
    with pytest.raises(TypeError):
        model.cup_t[0] = IntMatrix.from_rows([[0]])
    with pytest.raises(TypeError):
        del model.cup_t[2]
    cup = dict(model.cup_t)
    built = OrbitModel(model.cohomology, cup)
    cup[0] = IntMatrix.from_rows([[0]])
    del cup[2]
    assert built.cup_t[0].entries == ((1,),) and 2 in built.cup_t
    assert built == model
    assert gysin_total_space(built) == gysin_total_space(model) == expected
    for clone in (pickle.loads(pickle.dumps(model)), copy.copy(model), copy.deepcopy(model)):
        assert clone == model and clone.cup_t is not model.cup_t
        with pytest.raises(TypeError):
            clone.cup_t[0] = IntMatrix.from_rows([[0]])

