"""Integer linear algebra and graded models of circle-bundle orbit spaces.

The manifolds in scope have torsion-free homology, so a graded group is
its free ranks, one per degree.  A model stores the ranks of the
orbit-space cohomology together with the integer matrices of cup product
with the Euler class t (one map H^j -> H^{j+2} per degree).  That is all
the Gysin sequence consumes: the total-space cohomology is assembled
degreewise from

    0 -> coker(t: H^{j-2} -> H^j) -> H^j(total) -> ker(t: H^{j-1} -> H^{j+1}) -> 0

with kernels and cokernels computed by Smith normal form.  The extension is
resolved as a direct sum and the cokernel is then *asserted* torsion-free;
a model producing torsion errors out rather than guessing the extension.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import add, mul, sub
from types import MappingProxyType

from ._record import Family, Record, _exact

__all__ = [
    "IntMatrix",
    "SNFResult",
    "smith_normal_form",
    "cokernel",
    "GradedGroup",
    "Family",
    "OrbitModel",
    "standard_orbit_model",
    "gysin_total_space",
    "divisibility_transfer",
]


class IntMatrix(Record):
    """Immutable integer matrix; rows x cols, entries[i][j]."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        try:
            entries = tuple(
                tuple(_exact(x, int, "matrix entry [{}][{}]", i, j) for j, x in enumerate(row))
                for i, row in enumerate(entries)
            )
        except TypeError:  # entries, or one of its rows, is not iterable
            raise ValueError(
                f"entries must be a sequence of rows of ints, got {entries!r}"
            ) from None
        _exact(rows, int, "rows")
        _exact(cols, int, "cols")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry grid does not match declared dimensions")
        self._store(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        try:
            entries = tuple(map(tuple, rows))
        except TypeError:
            raise ValueError(f"rows must be a list of rows of ints, got {rows!r}") from None
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


class SNFResult(Record):
    """Invariant factors d_1 | d_2 | ... | d_rank (all >= 1) of an integer
    matrix."""

    __slots__ = ("invariant_factors",)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(mat: IntMatrix) -> SNFResult:
    """Invariant factors by unimodular row/column operations, pivoting on
    the smallest nonzero entry; a pivot above the Hadamard bound of the
    input switches the elimination to arithmetic modulo 2|M|.

    Each round selects the smallest remaining nonzero entry and reduces its
    column, then its row once the column is clear.  A remainder is smaller
    than the pivot, so the next round selects again.

    Smallest-pivot elimination lets entries grow without limit.  Once the
    smallest remaining entry exceeds the Hadamard bound of the input (no
    minor of the input is larger), the elimination goes on modulo
    N = 2|M| for one nonzero r x r minor M, r the rank, as in Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4.  That is exact
    for every shape: each invariant factor d_i divides d_1...d_r, which
    divides M, so d_i = gcd(pivot, N), and the factor 2 keeps d_r = |M|
    apart from 0.
    """
    return SNFResult(_invariant_factors(_exact(mat, IntMatrix, "mat")))


def _hadamard_bound(mat: IntMatrix) -> int:
    """A bound on |minor| for every minor of ``mat``: the product over the
    nonzero rows of isqrt(sum of squares) + 1."""
    bound = 1
    for row in mat.entries:
        norm2 = sum(map(mul, row, row))
        if norm2:
            bound *= isqrt(norm2) + 1
    return bound


def _rank_and_minor(mat: IntMatrix) -> tuple[int, int]:
    """Rank r and one nonzero r x r minor (1 when r = 0), by fraction-free
    Bareiss elimination: every entry it forms is a minor of ``mat``."""
    a = list(map(list, mat.entries))
    r, minor = 0, 1
    for c in range(mat.cols):
        p = next((i for i in range(r, mat.rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        head = a[r]
        pivot = head[c]
        for row in a[r + 1:]:
            x = row[c]
            row[c:] = [(pivot * y - x * h) // minor for y, h in zip(row[c:], head[c:])]
        minor = pivot
        r += 1
        if r == mat.rows:
            break
    return r, minor


def _invariant_factors(mat: IntMatrix, bound: int | None = None) -> tuple[int, ...]:
    """The elimination behind ``smith_normal_form``: exact integers while
    every pivot is at most ``bound``, modulo N = 2|M| from the first pivot
    above it.  ``bound`` defaults to the Hadamard bound, computed at the
    first pivot above 1 (no unit pivot exceeds it); ``bound`` 0 runs the
    whole elimination modulo N.  The block is reduced mod N only at each
    selection; a round's remainders, |r| < |pivot| <= N/2, stay as they are."""
    a = list(map(list, mat.entries))
    nr, nc = mat.rows, mat.cols
    limit = 1 if bound is None else bound
    modulus = half = 0  # exact integers until the switch
    factors: list[int] = []
    t = 0
    while True:
        if modulus:
            # the remaining block has the invariant factors d_{t+1..r}, all
            # below N, so reducing it into [-N/2, N/2) loses none of them
            # and leaves it zero once t = r
            for row in a[t:]:
                row[t:] = [(x + half) % modulus - half for x in row[t:]]
        # the smallest |entry| of the block, first in row-major order
        p = pi = 0
        for i in range(t, nr):
            m = min(map(abs, filter(None, a[i][t:])), default=0)
            if m and (m < p or not p):
                p, pi = m, i
                if m == 1:
                    break
        if not p:
            break
        pj = t + list(map(abs, a[pi][t:])).index(p)
        if p > limit:
            if bound is None:
                limit = bound = _hadamard_bound(mat)
            if p > limit:
                half = abs(_rank_and_minor(mat)[1])
                modulus = limit = 2 * half
                continue
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        # one Euclid pass down column t; a remainder sends the round back to selection
        head = a[t]
        pivot = head[t]
        rest = False
        for row in a[t + 1:]:
            q = row[t] // pivot
            if q:
                for j in range(t, nc):
                    row[j] -= q * head[j]
            if row[t]:
                rest = True
        if rest:
            continue
        # column t is clear below the pivot, so only the head row changes:
        # x - (x // pivot) * pivot is x % pivot
        head[t + 1:] = [x % pivot for x in head[t + 1:]]
        if any(head[t + 1:]):
            continue
        # the pivot must divide every remaining entry; if not, fold the
        # offending row in and re-eliminate
        d = gcd(pivot, modulus)  # |pivot| while exact
        offender = None
        if d > 1:
            for i in range(t + 1, nr):
                if any(x % d for x in a[i][t + 1:]):
                    offender = i
                    break
        if offender is not None:
            for j in range(t, nc):
                a[t][j] += a[offender][j]
            continue
        factors.append(d)
        t += 1
    return tuple(factors)


def cokernel(mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Cokernel as (free rank, torsion coefficients): Z^{rows-rank} plus
    Z/d_i for each invariant factor d_i > 1."""
    snf = smith_normal_form(mat)
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    return mat.rows - snf.rank, torsion


class GradedGroup(Record):
    """Finitely generated free graded abelian group: its rank in each degree
    0..top_degree; degrees outside the range are trivial."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]) -> None:
        # one built-in pass over the types; the loop only names the degree
        try:
            ranks = tuple(ranks)
        except TypeError:
            raise ValueError(f"ranks must be a sequence of ints, got {ranks!r}") from None
        if not set(map(type, ranks)) <= {int}:
            for j, r in enumerate(ranks):
                _exact(r, int, "rank at degree {}", j)
        if not ranks:
            raise ValueError("top degree must be nonnegative")
        if min(ranks) < 0:
            raise ValueError("ranks must be nonnegative")
        self._store(ranks)

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    @property
    def torsion(self) -> tuple[tuple[int, ...], ...]:
        """The torsion coefficients of each degree: none."""
        return ((),) * len(self.ranks)

    def rank(self, j: int) -> int:
        return self.ranks[j] if 0 <= _exact(j, int, "degree") < len(self.ranks) else 0

    def to_json_dict(self) -> dict:
        return {
            "top_degree": self.top_degree,
            "groups": {str(j): {"rank": r, "torsion": []} for j, r in enumerate(self.ranks)},
        }


class OrbitModel(Record):
    """Cohomology of a candidate orbit space (a 2n-manifold) together with
    the cup-with-t maps the Gysin sequence needs; n is read off the top
    degree of ``cohomology``.

    ``cup_t[j]`` is the matrix of -cup t: H^j -> H^{j+2} (rows = rank of
    the target); degrees without a stored matrix are zero maps.  The Euler
    class t generates H^2, so ``cup_t[0]`` must be [[1]] or [[-1]].  The
    model keeps a read-only copy of ``cup_t``, so the checks hold for its
    lifetime.
    """

    __slots__ = ("cohomology", "cup_t")

    def __init__(self, cohomology: GradedGroup, cup_t: dict[int, IntMatrix]) -> None:
        _exact(cohomology, GradedGroup, "cohomology")
        try:
            cup = dict(cup_t)
        except (TypeError, ValueError):
            raise ValueError(
                f"cup_t must be a mapping from degree to IntMatrix, got {cup_t!r}"
            ) from None
        top = cohomology.top_degree
        if top < 10 or top % 4 != 2:  # top = 2n with n odd and at least 5
            raise ValueError("dimension out of scope")
        n = top // 2
        ranks = cohomology.ranks
        if ranks[:3] != (1, 0, 1):
            raise ValueError("H^0 = Z, H^1 = 0, H^2 = Z are required")
        if ranks[n] % 2:
            raise ValueError("middle rank must be even")
        if ranks != ranks[::-1]:
            raise ValueError("ranks must satisfy Poincare duality")
        for j, mat in cup.items():
            # type tests inline, _exact only for its message: a call per
            # degree would slow the build of every model
            if type(j) is not int:
                _exact(j, int, "cup_t key")
            if not 0 <= j <= top - 2:
                raise ValueError(f"cup map at degree {j} outside 0..{top - 2}")
            if type(mat) is not IntMatrix:
                _exact(mat, IntMatrix, "cup map at degree {}", j)
            if mat.cols != ranks[j] or mat.rows != ranks[j + 2]:
                raise ValueError(f"cup map at degree {j} has wrong shape")
        unit = cup.get(0)  # None is the zero map
        if unit is None or unit.entries not in (((1,),), ((-1,),)):
            raise ValueError("a primitive Euler class needs cup_t[0] = [[1]] or [[-1]]")
        self._store(cohomology, MappingProxyType(cup))

    @property
    def n(self) -> int:
        return self.cohomology.top_degree // 2

    def __reduce__(self):
        # a mapping proxy does not pickle; the constructor copies the dict again
        return type(self), (self.cohomology, dict(self.cup_t))


def standard_orbit_model(n: int, family: Family | str, r: int) -> OrbitModel:
    """The orbit-space model with r handles: connected sum of r copies of
    S^n x S^n with either CP^n or CP^{(n-1)/2} x S^{n+1}.

    Both families have Z in every even degree plus Z^{2r} in degree n; they
    differ in the cup-with-t map H^{n-1} -> H^{n+1}, which is an
    isomorphism for the projective family and zero for the product family
    (t^{(n+1)/2} vanishes there and the sphere class is not a t-multiple).
    """
    _exact(n, int, "n")
    _exact(r, int, "r")
    if n < 5 or n % 2 == 0:
        raise ValueError("dimension out of scope")
    if r < 0:
        raise ValueError("handle count must be nonnegative")
    family = Family(family)
    ranks = [1, 0] * n + [1]
    ranks[n] += 2 * r  # handles: r copies of S^n x S^n
    # t^a -> t^{a+1} (or its sphere translate) is onto a generator; handle
    # classes and the degree-n-1 class of the product family go to zero
    unit = IntMatrix(1, 1, ((1,),))
    cup = dict.fromkeys(range(0, 2 * n - 1, 2), unit)
    if family is Family.CPHALF_TIMES_SPHERE:
        del cup[n - 1]
    return OrbitModel(GradedGroup(ranks), cup)


def gysin_total_space(model: OrbitModel) -> GradedGroup:
    """Cohomology of the circle-bundle total space over the model, assembled
    degreewise from the cokernel/kernel short exact sequences.

    One Smith normal form per distinct stored cup map gives its torsion
    check and its image rank (the unit maps of a standard model are one
    shared matrix); a degree without a stored map is the zero map.
    """
    base = _exact(model, OrbitModel, "model").cohomology.ranks
    image = [0] * len(base)  # rank of the image of t on H^j
    cokernels: dict[IntMatrix, tuple[int, tuple[int, ...]]] = {}
    last = None  # a run of one shared map is looked up once
    for j, mat in sorted(model.cup_t.items()):
        if mat is not last:
            if mat not in cokernels:
                cokernels[mat] = cokernel(mat)
            coker_free, coker_torsion = cokernels[mat]
            if coker_torsion:
                raise ArithmeticError(
                    f"cup-with-t cokernel at degree {j + 2} has torsion {coker_torsion}; "
                    "extension undetermined for this model"
                )
            rank, last = mat.rows - coker_free, mat
        image[j] = rank
    # degree j of the total space, j = 0..2n+1:
    # rank H^j - image on H^{j-2}  +  rank H^{j-1} - image on H^{j-1}
    ranks = tuple(
        map(
            sub,
            map(add, base + (0,), (0,) + base),
            map(add, [0, 0] + image[:-1], [0] + image),
        )
    )
    return GradedGroup(ranks)


def divisibility_transfer(model: OrbitModel, d: int) -> int:
    """Divisibility of the pulled-back middle Pontrjagin class on the total
    space, given divisibility d on the orbit space.

    The vertical bundle of the circle bundle is trivial, so the class on
    the total space is the pullback.  If cup with t on degree n-1 is an
    isomorphism the pullback map on H^{n+1} is trivial and the answer is 0;
    if it is zero the pullback is a split injection onto a summand and the
    divisibility transfers unchanged.
    """
    if _exact(model, OrbitModel, "model").n % 8 != 7:
        raise ValueError("transfer defined only for n = 7 (mod 8)")
    if _exact(d, int, "d") < 0:
        raise ValueError("divisibility must be nonnegative")
    mat = model.cup_t.get(model.n - 1)
    if mat is None:
        # the zero map H^{n-1} -> H^{n+1}, an isomorphism only between zero
        # groups (duality makes the two ranks equal)
        return 0 if model.cohomology.rank(model.n - 1) == 0 else d
    if mat.rows == mat.cols and cokernel(mat) == (0, ()):
        return 0
    if mat.is_zero():
        return d
    raise ValueError(
        "cup with t on degree n-1 is neither zero nor an isomorphism; "
        "model outside the supported dichotomy"
    )
