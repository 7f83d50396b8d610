"""Decision procedure: does a highly connected odd-dimensional manifold
admit a free circle action, up to almost diffeomorphism?

Input is the almost-diffeomorphism class of an (n-1)-connected
(2n+1)-manifold with torsion-free homology, encoded by the invariants
(n, b_n, l): the dimension parameter n = 5 or 7 mod 8, the middle Betti
number, and (for n = 7 mod 8) the divisibility l of the middle Pontrjagin
class.  The verdict:

* n = 5 (mod 8): always admits an action.
* n = 7 (mod 8): admits iff b_n is even and l = 0, or b_n is odd and l is
  divisible by ((n-1)/2)! * den(B_{(n+1)/4} / (n+1)).

Admitting results carry a witness decomposition (the connected-sum normal
form of the manifold) and an orbit recipe that the Gysin engine can turn
back into the input invariants.

For k <= 512 (every n <= 2047) the factor ((n-1)/2)! = (2k-1)! of the
divisor is read from a table of (2k-1)! that a k past its end extends to
exactly k; larger k call ``math.factorial``.
"""

from __future__ import annotations

from enum import Enum
from math import factorial

from ._record import Family, Record, _Table, _exact, _set
from .bernoulli import im_j_order

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .gradedtop import OrbitModel

__all__ = [
    "ManifoldInvariants",
    "DivisorReport",
    "ReasonCode",
    "Witness",
    "OrbitRecipe",
    "ClassificationResult",
    "InvalidInvariantsError",
    "required_divisor",
    "validate",
    "classify",
]


class ManifoldInvariants(Record):
    """(n, b_n, l): dimension parameter, middle Betti number, and middle
    Pontrjagin divisibility.  l is meaningless (and ignored) when
    n = 5 mod 8; omitted l means 0.  Each is an int (l may be None); any
    other type is a ValueError naming the field."""

    __slots__ = ("n", "b_n", "l")

    def __init__(self, n: int, b_n: int, l: int | None = None) -> None:
        _set(self, "n", _exact(n, int, "n"))
        _set(self, "b_n", _exact(b_n, int, "b_n"))
        _set(self, "l", l if l is None else _exact(l, int, "l"))


class DivisorReport(Record):
    """The divisors governing dimension n = 7 (mod 8), k = (n+1)/4.

    ``kervaire`` is the divisor every realizable l satisfies
    (a_k (2k-1)!, doubled to 12 in dimension 7); ``required`` is the
    divisor l must satisfy for a free circle action to exist:
    ((n-1)/2)! * den(B_k / 4k).
    """

    __slots__ = ("n", "k", "a_k", "kervaire", "j_index", "required")

    def __init__(
        self, n: int, k: int, a_k: int, kervaire: int, j_index: int, required: int
    ) -> None:
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "a_k", a_k)
        _set(self, "kervaire", kervaire)
        _set(self, "j_index", j_index)
        _set(self, "required", required)

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values))


class ReasonCode(str, Enum):
    N5_ALWAYS = "N5_ALWAYS"
    EVEN_L_ZERO = "EVEN_L_ZERO"
    ODD_DIVISIBLE = "ODD_DIVISIBLE"
    EVEN_L_NONZERO = "EVEN_L_NONZERO"
    ODD_NOT_DIVISIBLE = "ODD_NOT_DIVISIBLE"
    UNREALIZABLE = "UNREALIZABLE"

    @property
    def admits(self) -> bool:
        return self in (
            ReasonCode.N5_ALWAYS,
            ReasonCode.EVEN_L_ZERO,
            ReasonCode.ODD_DIVISIBLE,
        )


class Witness(Record):
    """Connected-sum normal form of the input manifold: copies of
    S^n x S^{n+1}, plus (when the Pontrjagin class is nonzero) one linear
    S^n-bundle over S^{n+1} with Euler class 0 and p-divisibility l."""

    __slots__ = ("sphere_product_copies", "bundle_divisibility")

    def __init__(
        self, sphere_product_copies: int, bundle_divisibility: int | None = None
    ) -> None:
        _set(self, "sphere_product_copies", sphere_product_copies)
        _set(self, "bundle_divisibility", bundle_divisibility)

    def to_json_dict(self) -> dict:
        return dict(zip(self._fields, self._values))


class OrbitRecipe(Record):
    """Symbolic orbit space realizing the action: r handle summands
    S^n x S^n connect-summed with either CP^n or CP^{(n-1)/2} x S^{n+1}
    (the latter carrying middle Pontrjagin divisibility d when n = 7 mod 8),
    with the circle bundle over it classified by a primitive Euler class."""

    __slots__ = ("n", "family", "handles", "divisibility", "euler_class")

    def __init__(
        self,
        n: int,
        family: Family,
        handles: int,
        divisibility: int | None = None,
        euler_class: str = "primitive generator of H^2",
    ) -> None:
        _set(self, "n", n)
        _set(self, "family", family)
        _set(self, "handles", handles)
        _set(self, "divisibility", divisibility)
        _set(self, "euler_class", euler_class)

    def core_description(self) -> str:
        if self.family is Family.CPN:
            return f"CP^{self.n}"
        desc = f"CP^{(self.n - 1) // 2} x S^{self.n + 1}"
        if self.divisibility is not None:
            desc += f" with middle Pontrjagin divisibility {self.divisibility}"
        return desc

    def describe(self) -> str:
        core = self.core_description()
        n = self.n
        if self.handles:
            core = f"#_{self.handles}(S^{n} x S^{n}) # {core}"
        return f"{core}, circle bundle with Euler class a {self.euler_class}"

    def orbit_model(self) -> OrbitModel:
        """The graded model of this recipe, ready for the Gysin engine."""
        from .gradedtop import standard_orbit_model  # a verdict needs no linear algebra

        return standard_orbit_model(self.n, self.family, self.handles)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "family": self.family.value,
            "handles": self.handles,
            "divisibility": self.divisibility,
            "euler_class": self.euler_class,
            "description": self.describe(),
        }


class ClassificationResult(Record):
    __slots__ = ("reason", "divisors", "witness", "orbit", "notes")

    def __init__(
        self,
        reason: ReasonCode,
        divisors: DivisorReport | None,
        witness: Witness | None,
        orbit: OrbitRecipe | None,
        notes: tuple[str, ...] = (),
    ) -> None:
        _set(self, "reason", reason)
        _set(self, "divisors", divisors)
        _set(self, "witness", witness)
        _set(self, "orbit", orbit)
        _set(self, "notes", notes)

    @property
    def admits(self) -> bool:
        return self.reason.admits

    def to_json_dict(self) -> dict:
        return {
            "admits": self.admits,
            "reason": self.reason.value,
            "divisors": self.divisors.to_json_dict() if self.divisors else None,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "orbit": self.orbit.to_json_dict() if self.orbit else None,
            "notes": list(self.notes),
        }


class InvalidInvariantsError(ValueError):
    """The invariants do not describe a realizable manifold class."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# The cap bounds what one request can make the process build and keep: the
# full table took 0.14-0.37 ms to build and holds 285 KiB (67 KiB at
# k = 256; Python 3.11, Xeon x86-64), where k = 1024 would hold 1.24 MiB
_STEP_TABLE_CAP = 512


def _extend_step_factorials(table: list[int], carry: None, k: int) -> tuple[list[int], None]:
    # (2j-1)! = (2j-3)! (2j-2)(2j-1) from the last entry on, up to j = k
    grown = table[:] or [1]  # (2*1 - 1)! = 1
    f = grown[-1]
    for j in range(len(grown) + 1, k + 1):
        f *= (2 * j - 2) * (2 * j - 1)
        grown.append(f)
    return grown, carry


_step_factorials = _Table(_extend_step_factorials)  # (2k-1)! at index k - 1


def _step_factorial(k: int) -> int:
    """(2k-1)! for k >= 1; past the table ``math.factorial``, which raises
    OverflowError beyond the C long."""
    if k > _STEP_TABLE_CAP:
        return factorial(2 * k - 1)
    return _step_factorials.upto(k)[k - 1]


def required_divisor(n: int) -> DivisorReport:
    """Divisor report for n = 7 (mod 8): required = ((n-1)/2)! * den(B_k/4k)
    with k = (n+1)/4.  (1440 for n = 7, 2419200 for n = 15, ...)"""
    if _exact(n, int, "n") % 8 != 7 or n < 7:
        raise ValueError("divisor defined only for n = 7 (mod 8)")
    k = (n + 1) // 4
    # the index of p_k on stable bundles over S^{4k} is a_k (2k-1)!, where
    # a_k = 2 for odd k; k is even here, so a_k = 1
    step = _step_factorial(k)  # (2k-1)! = ((n-1)/2)!
    kervaire = step
    if n == 7:
        # Hopf-invariant-one dimension: the tangential obstruction is an
        # even multiple of a primitive class, doubling the divisor to 12
        kervaire = 2 * step
    j_index = im_j_order(k)
    required = step * j_index
    return DivisorReport(
        n=n, k=k, a_k=1, kervaire=kervaire, j_index=j_index, required=required
    )


def _effective_l(inv: ManifoldInvariants) -> int:
    return 0 if inv.l is None else inv.l


def _divisor_report(inv: ManifoldInvariants) -> DivisorReport | None:
    """The divisor report when n = 7 (mod 8), else None."""
    return required_divisor(inv.n) if inv.n % 8 == 7 and inv.n >= 7 else None


def _violations(inv: ManifoldInvariants, report: DivisorReport | None) -> list[str]:
    violations: list[str] = []
    if inv.n < 5 or inv.n % 8 not in (5, 7):
        violations.append("n must be odd, at least 5, and congruent to 5 or 7 mod 8")
    if inv.b_n < 0:
        violations.append("b_n must be nonnegative")
    if report is not None:
        l = _effective_l(inv)
        if l < 0:
            violations.append("l must be nonnegative")
        else:
            if l % report.kervaire:
                violations.append(f"l not divisible by {report.kervaire}")
            if inv.b_n == 0 and l != 0:
                violations.append("l must be 0 when b_n = 0")
    return violations


def validate(inv: ManifoldInvariants) -> list[str]:
    """Realizability check; returns a list of violations (empty = ok).

    For n = 7 (mod 8) it builds the divisor report, so it raises
    OverflowError (from ``math.factorial``) once (n-1)/2 exceeds the
    platform's C long, as at n = 8*10**20 + 7."""
    return _violations(inv, _divisor_report(inv))


def _witness(b_n: int, l: int) -> Witness:
    if l == 0:
        return Witness(sphere_product_copies=b_n)
    return Witness(sphere_product_copies=b_n - 1, bundle_divisibility=l)


def _orbit_recipe(n: int, b_n: int, d: int | None) -> OrbitRecipe:
    if b_n % 2 == 0:
        return OrbitRecipe(n=n, family=Family.CPN, handles=b_n // 2)
    return OrbitRecipe(
        n=n, family=Family.CPHALF_TIMES_SPHERE, handles=(b_n - 1) // 2, divisibility=d
    )


def classify(inv: ManifoldInvariants) -> ClassificationResult:
    """Decide whether the manifold class admits a free circle action.

    Raises InvalidInvariantsError (carrying the violation list) on inputs
    that fail ``validate``.
    """
    report = _divisor_report(inv)  # once per decision: validation reuses it
    violations = _violations(inv, report)
    if violations:
        raise InvalidInvariantsError(violations)

    notes: list[str] = []
    if inv.b_n == 0:
        notes.append(
            "b_n = 0: the manifold is a homotopy sphere; the standard free "
            f"action on S^{2 * inv.n + 1} applies"
        )

    if inv.n % 8 == 5:
        # the middle Pontrjagin index (n+1)/4 is not an integer there
        if inv.l not in (None, 0):
            notes.append("l ignored for n = 5 (mod 8)")
        return ClassificationResult(
            reason=ReasonCode.N5_ALWAYS,
            divisors=None,
            witness=_witness(inv.b_n, 0),
            orbit=_orbit_recipe(inv.n, inv.b_n, None),
            notes=tuple(notes),
        )

    l = _effective_l(inv)
    if inv.b_n % 2 == 0:
        reason = ReasonCode.EVEN_L_ZERO if l == 0 else ReasonCode.EVEN_L_NONZERO
    else:
        # 0 is divisible by everything, so l = 0 admits here too
        reason = (
            ReasonCode.ODD_DIVISIBLE
            if l % report.required == 0
            else ReasonCode.ODD_NOT_DIVISIBLE
        )
    orbit = _orbit_recipe(inv.n, inv.b_n, l) if reason.admits else None
    return ClassificationResult(
        reason=reason,
        divisors=report,
        witness=_witness(inv.b_n, l),
        orbit=orbit,
        notes=tuple(notes),
    )
