"""Independent oracles for every output the benchmark collects.

Nothing here imports circleact: each expected value is recomputed by a
different route from the one the library takes, and every check runs in
``run.py`` after the timed run has ended.

* Bernoulli numbers come from the integer tangent-number recurrence
  (Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
  numbers", 2011), not from the binomial recurrence the library uses.
* den(B_k/4k) comes from the von Staudt-Clausen theorem plus Adams' closed
  form 2^{3+v_2(k)} * prod_{odd p, (p-1) | 2k} p^{1+v_p(k)}.
* Smith normal forms are checked against the divisibility chain, the rank
  over Q and |det| (both by fraction-free Bareiss elimination), and the
  gcd of the entries.

Each ``check_*`` function returns None when the output is right and a short
description of the first mismatch otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

# ---------------------------------------------------------------------------
# Number theory


@lru_cache(maxsize=None)
def _primes_upto(m: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = b"\x00\x00"[: min(2, m + 1)]
    for p in range(2, int(m**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(p for p in range(m + 1) if sieve[p])


def _valuation(p: int, k: int) -> int:
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def _vsc_primes(k: int) -> list[int]:
    """Primes p with (p - 1) | 2k."""
    return [p for p in _primes_upto(2 * k + 1) if (2 * k) % (p - 1) == 0]


def bernoulli_den(k: int) -> int:
    """den(B_k) by von Staudt-Clausen."""
    return prod(_vsc_primes(k))


@lru_cache(maxsize=None)
def im_j_order(k: int) -> int:
    """den(B_k / 4k) by the von Staudt-Clausen + Adams closed form."""
    out = 2 ** (3 + _valuation(2, k))
    for p in _vsc_primes(k):
        if p > 2:
            out *= p ** (1 + _valuation(p, k))
    return out


_TANGENT: list[int] = [0]  # _TANGENT[j] = T_j, the j-th tangent number


def _tangent_numbers(upto: int) -> list[int]:
    """T_1..T_upto by the Brent-Harvey in-place integer recurrence."""
    if len(_TANGENT) <= upto:
        t = [0] * (upto + 1)
        t[1] = 1
        for j in range(2, upto + 1):
            t[j] = (j - 1) * t[j - 1]
        for j in range(2, upto + 1):
            for i in range(j, upto + 1):
                t[i] = (i - j) * t[i - 1] + (i - j + 2) * t[i]
        _TANGENT[:] = t
    return _TANGENT


def bernoulli(k: int) -> Fraction:
    """B_k in the positive convention: |b_2k| = 2k T_k / (4^k (4^k - 1))."""
    t = _tangent_numbers(k)[k]
    return Fraction(2 * k * t, 4**k * (4**k - 1))


def alpha(k: int) -> Fraction:
    """Coefficient of p_k in the degree-k A-hat polynomial: -B_k / (2 (2k)!)."""
    return -bernoulli(k) / (2 * factorial(2 * k))


def ahat_series_coeff(k: int) -> Fraction:
    """Coefficient of t^k in Q(t), which is also the p_1^k coefficient."""
    sign = -1 if k % 2 else 1
    return Fraction(sign * (4**k - 2), 4**k * factorial(2 * k)) * bernoulli(k)


# ---------------------------------------------------------------------------
# The decision rule


def kervaire_divisor(n: int) -> int:
    """Divisor every realizable l satisfies for n = 7 mod 8: ((n-1)/2)!,
    doubled to 12 in the Hopf-invariant-one dimension n = 7."""
    base = factorial((n - 1) // 2)
    return 2 * base if n == 7 else base


@lru_cache(maxsize=None)
def required_divisor(n: int) -> int:
    """((n-1)/2)! * den(B_k / 4k) with k = (n+1)/4."""
    return factorial((n - 1) // 2) * im_j_order((n + 1) // 4)


def classify(n: int, b_n: int, l: int | None) -> str:
    """Reason code the decision rule gives for (n, b_n, l)."""
    l = 0 if l is None else l
    if n < 5 or n % 8 not in (5, 7) or b_n < 0:
        return "UNREALIZABLE"
    if n % 8 == 5:
        return "N5_ALWAYS"
    if l < 0 or l % kervaire_divisor(n) or (b_n == 0 and l != 0):
        return "UNREALIZABLE"
    if b_n % 2 == 0:
        return "EVEN_L_ZERO" if l == 0 else "EVEN_L_NONZERO"
    return "ODD_DIVISIBLE" if l % required_divisor(n) == 0 else "ODD_NOT_DIVISIBLE"


ADMITTING = {"N5_ALWAYS", "EVEN_L_ZERO", "ODD_DIVISIBLE"}

# ---------------------------------------------------------------------------
# Integer linear algebra


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank over Q, |det|) by fraction-free elimination; |det| is 0 unless
    the matrix is square and nonsingular."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    rank, prev = 0, 1
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                a[i][j] = (a[i][j] * a[rank][col] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = a[rank][col]
        rank += 1
    det = abs(prev) if nr == nc == rank else 0
    return rank, det


def check_snf(rows: list[list[int]], out: dict) -> str | None:
    factors = out["factors"]
    if out["rank"] != len(factors):
        return "rank differs from the number of invariant factors"
    if any(d < 1 for d in factors):
        return "invariant factor below 1"
    if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
        return "invariant factors do not form a divisibility chain"
    rank, det = bareiss(rows)
    if rank != len(factors):
        return f"rank {len(factors)} but rank over Q is {rank}"
    if factors and factors[0] != gcd(*(x for r in rows for x in r)):
        return "first invariant factor is not the gcd of the entries"
    if det and prod(factors) != det:
        return "product of invariant factors differs from |det|"
    return None


# ---------------------------------------------------------------------------
# Per-request checks


def _check_classify(args: dict, out: dict) -> str | None:
    n, b_n, l = args["n"], args["b_n"], args["l"]
    want = classify(n, b_n, l)
    if out["reason"] != want:
        return f"reason {out['reason']}, expected {want}"
    if want == "UNREALIZABLE":
        return None if out.get("violations") else "no violations reported"
    if out["admits"] != (want in ADMITTING):
        return "admits flag contradicts the reason"
    if n % 8 == 7:
        if out["required"] != required_divisor(n):
            return "required divisor wrong"
        if out["kervaire"] != kervaire_divisor(n):
            return "kervaire divisor wrong"
        if out["j_index"] != im_j_order((n + 1) // 4):
            return "image-of-J order wrong"
    return None


def _partition_weight(key: str) -> int:
    return sum(int(p) for p in key.split(","))


def _check_ms(args: dict, out: dict) -> str | None:
    k = args["k"]
    terms = out["terms"]
    if any(_partition_weight(key) != k for key in terms):
        return "term of the wrong weight"
    if Fraction(terms.get(str(k), "0")) != alpha(k):
        return "p_k coefficient differs from alpha(k)"
    if Fraction(terms.get(",".join(["1"] * k), "0")) != ahat_series_coeff(k):
        return "p_1^k coefficient differs from the series coefficient"
    return None


def _check_alpha(args: dict, out: dict) -> str | None:
    return None if Fraction(out["alpha"]) == alpha(args["k"]) else "alpha wrong"


def _check_table_rows(args: dict, out: dict) -> str | None:
    rows = out["rows"]
    if len(rows) != args["max_index"]:
        return "wrong number of rows"
    for i, (k, b, d, j) in enumerate(rows, start=1):
        if k != i or Fraction(b) != bernoulli(k):
            return f"B_{i} wrong"
        if d != bernoulli_den(k) or j != im_j_order(k):
            return f"denominators of B_{i} wrong"
    return None


def gysin_ranks(n: int, family: str, r: int) -> list[int]:
    """Betti numbers of the circle-bundle total space over the standard
    model: Z in degrees 0 and 2n+1, and b_n = 2r (CPN) or 2r + 1
    (CPHALF_TIMES_SPHERE) in degrees n and n+1."""
    b = 2 * r + (0 if family == "CPN" else 1)
    ranks = [0] * (2 * n + 2)
    ranks[0] = ranks[2 * n + 1] = 1
    ranks[n] += b
    ranks[n + 1] += b
    return ranks


def _check_gysin(args: dict, out: dict) -> str | None:
    if any(out["torsion"]):
        return "torsion in the total space"
    want = gysin_ranks(args["n"], args["family"], args["r"])
    return None if out["ranks"] == want else "total-space ranks wrong"


def _check_transfer(args: dict, out: dict) -> str | None:
    want = 0 if args["family"] == "CPN" else args["d"]
    return None if out["value"] == want else f"transfer {out['value']}, expected {want}"


def _check_cli_json(argv: list[str], payload) -> str | None:
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "classify":
        if set(payload) != {"admits", "reason", "divisors", "witness", "orbit", "notes"}:
            return "classify JSON keys wrong"
        l = int(opts["--l"]) if "--l" in opts else None
        want = classify(int(opts["--n"]), int(opts["--bn"]), l)
        return None if payload["reason"] == want else f"reason {payload['reason']}, expected {want}"
    if cmd == "recipe":
        keys = {"n", "family", "handles", "divisibility", "euler_class", "description"}
        return None if set(payload) == keys else "recipe JSON keys wrong"
    if cmd == "divisor":
        n = int(opts["--n"])
        ok = payload.get("required") == required_divisor(n) and payload.get("j_index") == im_j_order((n + 1) // 4)
        return None if ok else "divisor report wrong"
    if cmd == "imj":
        return None if payload == {"k": int(opts["--k"]), "j_index": im_j_order(int(opts["--k"]))} else "imj wrong"
    if cmd == "ahat":
        if set(payload) != {"k", "terms"}:
            return "ahat JSON keys wrong"
        return _check_ms({"k": int(opts["--k"])}, payload)
    if cmd == "gysin":
        ranks = [payload["groups"][str(j)]["rank"] for j in range(payload["top_degree"] + 1)]
        family = "CPN" if opts["--family"].upper() == "CPN" else "CPHALF"
        return None if ranks == gysin_ranks(int(opts["--n"]), family, int(opts["--r"])) else "gysin ranks wrong"
    if cmd == "bernoulli":
        rows = [[e["k"], e["bernoulli"], e["den"], e["j_index"]] for e in payload]
        return _check_table_rows({"max_index": int(opts["--max"])}, {"rows": rows})
    return f"unknown subcommand {cmd}"


def _check_cli(args: dict, out: dict) -> str | None:
    """Exit code first; then the JSON payload (stdout on success, stderr on
    a domain error) or the usage message."""
    if out["code"] != args["expect_code"]:
        return f"exit code {out['code']}, expected {args['expect_code']}"
    argv = args["argv"]
    if out["code"] == 2:
        return None if "usage:" in out["stderr"] else "usage error without usage text"
    if out["code"] == 1:
        try:
            err = json.loads(out["stderr"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "domain error without a JSON object on stderr"
        return None if "error" in err else "domain error object has no 'error' key"
    if "json" in argv:
        try:
            payload = json.loads(out["stdout"])
        except ValueError:
            return "stdout is not JSON"
        return _check_cli_json(argv, payload)
    return None if out["stdout"].strip() else "empty text output"


_CHECKS = {
    "cli": _check_cli,
    "classify": _check_classify,
    "ms": _check_ms,
    "alpha": _check_alpha,
    "table_rows": _check_table_rows,
    "gysin": _check_gysin,
    "transfer": _check_transfer,
    "snf": lambda args, out: check_snf(args["rows"], out),
}


def check(op: str, args: dict, out: dict) -> str | None:
    """None if ``out`` is the right answer to request (op, args)."""
    if "exc" in out:
        return f"raised {out['exc']}"
    try:
        return _CHECKS[op](args, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
