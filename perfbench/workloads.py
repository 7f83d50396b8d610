"""Seeded request pools for the three workloads.

A pool is a list of batches and a batch is a list of requests
``{"op": ..., "args": {...}}``.  In-process workloads serve each batch from
one fresh worker; in ``cli_oneshot`` every batch is a single request and
every request is its own process.  The same (workload, seed) always gives
the same sequence of units.

Pools are built from *units* of fixed composition.  Within a unit the
parameters are stratified (each k, size or n band appears a fixed number of
times) and only their order and fine values come from the seed, so two
seeds load the layers with the same amount of work.  A timed run serves
whole units until its time is up; a traced run sizes its pool from the run
length.
"""

from __future__ import annotations

import random

import oracles

# Per-request budget in seconds, by operation.  A request over budget kills
# its worker and counts as failed.  Every budget is a wide multiple of the
# slowest request of that kind at commit d453d48 (CLI 0.2 s, cold
# classify 1 s, multiplicative_sequence(7) 0.6 s, table_rows(150) 0.4 s),
# except SNF: a 20 x 20 matrix with entries in {0, +-1, 2} needs milliseconds
# with bounded coefficient growth, so 0.1 s already means the elimination is
# blowing up.
BUDGET_S = {
    "cli": 10.0,
    "classify": 5.0,
    "ms": 5.0,
    "alpha": 5.0,
    "table_rows": 5.0,
    "gysin": 5.0,
    "transfer": 5.0,
    "snf": 0.1,
}

# Wall time of one unit at commit d453d48 on a 2-core x86-64 machine,
# used only to size the pool of a traced run.
UNIT_SECONDS = {"cli_oneshot": 1.9, "classify_sweep": 1.4, "ingredients": 8.4}

VALID_N = [n for n in range(5, 1024, 2) if n % 8 in (5, 7)]  # 256 values
SMALL_N = [n for n in VALID_N if n <= 63]
SNF_SIZES = range(6, 21)
SNF_DENSITY = 0.5
SCREENED_SIZES = range(14, 21)  # see SNF_LIBRARY
HARD_SIZES = range(16, 21)
HARD_PER_UNIT = 2
LONG_L_DIGITS = 4400  # over the interpreter's 4300-digit int/str limit


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over [lo, hi], one per stratum."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _l_value(rng: random.Random, n: int, kind: str) -> int | None:
    """An l of the given kind for n = 7 mod 8 (any value is ignored at 5)."""
    if n % 8 == 5:
        return None if kind == "zero" else rng.randint(1, 10**6)
    kerv = oracles.kervaire_divisor(n)
    if kind == "zero":
        return 0
    if kind == "kervaire":
        return kerv * rng.randint(1, 10**6)
    if kind == "required":
        return oracles.required_divisor(n) * rng.randint(1, 50)
    # invalid: negative, or off the Kervaire lattice
    if rng.random() < 0.5:
        return -kerv * rng.randint(1, 1000)
    return kerv * rng.randint(0, 1000) + rng.randint(1, kerv - 1)


L_KINDS = ("zero", "kervaire", "required", "invalid")

# ---------------------------------------------------------------------------
# cli_oneshot: units of 20 requests, 17 valid, 2 invalid, 1 long --l


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("text", "json"))]


def _valid_cli(rng: random.Random, cmd: str) -> list[str]:
    if cmd == "classify":
        n = rng.choice(SMALL_N)
        b = rng.randint(0, 40)
        kind = rng.choice(("zero", "kervaire", "required")) if b else "zero"
        l = _l_value(rng, n, kind)
        return ["classify", "--n", str(n), "--bn", str(b)] + ([] if l is None else ["--l", str(l)])
    if cmd == "recipe":
        n = rng.choice(SMALL_N)
        b = rng.randint(0, 40)
        l = None if n % 8 == 5 else (oracles.required_divisor(n) * rng.randint(1, 50) if b % 2 else 0)
        return ["recipe", "--n", str(n), "--bn", str(b)] + ([] if l is None else ["--l", str(l)])
    if cmd == "divisor":
        return ["divisor", "--n", str(rng.choice([n for n in SMALL_N if n % 8 == 7]))]
    if cmd in ("imj", "ahat"):
        return [cmd, "--k", str(rng.randint(1, 5))]
    if cmd == "gysin":
        return ["gysin", "--n", str(rng.randrange(5, 64, 2)), "--family",
                rng.choice(("CPN", "CPHALF")), "--r", str(rng.randint(0, 4))]
    return ["bernoulli", "--max", str(rng.randint(1, 30))]


def _domain_error_cli(rng: random.Random) -> list[str]:
    """Well-formed arguments the library must reject with exit 1."""
    n = rng.choice([n for n in SMALL_N if n % 8 == 7])
    choice = rng.randrange(3)
    if choice == 0:
        return ["divisor", "--n", str(rng.choice([m for m in SMALL_N if m % 8 == 5]))]
    if choice == 1:
        return ["classify", "--n", str(n), "--bn", str(rng.randint(1, 40)),
                "--l", str(_l_value(rng, n, "invalid"))]
    # odd b_n with l on the Kervaire lattice but not divisible: no action
    l = oracles.kervaire_divisor(n) * (oracles.im_j_order((n + 1) // 4) * rng.randint(0, 9) + 1)
    return ["recipe", "--n", str(n), "--bn", str(2 * rng.randint(0, 19) + 1), "--l", str(l)]


def _usage_error_cli(rng: random.Random) -> list[str]:
    choice = rng.randrange(3)
    if choice == 0:
        return ["gysin", "--n", "7", "--family", "RP", "--r", "1"]
    if choice == 1:
        return ["imj", "--k", rng.choice(("two", "1.5", "0x10"))]
    return ["classify", "--bn", str(rng.randint(0, 40))]


def _long_l_cli(rng: random.Random) -> list[str]:
    """A valid ODD_DIVISIBLE class whose --l has more than 4300 digits; the
    README promises that numeric flags take arbitrarily large integers."""
    n = rng.choice([m for m in SMALL_N if m % 8 == 7])
    m = 10 ** LONG_L_DIGITS + rng.randint(0, 10**6)
    l = oracles.required_divisor(n) * m
    return ["classify", "--n", str(n), "--bn", str(2 * rng.randint(0, 19) + 1), "--l", str(l)]


CLI_MIX = ["classify"] * 4 + ["ahat"] * 3 + ["recipe", "divisor", "imj", "gysin", "bernoulli"] * 2


def cli_unit(rng: random.Random) -> list[list[dict]]:
    reqs = [(_valid_cli(rng, cmd) + _fmt(rng), 0, "valid") for cmd in CLI_MIX]
    reqs.append((_domain_error_cli(rng) + _fmt(rng), 1, "invalid"))
    reqs.append((_usage_error_cli(rng), 2, "invalid"))
    reqs.append((_long_l_cli(rng) + _fmt(rng), 0, "long_l"))
    rng.shuffle(reqs)
    return [[{"op": "cli", "args": {"argv": argv, "expect_code": code}, "kind": kind}]
            for argv, code, kind in reqs]


# ---------------------------------------------------------------------------
# classify_sweep: one batch per unit holding every n = 7 mod 8 up to 1023
# once and half of the n = 5 mod 8, in random order, each kind of l given to
# a quarter of either class.  The valid n = 7 mod 8 decisions reach the
# Bernoulli layer and the others mostly return early; the two groups overlap
# in time, so the median latency falls in a dense stretch of the
# distribution rather than on a gap.


def classify_unit(rng: random.Random) -> list[list[dict]]:
    pairs = []
    for ns in ([n for n in VALID_N if n % 8 == 7], rng.sample([n for n in VALID_N if n % 8 == 5], 64)):
        kinds = list(L_KINDS) * (len(ns) // len(L_KINDS))
        rng.shuffle(kinds)
        pairs += zip(ns, kinds)
    rng.shuffle(pairs)
    batch = []
    for n, kind in pairs:
        req = {"n": n, "b_n": rng.randint(0, 40), "l": _l_value(rng, n, kind)}
        batch.append({"op": "classify", "args": req,
                      "kind": "invalid" if oracles.classify(**req) == "UNREALIZABLE" else "valid"})
    return [batch]


# ---------------------------------------------------------------------------
# ingredients: units of 7 batches
#
# Each batch asks for six distinct genus degrees k (the one left out runs
# through 1..7 across the unit, so every unit holds the same number of cold
# k = 7 expansions) plus two repeats of degrees it already asked, three
# Bernoulli tables, two Gysin computations and one divisibility transfer, in
# random order.  Of the unit's 21 tables 11 have K = 150 and 5 each K = 50
# and 100.  The slowest sixth of the requests is then the six cold k = 7
# expansions and the eleven K = 150 tables, and the 90th percentile falls
# in the middle of that cluster rather than on its lower edge, where a few
# fast draws of the shared machine move it far.  The unit's fifteen SNF
# requests, one per size 6..20, go last
# in their batches: a worker killed for budget then takes no warm cache with
# it, so the cost of a kill does not depend on where it falls.
#
# The run time of smallest-pivot elimination on these matrices spreads
# continuously from microseconds to minutes, so a freshly drawn matrix of
# size 14 or more could land on either side of the budget from run to run.
# Those sizes are therefore drawn from SNF_LIBRARY, whose sub-seeds were
# screened with the library of commit d453d48 (screen_snf.py): "fast"
# ones finish in under 10 ms, "hard" ones do not finish within 2 s.  Each
# unit holds exactly HARD_PER_UNIT hard matrices, at two of the sizes 16..20,
# the sizes at which random matrices start to blow up.

SNF_LIBRARY = {
    14: {"fast": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "hard": []},
    15: {"fast": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9], "hard": []},
    16: {"fast": [0, 1, 2, 3, 5, 6, 7, 8, 9, 10], "hard": [218, 1396, 1519, 1609]},
    17: {"fast": [0, 1, 2, 5, 6, 9, 10, 12, 13, 14], "hard": [11, 51, 68, 73]},
    18: {"fast": [1, 3, 4, 5, 6, 14, 15, 17, 20, 21], "hard": [0, 2, 8, 10]},
    19: {"fast": [0, 2, 17, 49, 62, 63, 82, 97, 109, 112], "hard": [5, 6, 9, 10]},
    20: {"fast": [101, 109, 123, 138, 201, 253, 261, 366, 406, 408], "hard": [0, 1, 2, 3]},
}


def snf_matrix(m: int, sub_seed: int) -> list[list[int]]:
    """The m x m matrix of a sub-seed: entries in {-1, 1, 2} at density 1/2."""
    rng = random.Random(f"snf:{m}:{sub_seed}")
    return [[rng.choice((-1, 1, 2)) if rng.random() < SNF_DENSITY else 0 for _ in range(m)]
            for _ in range(m)]


def _snf_sub_seed(rng: random.Random, m: int, hard: bool) -> int:
    if m not in SCREENED_SIZES:
        return rng.randrange(10**9)
    return rng.choice(SNF_LIBRARY[m]["hard" if hard else "fast"])


def ingredients_unit(rng: random.Random) -> list[list[dict]]:
    nb = 7
    left_out = list(range(1, 8))
    rng.shuffle(left_out)
    table_k = [50] * 5 + [100] * 5 + [150] * 11
    odd_n = list(range(5, 256, 2))
    gysin_n = [odd_n[i] for i in _stratified(rng, 0, len(odd_n) - 1, 2 * nb)]
    seven_n = list(range(7, 256, 8))
    transfer_n = [seven_n[i] for i in _stratified(rng, 0, len(seven_n) - 1, nb)]
    for xs in (table_k, gysin_n, transfer_n):
        rng.shuffle(xs)
    sizes = list(SNF_SIZES)
    rng.shuffle(sizes)
    hard = set(rng.sample(HARD_SIZES, HARD_PER_UNIT))
    batches = []
    for b in range(nb):
        ks = [k for k in range(1, 8) if k != left_out[b]]
        ks += rng.sample(ks, 2)
        reqs = [{"op": rng.choice(("ms", "alpha")), "args": {"k": k}} for k in ks]
        reqs += [{"op": "table_rows", "args": {"max_index": k}} for k in table_k[3 * b: 3 * b + 3]]
        reqs += [{"op": "gysin", "args": {"n": n, "family": rng.choice(("CPN", "CPHALF")),
                                          "r": rng.randint(0, 4)}}
                 for n in gysin_n[2 * b: 2 * b + 2]]
        reqs.append({"op": "transfer", "args": {"n": transfer_n[b], "family": rng.choice(("CPN", "CPHALF")),
                                                "r": rng.randint(0, 4), "d": rng.randint(1, 10**9)}})
        rng.shuffle(reqs)
        reqs += [{"op": "snf", "args": {"rows": snf_matrix(m, _snf_sub_seed(rng, m, m in hard))}}
                 for m in sizes[b::nb]]
        for r in reqs:
            r["kind"] = "valid"
        batches.append(reqs)
    return batches


def layer_probe() -> list[dict]:
    """One small request per layer, served as one extra batch at the end of
    a traced run, so that every layer's time is measured in every workload,
    including layers the workload itself does not reach."""
    reqs = [
        {"op": "cli", "args": {"argv": ["divisor", "--n", "15", "--format", "json"], "expect_code": 0}},
        {"op": "classify", "args": {"n": 15, "b_n": 3, "l": 2419200}},
        {"op": "ms", "args": {"k": 3}},
        {"op": "alpha", "args": {"k": 4}},
        {"op": "table_rows", "args": {"max_index": 10}},
        {"op": "gysin", "args": {"n": 7, "family": "CPHALF", "r": 1}},
        {"op": "snf", "args": {"rows": snf_matrix(6, 0)}},
    ]
    for r in reqs:
        r["kind"] = "probe"
    return reqs


_UNITS = {"cli_oneshot": cli_unit, "classify_sweep": classify_unit, "ingredients": ingredients_unit}
WORKLOADS = tuple(_UNITS)


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


def unit_stream(workload: str, seed: int):
    """The seed's units, one list of batches each, without end."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _UNITS[workload](rng)


def build_pool(workload: str, seed: int, units: int) -> list[list[dict]]:
    """The first ``units`` units of the seed, as one list of batches."""
    stream = unit_stream(workload, seed)
    return [batch for _ in range(units) for batch in next(stream)]


# ---------------------------------------------------------------------------
# Workload properties, recorded next to the numbers


def bernoulli_memo_served(batch: list[dict]) -> int:
    """classify requests with n = 7 mod 8 whose B_k, k = (n+1)/4, an
    earlier request of the same worker already put in the Bernoulli memo."""
    served = max_k = 0
    for req in batch:
        if req["op"] == "classify" and req["args"]["n"] % 8 == 7:
            k = (req["args"]["n"] + 1) // 4
            served += k <= max_k
            max_k = max(max_k, k)
    return served


def genus_repeats(batch: list[dict]) -> int:
    """multiplicative_sequence and alpha requests whose degree k the same
    worker was already asked, so that the genus cache serves them."""
    served, seen = 0, set()
    for req in batch:
        if req["op"] in ("ms", "alpha"):
            served += req["args"]["k"] in seen
            seen.add(req["args"]["k"])
    return served


def properties(workload: str, seed: int, pool: list[list[dict]]) -> dict:
    reqs = [r for batch in pool for r in batch]
    ops: dict[str, int] = {}
    for r in reqs:
        key = r["args"]["argv"][0] if r["op"] == "cli" else r["op"]
        ops[key] = ops.get(key, 0) + 1
    props = {
        "workload": workload,
        "seed": seed,
        "requests": len(reqs),
        "batches": len(pool),
        "op_mix": dict(sorted(ops.items())),
        "invalid_share": sum(r["kind"] == "invalid" for r in reqs) / len(reqs),
        "memo_served_share": sum(bernoulli_memo_served(b) + genus_repeats(b) for b in pool) / len(reqs),
    }
    if workload == "cli_oneshot":
        props["long_l_share"] = sum(r["kind"] == "long_l" for r in reqs) / len(reqs)
        props["size_mix"] = f"n <= 63, k <= 5, --max <= 30, r <= 4, --l up to {LONG_L_DIGITS + 70} digits"
    elif workload == "classify_sweep":
        reasons: dict[str, int] = {}
        for r in reqs:
            code = oracles.classify(**r["args"])
            reasons[code] = reasons.get(code, 0) + 1
        props["reason_mix"] = dict(sorted(reasons.items()))
        props["size_mix"] = "per batch every n = 7 mod 8 up to 1023 and 64 of the n = 5 mod 8, b_n 0..40"
    else:
        sizes: dict[int, int] = {}
        for r in reqs:
            if r["op"] == "snf":
                sizes[len(r["args"]["rows"])] = sizes.get(len(r["args"]["rows"]), 0) + 1
        props["snf_sizes"] = {str(m): c for m, c in sorted(sizes.items())}
        props["size_mix"] = ("genus k 1..7, table_rows K 50/100/150, gysin n odd 5..255 r 0..4, "
                             f"transfer n = 7 mod 8 up to 255, SNF 6x6..20x20 density {SNF_DENSITY}")
    return props
