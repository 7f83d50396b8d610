"""Benchmark worker: serves circleact requests read as JSON lines on stdin.

Run as ``python perfbench/worker.py [--trace]`` with ``src/`` on
PYTHONPATH.  The first line written to stdout reports the monotonic time at
which ``import circleact.cli`` returned; after that each request line gets
one reply line ``{"ms": <call time>, "out": {...}}``.  A ``{"op": "bye"}``
request is answered with the worker's peak resident set size and ends it.

Only the library call itself is timed.  Every call looks its function up
through the module at call time, so that with ``--trace`` the wrappers
installed by ``tracer.py`` see it; the spans recorded during a request are
sent back with its reply.
"""

import sys
import time

_t0 = time.monotonic()
import circleact.cli  # noqa: E402

_t1 = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

from circleact import bernoulli, classifier, genus, gradedtop  # noqa: E402

_FAMILY = {"CPN": gradedtop.Family.CPN, "CPHALF": gradedtop.Family.CPHALF_TIMES_SPHERE}


def peak_rss_kb() -> int:
    """VmHWM of this process.  Unlike ru_maxrss it is not inherited from
    the parent across fork and exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def op_cli(a):
    out, err = io.StringIO(), io.StringIO()
    t = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = circleact.cli.main(a["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    dt = perf_counter() - t
    return dt, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def op_classify(a):
    inv = classifier.ManifoldInvariants(n=a["n"], b_n=a["b_n"], l=a["l"])
    t = perf_counter()
    try:
        r = classifier.classify(inv)
    except classifier.InvalidInvariantsError as exc:
        return perf_counter() - t, {"reason": "UNREALIZABLE", "violations": exc.violations}
    dt = perf_counter() - t
    d = r.divisors
    return dt, {"reason": r.reason.value, "admits": r.admits,
                "required": d and d.required, "kervaire": d and d.kervaire, "j_index": d and d.j_index}


def op_ms(a):
    t = perf_counter()
    poly = genus.multiplicative_sequence(a["k"])
    dt = perf_counter() - t
    return dt, poly.to_json_dict()


def op_alpha(a):
    t = perf_counter()
    value = genus.alpha(a["k"])
    dt = perf_counter() - t
    return dt, {"alpha": str(value)}


def op_table_rows(a):
    t = perf_counter()
    rows = bernoulli.table_rows(a["max_index"])
    dt = perf_counter() - t
    return dt, {"rows": [[k, str(b), d, j] for k, b, d, j in rows]}


def op_gysin(a):
    t = perf_counter()
    h = gradedtop.gysin_total_space(gradedtop.standard_orbit_model(a["n"], _FAMILY[a["family"]], a["r"]))
    dt = perf_counter() - t
    return dt, {"ranks": list(h.ranks), "torsion": [list(x) for x in h.torsion]}


def op_transfer(a):
    t = perf_counter()
    model = gradedtop.standard_orbit_model(a["n"], _FAMILY[a["family"]], a["r"])
    value = gradedtop.divisibility_transfer(model, a["d"])
    dt = perf_counter() - t
    return dt, {"value": value}


def op_snf(a):
    mat = gradedtop.IntMatrix.from_rows(a["rows"])
    t = perf_counter()
    r = gradedtop.smith_normal_form(mat)
    dt = perf_counter() - t
    return dt, {"factors": list(r.invariant_factors), "rank": r.rank}


OPS = {
    "cli": op_cli,
    "classify": op_classify,
    "ms": op_ms,
    "alpha": op_alpha,
    "table_rows": op_table_rows,
    "gysin": op_gysin,
    "transfer": op_transfer,
    "snf": op_snf,
}


def main() -> None:
    recorder = None
    if "--trace" in sys.argv[1:]:
        import tracer

        recorder = tracer.install()
    warnings.simplefilter("ignore")  # classify warns when l is given for n = 5 mod 8
    proto_in, proto_out = sys.stdin.buffer, sys.stdout.buffer

    def send(obj) -> None:
        proto_out.write(json.dumps(obj).encode() + b"\n")
        proto_out.flush()

    send({"ready": _t1, "import_ms": (_t1 - _t0) * 1e3, "module": circleact.__file__})
    for line in proto_in:
        req = json.loads(line)
        if req["op"] == "bye":
            send({"peak_rss_kb": peak_rss_kb()})
            return
        t = perf_counter()
        try:
            dt, out = OPS[req["op"]](req["args"])
        except Exception as exc:  # any library error is an answer the oracle judges
            dt, out = perf_counter() - t, {"exc": f"{type(exc).__name__}: {exc}"}
        reply = {"ms": dt * 1e3, "out": out}
        if recorder is not None:
            reply["spans"] = recorder.take()
        send(reply)


if __name__ == "__main__":
    main()
