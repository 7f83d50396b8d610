"""circleact benchmark runner.

    python3 perfbench/run.py --workload {cli_oneshot,classify_sweep,ingredients,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is ``src/circleact``
of that checkout.  One closed-loop client (this process) sends one request
at a time, and at most one worker process is alive at any moment; both run
on the same single CPU.

The seed gives a sequence of units of requests (``workloads.py``), each of
fixed composition; the run serves whole units, as many as bring it closest
to ``--seconds``, and makes up the next unit before the clock restarts.
Every output is checked by ``oracles.py`` after the timed run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each batch
of a half-size pool once untraced and once with the span recorder of
``tracer.py`` installed in its worker, and reports the per-layer metrics
from the traced batches.  The last line of stdout is one JSON object; the
lines before it repeat every metric with its unit, plus the workload's
properties, and the same record is written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
READY_BUDGET_S = 30.0  # a worker must have imported circleact.cli by then
HARD_STOP_S = 120.0  # no new unit starts after this, whatever --seconds says
MAX_UNITS = 400  # nor after this many, so that checking them stays short

# A CLI request runs ``python -m circleact ARGS`` through runpy, as -m does,
# after reporting on an extra pipe when ``import circleact.cli`` returned and,
# at exit, the process's own peak RSS (VmHWM; ru_maxrss would include this
# process's memory, which the child inherits until exec).
CLI_PRELUDE = """\
import atexit, os, runpy, time
_fd = int(os.environ["PERFBENCH_FD"])
import circleact.cli
os.write(_fd, b"%r " % time.monotonic())
def _report():
    with open("/proc/self/status") as f:
        hwm = next((l.split()[1] for l in f if l.startswith("VmHWM:")), "0")
    os.write(_fd, hwm.encode())
atexit.register(_report)
runpy.run_module("circleact", run_name="__main__", alter_sys=True)
"""


class OverBudget(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Worker:
    """One worker process (``worker.py``) speaking JSON lines."""

    def __init__(self, env: dict, trace: bool, log) -> None:
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, env=env, cwd=ROOT)
        self.buf = b""
        self.peak_kb = 0
        try:
            ready = self.read(READY_BUDGET_S)
            if not Path(ready["module"]).resolve().is_relative_to(ROOT / "src"):
                raise RuntimeError(f"worker imported circleact from {ready['module']}, not {ROOT / 'src'}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = ready["ready"] - self.spawned
        self.import_ms = ready["import_ms"]

    def read(self, budget: float) -> dict:
        deadline = time.monotonic() + budget
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise OverBudget
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RuntimeError(f"worker exited with code {self.proc.wait()}")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, req: dict, budget: float) -> dict:
        self.proc.stdin.write(json.dumps({"op": req["op"], "args": req["args"]}).encode() + b"\n")
        self.proc.stdin.flush()
        return self.read(budget)

    def close(self) -> None:
        try:
            self.proc.stdin.write(b'{"op": "bye"}\n')
            self.proc.stdin.flush()
            self.peak_kb = self.read(READY_BUDGET_S)["peak_rss_kb"]
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.peak_kb = max(self.peak_kb, peak_rss_kb(self.proc.pid))
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Pass:
    """Results of a timed run, or of one side of a traced run."""

    def __init__(self) -> None:
        self.records: list[tuple[int, float, str, dict | None]] = []  # (index, latency_s, status, output)
        self.setup_s: list[float] = []
        self.import_ms: list[float] = []
        self.main_ms: list[float] = []
        self.peak_kb = 0
        self.spans: list[tuple[int, list]] = []  # (request index, spans)
        self.wall_s = 0.0


def run_cli_request(req: dict, env: dict, res: Pass, index: int) -> None:
    """One ``python -m circleact`` process, timed from spawn to exit."""
    rfd, wfd = os.pipe()
    env = dict(env, PERFBENCH_FD=str(wfd))
    t = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CLI_PRELUDE] + req["args"]["argv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, pass_fds=(wfd,))
    os.close(wfd)
    try:
        stdout, stderr = proc.communicate(timeout=workloads.BUDGET_S["cli"])
        latency = time.monotonic() - t
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        res.records.append((index, time.monotonic() - t, "over_budget", None))
        return
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        with os.fdopen(rfd, "rb") as f:
            report = f.read().split()
    if len(report) == 2:
        res.setup_s.append(float(report[0]) - t)
        res.peak_kb = max(res.peak_kb, int(report[1]))
    out = {"code": proc.returncode, "stdout": stdout.decode(), "stderr": stderr.decode()}
    res.records.append((index, latency, "done", out))


def run_batch(batch: list[dict], index: int, env: dict, trace: bool, log, res: Pass) -> None:
    """Serve one batch from one fresh worker (a new one after a kill).
    ``index`` is the position of the batch's first request in the pool."""
    worker = None
    try:
        for req in batch:
            if worker is None:
                worker = Worker(env, trace, log)
                res.setup_s.append(worker.setup_s)
                res.import_ms.append(worker.import_ms)
            sent = time.monotonic()
            try:
                reply = worker.call(req, workloads.BUDGET_S[req["op"]])
            except OverBudget:
                res.records.append((index, time.monotonic() - sent, "over_budget", None))
                worker.kill()
                res.peak_kb = max(res.peak_kb, worker.peak_kb)
                worker = None
            else:
                res.records.append((index, reply["ms"] / 1e3, "done", reply["out"]))
                if req["op"] == "cli":
                    res.main_ms.append(reply["ms"])
                if trace:
                    res.spans.append((index, reply["spans"]))
            index += 1
        if worker is not None:
            worker.close()
            res.peak_kb = max(res.peak_kb, worker.peak_kb)
            worker = None
    finally:
        if worker is not None:
            worker.kill()


def run_timed(units, seconds: float, env: dict, cli_subprocess: bool, log,
              hard_stop: float) -> tuple[Pass, list[list[dict]], int]:
    """Untraced whole units until the next one would end further from
    ``seconds`` than stopping now.  Only the time spent serving units counts
    as wall time.  Returns the results, the batches served and the number of
    units."""
    res = Pass()
    pool: list[list[dict]] = []
    count = index = 0
    for unit in units:
        t = time.monotonic()
        for batch in unit:
            if cli_subprocess:
                run_cli_request(batch[0], env, res, index)
            else:
                run_batch(batch, index, env, False, log, res)
            pool.append(batch)
            index += len(batch)
        res.wall_s += time.monotonic() - t
        count += 1
        if (res.wall_s * (1 + 0.5 / count) >= seconds or count >= MAX_UNITS
                or time.monotonic() > hard_stop):
            return res, pool, count
    raise AssertionError("unit streams do not end")


def run_traced(pool: list[list[dict]], env: dict, log, deadline: float) -> tuple[Pass, Pass]:
    """Each batch once through an untraced and once through a traced worker,
    alternating which goes first, so that drift in the machine's speed and
    any advantage of going second cancel out of the ratio of the two wall
    times, which is then the cost of the recorder alone.  CLI requests run
    in-process (``cli.main``) both ways."""
    plain, traced = Pass(), Pass()
    index = 0
    for b, batch in enumerate(pool):
        if time.monotonic() > deadline:
            break
        sides = [(plain, False), (traced, True)]
        for res, trace in sides[::-1] if b % 2 else sides:
            t = time.monotonic()
            run_batch(batch, index, env, trace, log, res)
            res.wall_s += time.monotonic() - t
        index += len(batch)
    return plain, traced


# ---------------------------------------------------------------------------
# Checking and metrics


def judge(requests: list[dict], res: Pass) -> tuple[int, int, int]:
    """(failed, wrong, over_budget).  Failed counts every request that did
    not return the right answer: over budget, an unexpected exit code or
    exception, or a wrong answer.  Wrong counts only answers that
    contradict an oracle."""
    failed = wrong = over = 0
    for index, _, status, out in res.records:
        if status == "over_budget":
            failed += 1
            over += 1
            continue
        req = requests[index]
        problem = oracles.check(req["op"], req["args"], out)
        if problem is None:
            continue
        failed += 1
        refused = "exc" in out or (req["op"] == "cli" and out["code"] != req["args"]["expect_code"])
        if not refused:
            wrong += 1
            print(f"WRONG {req['op']} {json.dumps(req['args'])[:200]}: {problem}", file=sys.stderr)
    return failed, wrong, over


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(res: Pass, failed: int, attempted: int) -> dict:
    latencies = [lat for _, lat, _, _ in res.records]
    answered = sum(status == "done" for _, _, status, _ in res.records)
    return {
        "requests_per_s": (answered / res.wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(res.setup_s), "s"),
        "peak_rss_mib": (res.peak_kb / 1024, "MiB"),
        "error_rate": (failed / attempted, "ratio"),
    }


def layer_metrics(traced: Pass, untraced: Pass, pool: list[list[dict]], over: int,
                  interpreter_ms: list[float]) -> dict:
    requests = [r for batch in pool for r in batch]
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    fill_ms = 0.0
    value_calls = value_hits = max_index = terms = entries = 0
    for _, spans in traced.spans:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, note) in enumerate(spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + (dur - child[i]) * 1e3
            outer = parent
            while outer >= 0 and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer < 0:
                total_ms[name] = total_ms.get(name, 0.0) + dur * 1e3
            if name == "bernoulli.BernoulliTable.value":
                value_calls += 1
                if note[1] > note[0]:
                    fill_ms += dur * 1e3
                else:
                    value_hits += 1
                max_index = max(max_index, note[1])
            elif name == "genus.multiplicative_sequence":
                terms += note
            elif name == "gradedtop.smith_normal_form":
                entries += note
    # SNF requests killed for budget never returned their spans: count the
    # call and the time until the kill
    for index, lat, status, _ in traced.records:
        if status == "over_budget" and requests[index]["op"] == "snf":
            calls["gradedtop.smith_normal_form"] = calls.get("gradedtop.smith_normal_form", 0) + 1
            total_ms["gradedtop.smith_normal_form"] = total_ms.get("gradedtop.smith_normal_form", 0.0) + lat * 1e3
            entries += len(requests[index]["args"]["rows"]) ** 2
    # a property of the workload, so the layer probe stays out of it
    own = [r for r in requests if r["kind"] != "probe"]
    genus_reqs = sum(r["op"] in ("ms", "alpha") for r in own)
    repeats = sum(workloads.genus_repeats(b) for b in pool if b[0]["kind"] != "probe")

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    return {
        "cli.interpreter_ms": (med(interpreter_ms), "ms"),
        "cli.import_ms": (med(traced.import_ms), "ms"),
        "cli.main_ms": (med(traced.main_ms), "ms"),
        "classifier.classify.calls": (calls.get("classifier.classify", 0), "count"),
        "classifier.classify.self_ms": (self_ms.get("classifier.classify", 0.0), "ms"),
        "classifier.required_divisor.calls": (calls.get("classifier.required_divisor", 0), "count"),
        "classifier.required_divisor.self_ms": (self_ms.get("classifier.required_divisor", 0.0), "ms"),
        "bernoulli.im_j_order.calls": (calls.get("bernoulli.im_j_order", 0), "count"),
        "bernoulli.im_j_order.total_ms": (total_ms.get("bernoulli.im_j_order", 0.0), "ms"),
        "bernoulli.fill_ms": (fill_ms, "ms"),
        "bernoulli.max_index": (max_index, "count"),
        "bernoulli.memo_hit_ratio": (value_hits / value_calls if value_calls else 0.0, "ratio"),
        "bernoulli.table_rows.total_ms": (total_ms.get("bernoulli.table_rows", 0.0), "ms"),
        "genus.multiplicative_sequence.calls": (calls.get("genus.multiplicative_sequence", 0), "count"),
        "genus.multiplicative_sequence.self_ms": (self_ms.get("genus.multiplicative_sequence", 0.0), "ms"),
        "genus.alpha.self_ms": (self_ms.get("genus.alpha", 0.0), "ms"),
        "genus.terms": (terms, "count"),
        "genus.repeat_ratio": (repeats / genus_reqs if genus_reqs else 0.0, "ratio"),
        "gradedtop.smith_normal_form.calls": (calls.get("gradedtop.smith_normal_form", 0), "count"),
        "gradedtop.smith_normal_form.total_ms": (total_ms.get("gradedtop.smith_normal_form", 0.0), "ms"),
        "gradedtop.smith_normal_form.over_budget": (over, "count"),
        "gradedtop.entries": (entries, "count"),
        "gradedtop.gysin_total_space.self_ms": (self_ms.get("gradedtop.gysin_total_space", 0.0), "ms"),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio"),
    }


def interpreter_probe(env: dict, count: int) -> list[float]:
    """Milliseconds for ``python -c pass``: the floor under every CLI call."""
    out = []
    for _ in range(count):
        t = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=30)
        out.append((time.monotonic() - t) * 1e3)
    return out


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Run one workload, print its metrics and properties, write its record
    and return its result object."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        # a traced run serves every batch twice, so its pool is half the size
        units = workloads.units_for(workload, seconds / 2)
        pool = workloads.build_pool(workload, seed, units)
        props = workloads.properties(workload, seed, pool)
        pool = pool + [workloads.layer_probe()]

    with open(OUT_DIR / f"{tag}.worker-stderr.log", "wb") as log:
        # untimed warm-up: byte-compiles the sources and warms the page cache
        Worker(env, False, log).close()
        hard_stop = time.monotonic() + HARD_STOP_S
        if trace:
            plain, traced = run_traced(pool, env, log, hard_stop)
            judged_runs = [plain, traced]
            interpreter_ms = interpreter_probe(env, 7)
        else:
            timed, pool, units = run_timed(workloads.unit_stream(workload, seed), seconds, env,
                                           workload == "cli_oneshot", log, hard_stop)
            judged_runs = [timed]
            props = workloads.properties(workload, seed, pool)

    # everything below is outside the timed region
    t = time.monotonic()
    requests = [r for batch in pool for r in batch]
    judged = [(p, judge(requests, p)) for p in judged_runs]
    failed = sum(f for _, (f, _, _) in judged)
    wrong = sum(w for _, (_, w, _) in judged)
    over = sum(o for _, (_, _, o) in judged)
    attempted = sum(len(p.records) for p, _ in judged)
    props["units"] = units
    props["over_budget_share"] = over / attempted
    check_s = time.monotonic() - t

    if trace:
        metrics = layer_metrics(traced, plain, pool, judged[-1][1][2], interpreter_ms)
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w") as f:
            for index, spans in traced.spans:
                for name, t0, t1, parent, note in spans:
                    f.write(json.dumps({"request": index, "name": name, "start": t0, "end": t1,
                                        "parent": parent, "note": note}) + "\n")
    else:
        metrics = end_to_end(timed, failed, attempted)

    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"units={units} wall={sum(p.wall_s for p in judged_runs):.2f}s checked={check_s:.2f}s")
    print("workload " + json.dumps(props))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    # the result line carries exactly the metrics BENCHMARK.json declares
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]}
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in declared},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({"properties": props, "result": result,
                                                      "all_metrics": metrics}, indent=1))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "circleact" / "cli.py").is_file():
        print(f"perfbench: no circleact sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One CPU for this process and every child it starts.  The client waits
    # while a worker computes, so nothing runs in parallel anyway; on two
    # CPUs every hand-over woke an idle virtual CPU, and those wake-ups made
    # the microsecond-scale latencies and the set-up times spread about twice
    # as widely from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.set_int_max_str_digits(0)  # the long --l requests and their outputs
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    # all workloads: one result object, metrics named <workload>/<metric>
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
