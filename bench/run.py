"""bcsgap CLI benchmark: one closed-loop client, one request process at a time.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                         [--blas-threads K]

Run from the root of a bcsgap checkout.  The seed fixes the workload's
request list (bench/workloads.py).  Each request is a fresh interpreter that
imports bcsgap.cli from ./src and calls main(argv) on a generated config
(bench/child.py), so lru_caches start cold exactly as for a user.  The next
request is spawned only after the previous one has exited.

--trace 0 repeats the list while another pass fits in S seconds (at least one
pass) and reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics of bench/tracing.py.  Every
output is checked against bench/oracles.py; later passes must reproduce the
first pass's files byte for byte.  Each workload ends with its JSON result
line; `--workload all` runs transition, curves and config_stream in turn.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".bench_work"
REQUEST_TIMEOUT_S = 120.0


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="transition, curves, config_stream, or all (one after another)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="OpenBLAS/OpenMP threads of every process (default 1)")
    return p.parse_args()


class Outcome:
    __slots__ = ("req", "index", "latency", "setup", "rss_mb", "exit", "error", "out_dir")

    def __init__(self, req, index, latency, setup, rss_mb, exit_code, out_dir):
        self.req, self.index = req, index
        self.latency, self.setup, self.rss_mb = latency, setup, rss_mb
        self.exit, self.error, self.out_dir = exit_code, None, out_dir


def _spawn(req, index, cfg_path, out_dir, record, traced, env) -> Outcome:
    os.makedirs(out_dir)
    argv = [sys.executable, os.path.join(HERE, "child.py"), record, "1" if traced else "0",
            "--", "--config", cfg_path, "--out", out_dir] + req.argv
    with open(os.path.join(out_dir, "stdout"), "wb") as so, \
            open(os.path.join(out_dir, "stderr"), "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env)
        killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    try:
        with open(record, encoding="utf-8") as fh:
            marks = json.load(fh)
    except (OSError, ValueError):
        pass
    loaded = marks.get("config_loaded")
    rss_kib = marks.get("peak_rss_kib", usage.ru_maxrss)
    return Outcome(req, index, t1 - t0, loaded - t0 if loaded is not None else None,
                   rss_kib / 1024.0, proc.returncode, out_dir)


def _run_pass(reqs, cfgs, tag, traced, env) -> tuple:
    outcomes = []
    t0 = time.monotonic()
    for i, req in enumerate(reqs):
        out_dir = os.path.join(WORK, tag, f"{i:03d}")
        record = os.path.join(WORK, tag, f"{i:03d}.rec.json")
        outcomes.append(_spawn(req, i, cfgs[i], out_dir, record, traced, env))
    return time.monotonic() - t0, outcomes


def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _judge(o: Outcome, reference: Outcome | None, oracles) -> None:
    """Set o.error unless the request exited as expected with correct outputs."""
    req = o.req
    if o.exit != req.expect_exit:
        stderr = _read(o.out_dir, "stderr")
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        if req.known_defect and o.exit == 1 and "ValueError" in last:
            o.error = f"known defect: {req.known_defect}"
        else:
            o.error = f"exit {o.exit}, expected {req.expect_exit}: {last[:200]}"
        return
    if reference is not None and reference.error is None:
        # a repeat of an already checked request must reproduce its files
        # (stdout names the output directory, which differs between runs)
        cmp = filecmp.dircmp(reference.out_dir, o.out_dir)
        files = [f for f in cmp.common_files if f not in ("stdout", "stderr")]
        if (cmp.left_only or cmp.right_only
                or filecmp.cmpfiles(reference.out_dir, o.out_dir, files, shallow=False)[1]
                or _read(reference.out_dir, "stdout").replace(reference.out_dir, "")
                != _read(o.out_dir, "stdout").replace(o.out_dir, "")):
            o.error = "outputs differ from the first run of the same request"
        return
    try:
        oracles.check(req, o.out_dir, _read(o.out_dir, "stdout"))
    except oracles.CheckFailed as exc:
        o.error = f"check failed: {exc}"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        o.error = f"unreadable output: {type(exc).__name__}: {exc}"


def _tail(latencies: list, per_pass: int) -> tuple:
    """Latency at the highest percentile of one pass with at least 10
    requests beyond it (the maximum if a pass has fewer than 11 requests),
    as the median over passes, and that percentile."""
    rank = per_pass - 11 if per_pass >= 11 else per_pass - 1
    tails = [sorted(latencies[k:k + per_pass])[rank]
             for k in range(0, len(latencies), per_pass)]
    return statistics.median(tails), 100.0 * (rank + 1) / per_pass


def main() -> int:
    args = _args()
    threads = str(args.blas_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not os.path.isfile(os.path.join("src", "bcsgap", "cli.py")):
        print("bench/run.py: no bcsgap sources at ./src/bcsgap; run from the root "
              "of a bcsgap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"bench/run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    for name in names:
        print(json.dumps(run_workload(name, args, env, workloads.generate(name, args.seed))))
    return 0


def run_workload(name: str, args, env: dict, reqs: list) -> dict:
    """Run, check and summarise one workload; returns the JSON result."""
    import oracles
    import tracing

    threads = env["OPENBLAS_NUM_THREADS"]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "cfg"))
    cfgs = []
    for i, req in enumerate(reqs):
        path = os.path.join(WORK, "cfg", f"{i:03d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(req.config_text())
        cfgs.append(path)

    walls, outcomes = [], []
    t_start = time.monotonic()
    while True:
        wall, outs = _run_pass(reqs, cfgs, f"pass{len(walls)}", False, env)
        walls.append(wall)
        outcomes.extend(outs)
        elapsed = time.monotonic() - t_start
        if args.trace or elapsed + statistics.mean(walls) > args.seconds:
            break
    traced_wall, traced_outs = None, []
    if args.trace:
        traced_wall, traced_outs = _run_pass(reqs, cfgs, "traced", True, env)

    first = {}
    for o in outcomes + traced_outs:
        _judge(o, first.get(o.index), oracles)
        first.setdefault(o.index, o)

    # a distinct request fails if any of its runs failed; repeats re-measure it
    bad = {}
    for o in outcomes + traced_outs:
        if o.error is not None:
            bad.setdefault(o.index, o.error)
    attempted, failed = len(reqs), len(bad)
    correct = all(e.startswith("known defect") for e in bad.values())

    print(f"workload {name} seed {args.seed}: {len(reqs)} requests x "
          f"{len(walls)} pass(es), one closed-loop client, OPENBLAS_NUM_THREADS={threads}")
    causes = {}
    for i, err in sorted(bad.items()):
        causes[err] = causes.get(err, 0) + 1
        print(f"  FAILED {reqs[i].name}: {err}")
    print(f"  fail_frac {failed / attempted:.4f} 1 ({failed} of {attempted} requests)")
    for cause, count in causes.items():
        print(f"    {count} x {cause}")

    if args.trace:
        spans = []
        violations = 0
        for o in traced_outs:
            path = os.path.join(WORK, "traced", f"{o.index:03d}.rec.json.npz")
            if not os.path.exists(path):
                continue
            s = tracing.load_spans(path)
            violations += tracing.nesting_violations(s)
            spans.append(s)
        if violations:
            print(f"  {violations} spans lie outside their parent span")
            correct = False
        overhead = traced_wall / walls[0] - 1.0
        values = tracing.summarize(spans, overhead)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in tracing.LAYER_METRICS.items()}
    else:
        # a failed request counts as missing every latency limit
        timeout_latency = [REQUEST_TIMEOUT_S if o.error else o.latency for o in outcomes]
        tail, pct = _tail(timeout_latency, len(reqs))
        setups = [o.setup for o in outcomes if o.setup is not None]
        values = {
            "wall_s": (statistics.median(walls), "s"),
            "request_p50_s": (statistics.median(timeout_latency), "s"),
            "request_tail_s": (tail, "s"),
            "setup_s": (statistics.median(setups) if setups else REQUEST_TIMEOUT_S, "s"),
            "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for k, (v, u) in values.items():
            note = ""
            if k == "request_tail_s":
                note = (f"  (p{pct:.1f} of the {len(reqs)} requests of a pass, "
                        f"median of {len(walls)} passes)")
            elif k == "wall_s":
                note = f"  (median of {len(walls)} passes)"
            elif k == "setup_s":
                note = f"  (median of {len(setups)} requests)"
            print(f"  {k} {v:.6g} {u}{note}")
        by_cmd = {}
        for o in outcomes:
            if not o.error:
                by_cmd.setdefault(o.req.command, []).append(o.latency)
        for cmd, xs in sorted(by_cmd.items()):
            print(f"    {cmd}: median {statistics.median(xs):.4g} s over {len(xs)} requests")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
