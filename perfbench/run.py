"""sktlab benchmark: seeded workloads, checked outputs, per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady|limits|patterns --seed N \
        --seconds S --trace 0|1

Each run measures set-up (fresh interpreters importing `sktlab.cli`), then
starts a worker interpreter that drives the workload's seeded batch as a
closed loop with one client (see worker.py and workloads.py).  With
`--trace 0` the last line of output is a JSON object with the end-to-end
metrics; with `--trace 1` a second, traced worker runs the same batch and
the JSON carries the per-layer metrics instead.  The lines above it give
provenance, every metric with its unit, and how the tail percentile was
chosen.  BLAS threads are pinned to 1.  Spans of a traced run are written
to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import monotonic

from workloads import GRIDS, WORKLOADS

BUDGET_S = 170.0          # a run must end within 180 s
SETUP_PROBES = 2          # fresh interpreters before and again after the workers
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = ("solve", "bounds", "limit-study", "is-solve", "bifurcate", "cs-solve", "dhmp")
EXITS = (0, 2, 3, 4)

_SETUP_PROBE = """
import json, time
t0 = time.perf_counter()
import numpy, scipy, scipy.linalg
t1 = time.perf_counter()
import sktlab.cli
t2 = time.perf_counter()
print(json.dumps({"deps_s": t1 - t0, "sktlab_s": t2 - t1, "file": sktlab.cli.__file__,
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


class BenchError(Exception):
    pass


class Run:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.deadline = monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=self.src)
        for var in THREAD_VARS:
            self.env[var] = "1"

    def child(self, argv: list[str]) -> str:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{os.path.basename(argv[1])} did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{argv[1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def setup(self, count: int) -> list[dict]:
        """Fresh-interpreter imports of sktlab.cli."""
        probes = []
        for _ in range(count):
            probe = json.loads(self.child([sys.executable, "-c", _SETUP_PROBE]))
            if not os.path.abspath(probe["file"]).startswith(self.src + os.sep):
                raise BenchError(f"sktlab imported from {probe['file']}, not from src/")
            probes.append(probe)
        return probes

    def worker(self, args, traced: bool, tmp: str) -> dict:
        tag = "traced" if traced else "untraced"
        result = os.path.join(tmp, tag + ".json")
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(traced)),
                "--src", self.src, "--work", os.path.join(tmp, tag), "--result", result]
        if traced:
            out_dir = os.path.join(self.root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            argv += ["--spans", os.path.join(out_dir,
                                             f"spans-{args.workload}-seed{args.seed}.jsonl")]
        self.child(argv)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)


def _op_s(rec: dict) -> float:
    """An operation's time: the faster of its repetitions."""
    return min(rec["t"])


def _failed(rec: dict) -> bool:
    """Raised, non-convergence, a config error on a valid config, any other
    exit code, or an output that failed its check.  Exit 4 is valid."""
    return (rec["raised"] is not None or rec["exit"] not in (0, 4)
            or not rec["check_ok"])


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten operations beyond it."""
    ts = sorted(times)
    n = len(ts)
    if n <= 10:
        return ts[-1], f"maximum of {n} operations (fewer than 11, so no percentile " \
                       f"has ten beyond it)"
    return ts[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} operations (10 beyond it)"


def _end_to_end(probes, untraced) -> tuple[dict, list[str]]:
    times = [_op_s(r) for r in untraced["ops"]]
    failed = sum(_failed(r) for r in untraced["ops"])
    tail, tail_note = _tail(times)
    metrics = {
        "setup_s": (statistics.median(p["deps_s"] + p["sktlab_s"] for p in probes), "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "ok_frac": (1.0 - failed / len(times), "frac"),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
    }
    notes = [f"op_tail_s is the {tail_note}",
             f"fail_frac = {failed}/{len(times)} = {failed / len(times):.4f} "
             f"(reported as ok_frac = 1 - fail_frac)",
             f"setup_s is the median of {len(probes)} fresh interpreters importing "
             f"sktlab.cli, half before and half after the workers",
             f"operation times are the faster of {untraced['reps']} repetitions of the "
             f"batch; wall_s is their sum"]
    return metrics, notes


def _per_layer(probes, untraced, traced) -> dict:
    tr = traced["trace"]
    calls, self_s, counters, maxima = tr["calls"], tr["self_s"], tr["counters"], tr["maxima"]
    by_n = {(what, name, n): val for what, name, n, val in tr["by_n"]}
    raised = tr["raised"]
    m = {}

    def count(name, val):
        m[name] = (val, "count")

    def secs(name, val):
        m[name] = (val, "s")

    count("steady.time_march.calls", calls.get("steady.time_march", 0))
    for n in GRIDS:
        count(f"steady.time_march.calls.n{n}", by_n.get(("calls", "steady.time_march", n), 0))
    secs("steady.time_march.self_s", self_s.get("steady.time_march", 0.0))
    for n in GRIDS:
        secs(f"steady.time_march.self_s.n{n}", by_n.get(("self_s", "steady.time_march", n), 0.0))
    for name in ("steady.newton_solve", "steady.newton_solve_wq"):
        secs(f"{name}.self_s", self_s.get(name, 0.0))
        count(f"{name}.iters", counters.get(f"{name}.iters", 0))
    count("steady.newton_solve_wq.raised",
          sum(c for name, _, c in raised if name == "steady.newton_solve_wq"))
    m["steady.resid_ratio_max"] = (maxima.get("steady.resid_ratio_max", 0.0), "ratio")

    count("linalg.banded.calls", calls.get("linalg.banded", 0))
    secs("linalg.banded.self_s", self_s.get("linalg.banded", 0.0))
    for n in GRIDS:
        secs(f"linalg.banded.self_s.n{n}", by_n.get(("self_s", "linalg.banded", n), 0.0))
    m["linalg.banded.mb_computed"] = (counters.get("linalg.banded.bytes", 0) / 1e6, "MB")
    for site in ("march", "newton", "lobe"):
        for n in GRIDS:
            count(f"linalg.banded.{site}.calls.n{n}", by_n.get(("kernel_calls", site, n), 0))
            m[f"linalg.banded.{site}.mb_computed.n{n}"] = (
                by_n.get(("kernel_bytes", site, n), 0) / 1e6, "MB")
    count("linalg.solve_bordered.calls", calls.get("linalg.solve_bordered", 0))
    secs("linalg.solve_bordered.self_s", self_s.get("linalg.solve_bordered", 0.0))

    count("twolobe.solve_unit.calls", calls.get("twolobe.solve_unit", 0))
    secs("twolobe.solve_unit.self_s", self_s.get("twolobe.solve_unit", 0.0))
    secs("twolobe.assemble.self_s", self_s.get("twolobe.assemble", 0.0))
    m["twolobe.mismatch_max"] = (maxima.get("twolobe.mismatch_max", 0.0), "flux")

    secs("limits.is_newton.self_s", self_s.get("limits.is_newton", 0.0))
    secs("limits.cs_solve.self_s", self_s.get("limits.cs_solve", 0.0))
    count("limits.tau_collapse", sum(c for name, exc, c in raised
                                     if name == "limits.is_newton" and exc == "TauCollapse"))

    secs("bifurcation.detect_crossing.self_s", self_s.get("bifurcation.detect_crossing", 0.0))
    secs("bifurcation.switch_and_continue.self_s",
         self_s.get("bifurcation.switch_and_continue", 0.0))
    for key in ("branch_points", "corrector_iters", "truncated"):
        count(f"bifurcation.{key}", counters.get(f"bifurcation.{key}", 0))

    secs("limitstudy.run_sequence.self_s", self_s.get("limitstudy.run_sequence", 0.0))
    secs("limitstudy.match_limit.self_s", self_s.get("limitstudy.match_limit", 0.0))
    count("limitstudy.steps", counters.get("limitstudy.steps", 0))

    count("bounds.sup_bound.calls", calls.get("bounds.sup_bound", 0))
    secs("bounds.sup_bound.self_s", self_s.get("bounds.sup_bound", 0.0))
    count("bounds.cert_false", traced["cert_false"])

    count("io.write_csv.calls", calls.get("io.write_csv", 0))
    secs("io.write_csv.self_s", self_s.get("io.write_csv", 0.0))
    m["io.bytes_written"] = (counters.get("io.bytes_written", 0), "bytes")

    secs("cli.main.self_s", self_s.get("cli.main", 0.0))
    ops = untraced["ops"]
    for cmd in COMMANDS:
        ts = [_op_s(r) for r in ops if r["command"] == cmd]
        secs(f"cli.{cmd}.p50_s", statistics.median(ts) if ts else 0.0)
    for code in EXITS:
        count(f"cli.exit.{code}", sum(r["exit"] == code and r["raised"] is None for r in ops))
    count("cli.raised", sum(r["raised"] is not None for r in ops))
    secs("cli.first_op_s", ops[0]["t"][0])
    secs("cli.first_op_excess_s", ops[0]["t"][0] - _op_s(ops[0]))

    secs("setup.deps_s", statistics.median(p["deps_s"] for p in probes))
    secs("setup.sktlab_s", statistics.median(p["sktlab_s"] for p in probes))
    wall_u = sum(r["t"][0] for r in ops)
    wall_t = sum(r["t"][0] for r in traced["ops"])
    m["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "frac")
    return m


def _split(tr: dict, op_s: float) -> list[str]:
    """Where the traced operation time went: self time per layer module and
    the functions with the largest inclusive time."""
    layers = {}
    for name, s in tr["self_s"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s

    def share(s):
        return f"{s:.3f} s ({100.0 * s / op_s:.1f}%)"

    top = sorted(tr["total_s"].items(), key=lambda kv: -kv[1])[:8]
    return ["trace: self time by layer: " + ", ".join(
                f"{k} {share(v)}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])),
            "trace: largest inclusive times: " + ", ".join(f"{k} {share(v)}" for k, v in top)]


def _provenance(args, probes) -> list[str]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:     # read only
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    threads = " ".join(f"{v}=1" for v in THREAD_VARS)
    return [f"provenance: nproc={usable} cpu_count={os.cpu_count()} cpu={cpu!r}",
            f"provenance: python={platform.python_version()} numpy={probes[0]['numpy']} "
            f"scipy={probes[0]['scipy']}",
            f"provenance: blas threads pinned: {threads}",
            f"provenance: workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}",
            "provenance: no machine-wide profiler is used (none is permitted where this "
            "benchmark was defined); every layer number comes from in-process wrappers "
            "around the public functions of the sktlab modules"]


def _summary(label: str, result: dict) -> list[str]:
    ops = result["ops"]
    lines = [f"{label}: {len(ops)} operations x {result['reps']} repetitions, "
             f"{sum(sum(r['t']) for r in ops):.4f} s in sktlab.cli.main"]
    raised = {}
    for r in ops:
        if r["raised"] is not None:
            raised[r["raised"]] = raised.get(r["raised"], 0) + 1
    if raised:
        lines.append(f"{label}: raised " + ", ".join(f"{k}={v}" for k, v in sorted(raised.items())))
    for r in ops:
        if not r["check_ok"]:
            lines.append(f"{label}: check failed: {r['command']} n={r['n']}: {r['note']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sktlab", "cli.py")):
        print("perfbench: run from the root of an sktlab checkout (src/sktlab missing)",
              file=sys.stderr)
        return 2
    run = Run(root)
    tmp = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        run.setup(1)                   # warms the file cache, not counted
        probes = run.setup(SETUP_PROBES)
        untraced = run.worker(args, traced=False, tmp=tmp)
        traced = run.worker(args, traced=True, tmp=tmp) if args.trace else None
        probes += run.setup(SETUP_PROBES)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = _provenance(args, probes) + _summary("untraced", untraced)
    ops = untraced["ops"]
    wrote = [r for r in ops if r["exit"] == 0 and r["raised"] is None]
    differ = [k for k, r in enumerate(ops) if not r["repeat_ok"]]
    lines.append(f"determinism: {len(wrote)} operations that exited 0 were repeated with "
                 f"identical input; {len(differ)} of all {len(ops)} changed their exit or "
                 f"output bytes" + (f" (operations {differ[:10]})" if differ else ""))
    correct = bool(wrote) and not differ and all(r["check_ok"] for r in ops)

    e2e, notes = _end_to_end(probes, untraced)
    lines += notes
    if args.trace:
        lines += _summary("traced", traced)
        correct = correct and all(r["check_ok"] for r in traced["ops"])
        tr = traced["trace"]
        self_sum = sum(tr["op_self_sum"].values())
        lines.append(f"trace: self times sum to {self_sum:.4f} s over "
                     f"{len(traced['ops'])} operations (traced op time "
                     f"{sum(r['t'][0] for r in traced['ops']):.4f} s, untraced first "
                     f"repetition {sum(r['t'][0] for r in ops):.4f} s); "
                     f"{tr['spans_kept']} spans kept, {tr['sites_folded']} folded sites")
        lines += _split(tr, sum(r["t"][0] for r in traced["ops"]))
        metrics = _per_layer(probes, untraced, traced)
    else:
        metrics = e2e
    for label, group in (("end-to-end", e2e), ("per-layer", metrics if args.trace else {})):
        for name, (val, unit) in group.items():
            lines.append(f"{label}  {name} = {val!r} {unit}")
    print("\n".join(lines))
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": sum(_failed(r) for r in ops),
                      "metrics": {name: {"value": val, "unit": unit}
                                  for name, (val, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
