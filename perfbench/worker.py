"""One closed-loop client: runs a workload's batch in this fresh interpreter.

Started by run.py with BLAS threads pinned to 1 and `src` on PYTHONPATH.
Each operation is one in-process `sktlab.cli.main([...])` call, the path a
user's command takes.  Only the call itself is timed; writing the config,
clearing the output directory and checking the output happen between
operations.  Every exception an operation raises is recorded and the run
goes on.  The result is written as JSON to --result.

An untraced worker runs the whole batch several times (workloads.plan), one
repetition after the other, so that a slow spell of a shared machine is
unlikely to hit all of an operation's timings; the repetitions also check
that every operation writes the same bytes again.  A traced worker runs
the batch once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import os
import resource
import shutil
import sys
from time import perf_counter


def _run_op(cli, op, cfg_path: str, out: str):
    """(seconds, exit code or None, exception type or None)."""
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(op.config_text())
    for name in os.listdir(out):
        os.remove(os.path.join(out, name))
    argv = [op.command, "--config", cfg_path, "--out", out]
    err = _io.StringIO()
    raised = None
    rc = None
    with contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
            raised = type(exc).__name__
        t = perf_counter() - t0
    return t, rc, raised


def _digest(out: str) -> str:
    """Hash of the names and bytes of every file an operation wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import sktlab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"sktlab imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    passes, reps = workloads.plan(args.workload, args.seconds)
    if tracer is not None:
        reps = 1
    ops = workloads.batch(args.workload, args.seed, passes)
    os.makedirs(args.work, exist_ok=True)
    cfg_path = os.path.join(args.work, "config.txt")
    out = os.path.join(args.work, "out")
    os.makedirs(out, exist_ok=True)
    records = []
    digests = []
    cert_false = 0
    try:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id, tracer.op_n = k, op.n
            t, rc, raised = _run_op(cli, op, cfg_path, out)
            if tracer is not None:
                tracer.op_id = None
            ok, note = True, ""
            if op.expect_exit is not None and raised is None and rc != op.expect_exit:
                ok, note = False, f"exit {rc}, expected {op.expect_exit}"
            elif rc == 0 and raised is None:
                ok, note, facts = checks.check(op, out)
                cert_false += facts.get("certificate_ok") == "False"
            digests.append(_digest(out) if rc == 0 and raised is None else None)
            records.append({"command": op.command, "n": op.n, "t": [t], "exit": rc,
                            "raised": raised, "check_ok": ok, "note": note,
                            "expect_exit": op.expect_exit, "repeat_ok": True})
        for _ in range(1, reps):
            for k, op in enumerate(ops):
                t, rc, raised = _run_op(cli, op, cfg_path, out)
                rec = records[k]
                rec["t"].append(t)
                same = (rc, raised) == (rec["exit"], rec["raised"]) \
                    and (digests[k] is None or _digest(out) == digests[k])
                rec["repeat_ok"] = rec["repeat_ok"] and same
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    result = {"ops": records, "reps": reps, "cert_false": cert_false,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        if args.spans:
            tracer.write_spans(args.spans)
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "by_n": [[what, name, n, val] for (what, name, n), val in tracer.by_n.items()],
            "raised": [[name, exc, c] for (name, exc), c in tracer.raised.items()],
            "counters": dict(tracer.counters),
            "maxima": dict(tracer.maxima),
            "op_self_sum": {str(k): v for k, v in tracer.op_self_sum.items()},
            "spans_kept": len(tracer.spans),
            "sites_folded": len(tracer.folded),
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
