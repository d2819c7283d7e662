"""Layered benchmark of the dialectica library.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

One process runs one workload as a closed loop: each op starts when the
previous one returns, in one thread.  Set-up (importing ``dialectica`` and
generating the stock doctrine JSON, the signature and the op list) runs in
fresh child processes and is timed as ``setup_s``.  Every op's exit status
and stdout are checked against known answers and against the digest table
``digests.json`` outside the timed interval.  Every time is scaled to a
nominal host speed by the gauge of ``hostspeed.py``, timed between ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
distinct op of one pass untraced, then again with wrappers from
``tracing.py`` installed, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--record-digests`` regenerates ``digests.json`` from the library as it
is; it is the only command that writes the table.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 5
SETUP_GAUGE_S = 0.1

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


@dataclasses.dataclass
class Record:
    key: str
    raw: float  # as measured
    seconds: float  # scaled to the nominal host speed (see hostspeed.py)
    code: int | None
    digest: str
    error: str | None


# -- ops ---------------------------------------------------------------------


def run_theorem(op) -> int:
    """One theorem check, loading its doctrine as the CLI does; the report
    is printed as canonical JSON so it is digested like CLI output."""
    from dialectica import dial, doctrine, freeness

    with open(f"{op['doctrine']}.json", encoding="utf-8") as fh:
        D = doctrine.doctrine_from_json(json.load(fh))
    fa = freeness.FreenessAnalyzer(D)
    base = next(o for o in D.universe if o.name == op["base"])
    if op["theorem"] == 2:
        rep = dial.check_theorem2(D, fa, base, samples=op["samples"], seed=op["seed"])
    else:
        rep = dial.check_theorem4(D, fa, base, quad_cap=op["quad_cap"])
    print(json.dumps(dataclasses.asdict(rep), sort_keys=True))
    return 0 if rep.passed else 1


def run_op(op) -> tuple[Record, str]:
    """One op; `seconds` covers the call and its output capture only."""
    from dialectica import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"]) if "argv" in op else run_theorem(op)
    except SystemExit as exc:  # argparse rejecting the argv
        code, error = exc.code, f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # an op that raises counts as failed
        code, error = None, f"raised {type(exc).__name__}: {exc}"[:200]
    elapsed = time.perf_counter() - start
    return Record(op["key"], elapsed, elapsed, code, "", error), out.getvalue()


def run_phase(ops) -> tuple[list, dict, float]:
    """Run ops back to back; keep the first stdout of each distinct
    (key, digest, status) for the known-answer checks made afterwards.

    Between ops the host-speed gauge runs for `hostspeed.SHARE` of the op
    time since it last ran, at least one chunk, and each op's time is
    scaled by the chunks timed just before and just after it.  Returns the
    records and the phase's wall time: the sum of the scaled op times."""
    records, first, pending = [], {}, []
    before = hostspeed.block(0.05)
    for i, op in enumerate(ops):
        rec, text = run_op(op)
        rec.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        records.append(rec)
        first.setdefault((rec.key, rec.digest, rec.code), (op, text))
        pending.append(rec)
        busy = hostspeed.SHARE * sum(r.raw for r in pending)
        if busy >= hostspeed.NOMINAL_S or i == len(ops) - 1:
            after = hostspeed.block(busy)
            factor = hostspeed.scale(before + after)
            for r in pending:
                r.seconds = r.raw * factor
            before, pending = after, []
    return records, first, sum(r.seconds for r in records)


def failures(records, first, table) -> list:
    """(key, reason) for every record that fails a known answer."""
    verdicts = {}
    for (key, digest, code), (op, text) in first.items():
        try:
            verdicts[key, digest, code] = W.check_output(op, code, text)
        except (ValueError, LookupError, TypeError, StopIteration) as exc:
            verdicts[key, digest, code] = f"unreadable output: {type(exc).__name__}"
    out = []
    for r in records:
        reason = r.error
        if reason is None and table.get(r.key) != r.digest:
            reason = f"stdout digest {r.digest}, table has {table.get(r.key)}"
        if reason is None:
            reason = verdicts[r.key, r.digest, r.code]
        if reason is not None:
            out.append((r.key, reason))
    return out


# -- phases ------------------------------------------------------------------


def measure_setup(args, work: Path, repeats: int) -> tuple[float, float]:
    """Median wall time of `repeats` fresh processes that import the
    library and write the run's inputs, each scaled by the host-speed
    gauge run just before and just after it, and the median as measured.
    The last process's files are used."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(work)]
    raw, scaled = [], []
    before = hostspeed.block(SETUP_GAUGE_S)
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        after = hostspeed.block(SETUP_GAUGE_S)
        scaled.append(raw[-1] * hostspeed.scale(before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def report_failures(bad) -> None:
    for key, reason in bad[:20]:
        print(f"FAILED {key}: {reason}")
    if len(bad) > 20:
        print(f"... {len(bad) - 20} more failed ops")


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted `values`: a mean
    of all order statistics with Beta((n+1)p, (n+1)(1-p)) weights, taken
    here at each rank's midpoint.  With few distinct ops, as in
    `doctrine-audit`, a single order statistic jumps whenever two ops of
    similar cost swap ranks; this estimate moves smoothly instead."""
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(v * w for v, w in zip(values, weights)) / sum(weights)


def end_to_end(passes, table, setup) -> dict:
    """End-to-end metrics of the whole op list.  An op's latency for the
    percentiles is the median over the passes of its key, which keeps one
    interrupted run of an op from setting the tail."""
    ops = [op for p in passes for op in p]
    records, first, wall = run_phase(ops)
    bad = failures(records, first, table)
    by_key = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.seconds)
    latencies = sorted(statistics.median(by_key[r.key]) for r in records)
    n = len(latencies)
    tail = (n - 10) / n  # the highest percentile with ten ops beyond it
    setup_s, raw_setup_s = setup
    raw_wall = sum(r.raw for r in records)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_ms": harrell_davis(latencies, 0.5) * 1e3,
        "op_tail_ms": harrell_davis(latencies, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{len(passes)} passes, {n} ops, {len(by_key)} distinct; "
          f"op_tail_ms is p{100 * tail:.2f} of {n} ops; "
          f"{len(bad)} of {n} ops failed (fail ratio {len(bad) / n:.4f})")
    print(f"as measured, before scaling to the nominal host speed: wall {raw_wall:.3f} s, "
          f"setup {raw_setup_s:.4f} s; the host ran at {wall / raw_wall:.3f}x nominal speed")
    report_failures(bad)
    return {"correct": not bad, "attempted": n, "failed": len(bad),
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def per_layer(passes, table) -> dict:
    from tracing import Tracer

    # Each distinct op of the first pass once: `doctrine-audit` repeats its
    # light ops in rounds, and tracing all of them would not fit a run.
    ops = list({op["key"]: op for op in passes[0]}.values())
    plain, plain_first, plain_wall = run_phase(ops)
    tracer = Tracer()
    tracer.install()
    try:
        left = tracer.self_check()
        traced, traced_first, traced_wall = run_phase(ops)
    finally:
        tracer.uninstall()
    bad = failures(plain, plain_first, table) + failures(traced, traced_first, table)
    changed = [a.key for a, b in zip(plain, traced) if a.digest != b.digest]
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    print(f"{len(ops)} distinct ops of one pass, untraced then traced")
    for name, (num, den) in tracer.ratio_bases().items():
        print(f"{name} = {num}/{den}")
    for place in left:
        print(f"TRACE SELF-CHECK: {place} still holds an unwrapped original")
    for key in changed:
        print(f"TRACE CHANGED OUTPUT: {key}")
    report_failures(bad)
    return {"correct": not (bad or left or changed), "attempted": 2 * len(ops),
            "failed": len(bad),
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}}


def record_digests() -> int:
    """Run every op of the catalogue once, check its known answers and
    write the digest table."""
    work = WORK / f"record-{os.getpid()}"
    try:
        W.write_inputs("doctrine-audit", 0, 1, work)
        W.write_inputs("formulas", 0, 1, work)
        os.chdir(work)
        ops = W.catalogue(W.formula_pool())
        records, first, _ = run_phase(ops)
        table = {r.key: r.digest for r in records}
        bad = failures(records, first, table)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        report_failures(bad)
        print("digest table not written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS.name}")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="regenerate digests.json from the library as it is")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dialectica" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import dialectica.cli  # noqa: F401  (the import is part of set-up)
        W.write_inputs(args.workload, args.seed, args.seconds, args.out)
        return 0
    if args.record_digests:
        return record_digests()
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # per_layer reports no setup_s, so a traced run sets up once.
        setup_s = measure_setup(args, work, 1 if args.trace else SETUP_REPEATS)
        from dialectica import _kernels

        passes = json.loads((work / "ops.json").read_text(encoding="utf-8"))["passes"]
        print(f"perfbench: workload {args.workload}, seed {args.seed}, "
              f"kernel lane {_kernels.BACKEND}")
        os.chdir(work)
        if args.trace:
            result = per_layer(passes, table)
        else:
            result = end_to_end(passes, table, setup_s)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
