"""Benchmark of gtrig on three workloads.

    python3 perfbench/run.py --workload eval-warm --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: gtrig is imported from ``src/``, and
the command exits with code 1, printing no result, if that is missing.
Workloads are closed loops on one thread: each call is sent when the previous
one returned.

``--trace 0`` runs whole rounds of the workload for ``--seconds`` of time
inside them: it stops before a round that would overrun, but always does
the workload's ``rss_rounds``, after which ``peak_rss_mb`` is read, so that
it reflects a fixed amount of work.  Rates and the 99th percentile are
taken per block of ``block_rounds`` rounds and reported as the median over
the blocks, so that a burst of machine slowness in part of a run moves them
little.  ``--trace 1`` runs a fixed number of rounds, untraced and traced in
turn, and prints the per-layer metrics, so that its counts repeat exactly
for a seed; its spans go to ``perfbench/out/``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

# One thread, in this process and in the set-up probes it starts: numpy's
# BLAS pool, which gtrig never uses, otherwise starts a thread per core when
# numpy is imported, and on a 2-vCPU machine that start-up made the import
# take 0.12 s or 0.19 s by turns.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed for setup_s; the run reports their median.
PROBES = 9
# Rounds a traced run measures untraced, and as many traced, after one round
# that is not measured.
TRACE_ROUNDS = {"eval-warm": 8, "verify-catalog": 2, "pairs-cold": 8}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or
    "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def load_gtrig():
    """Import gtrig from this checkout's src/, and nowhere else."""
    if not (SRC / "gtrig" / "__init__.py").is_file():
        raise SystemExit(f"error: no gtrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gtrig

    if Path(gtrig.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: gtrig was imported from {gtrig.__file__}")
    return gtrig


class Probes:
    """``PROBES`` set-ups of gtrig, each in a fresh interpreter (probe.py).

    ``due`` is called between rounds; the k-th probe starts once k/PROBES of
    the run's seconds have been spent in the operation loops, so that the
    probes sample the machine all through the run and not in one stretch.
    ``finish`` runs whatever is left.  Probes never overlap a timed loop.
    """

    def __init__(self, workload: str, seconds: float) -> None:
        self.workload = workload
        self.step_ns = seconds * 1e9 / PROBES
        self.results: list[dict] = []

    def due(self, busy_ns: int) -> None:
        while len(self.results) < PROBES and busy_ns >= len(self.results) * self.step_ns:
            self.run_one()

    def finish(self) -> list[dict]:
        while len(self.results) < PROBES:
            self.run_one()
        return self.results

    def run_one(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), self.workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))


class Tally:
    """What a pass of rounds leaves behind once each round is checked: counts,
    per-op durations, time inside the operation loops, and per round the
    loop time, completed ops and sweep points."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.op_ms = array("d")
        # per round: (loop ns, completed ops, points, end of its ops in op_ms)
        self.rounds: list[tuple[int, int, int, int]] = []
        self.peak_rss_mb = 0.0
        self.direct_ns: list[int] = []
        self.complement_ns: list[int] = []
        self.op_ms_by_kind: dict[str, list[float]] = {}

    def add(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "busy_ns"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.op_ms.extend(other.op_ms)
        self.direct_ns += other.direct_ns
        self.complement_ns += other.complement_ns


def run_rounds(wl, first: int, *, count=None, seconds=None, tracer=None, keep=None,
               deep=True, probes=None):
    """Whole rounds from round ``first``: ``count`` of them, or as many as fit
    in ``seconds`` inside the operation loops (and at least
    ``wl.rss_rounds``).

    Each round is checked when it ends and its outputs are dropped; the first
    gets the workload's deep checks if ``deep``.  With ``keep``, a list, each
    round's records are appended to it instead and left for ``settle``, so
    that no check calls into gtrig while it is traced.  ``probes`` get their
    turn between rounds.
    """
    from workloads import Record

    tally = Tally()
    r = first
    while True:
        if probes is not None:
            probes.due(tally.busy_ns)
        records: list[Record] = []
        ops = wl.round_ops(r)
        loop_start = time.perf_counter_ns()
        for op in ops:
            idx = tracer.open(wl.span_name(op)) if tracer is not None else -1
            t0 = time.perf_counter_ns()
            try:
                out, error = wl.call(op), False
            except Exception as exc:  # an op that raises is counted as failed
                out, error = exc, True
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.close(idx)
            records.append(Record(op, out, t1 - t0, error))
        loop_ns = time.perf_counter_ns() - loop_start
        tally.busy_ns += loop_ns
        if keep is None:
            settle(wl, tally, records, loop_ns, deep=deep and r == first)
        else:
            keep.append((records, loop_ns))
        r += 1
        done = r - first
        if done == wl.rss_rounds or (count is not None and done == count):
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if count is not None:
            if done >= count:
                break
        # stop before a round that would take the loops past ``seconds``
        elif done >= wl.rss_rounds and tally.busy_ns * (done + 1) / done > seconds * 1e9:
            break
    return tally


def settle(wl, tally: Tally, records, loop_ns: int, deep: bool) -> None:
    """Check one round's outputs and add them to the tally."""
    raised = {k for k, rec in enumerate(records) if rec.error}
    if raised and not tally.failed:
        exc = records[min(raised)].out
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    wrong = wl.check(records, deep=deep)
    tally.attempted += len(records)
    tally.failed += len(raised | wrong)
    points = 0
    for k, rec in enumerate(records):
        if not rec.error:
            tally.op_ms.append(rec.ns / 1e6)
            if wl.repeats_ops:
                tally.op_ms_by_kind.setdefault(rec.op[0], []).append(rec.ns / 1e6)
            if k not in wrong:
                points += wl.points(rec)
    tally.rounds.append((loop_ns, len(records) - len(raised), points, len(tally.op_ms)))
    if hasattr(wl, "direct_split"):
        direct, complement = wl.direct_split(records)
        tally.direct_ns += direct
        tally.complement_ns += complement


def rss_kb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 1024.0


def blocks(tally: Tally, block_rounds: int) -> list[tuple[int, int, int, list]]:
    """Consecutive rounds taken ``block_rounds`` at a time: (loop ns,
    completed ops, points, op durations) per block.  A last, partial block
    is left out unless there is no whole one."""
    out, start = [], 0
    rounds = tally.rounds
    for k in range(0, len(rounds), block_rounds):
        part = rounds[k:k + block_rounds]
        if len(part) < block_rounds and out:
            break
        end = part[-1][3]
        out.append((sum(p[0] for p in part), sum(p[1] for p in part),
                    sum(p[2] for p in part), tally.op_ms[start:end]))
        start = end
    return out


def end_to_end(setups, tally: Tally, wl) -> dict[str, float]:
    """End-to-end figures of a run.

    Rates and the 99th percentile are medians over blocks of
    ``wl.block_rounds`` rounds.  Op-time percentiles pool every op, except
    where each round repeats the same few ops (verify-catalog): there they
    are taken over each op's median time, since pooled the median falls
    between clusters of unlike ops and machine noise moves it from one
    cluster to the next.  A run in which no op completed reports 0 for the
    op figures (and is not correct).
    """
    figures = {
        "setup_s": statistics.median(s["import_s"] + s["warm_s"] for s in setups),
        "peak_rss_mb": tally.peak_rss_mb,
    }
    parts = [b for b in blocks(tally, wl.block_rounds) if b[1]]
    if not parts:
        figures.update(ops_per_s=0.0, op_ms_p50=0.0, op_ms_p99=0.0, points_per_s=0.0)
        return figures
    figures["ops_per_s"] = statistics.median(ops / ns * 1e9 for ns, ops, _, _ in parts)
    figures["points_per_s"] = statistics.median(pts / ns * 1e9 for ns, _, pts, _ in parts)
    if tally.op_ms_by_kind:
        op_ms = [statistics.median(v) for v in tally.op_ms_by_kind.values()]
        figures["op_ms_p50"] = statistics.median(op_ms)
        figures["op_ms_p99"] = p99(op_ms)
    else:
        figures["op_ms_p50"] = statistics.median(tally.op_ms)
        figures["op_ms_p99"] = statistics.median(p99(b[3]) for b in parts)
    return figures


def p99(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def per_layer(gtrig, wl, setups, seed: int) -> tuple[dict[str, float], Tally]:
    """The traced run: a fixed number of untraced and traced rounds, taken in
    turn after one unmeasured round."""
    from spans import Tracer, layer_metrics, patched
    from workloads import VERIFY_IDS

    n = TRACE_ROUNDS[wl.name]
    # round 0 fills what is set up once per process (quadrature node levels,
    # mpmath's caches), so that RSS growth over the next rounds is per pair
    prime = run_rounds(wl, 0, count=1)
    base, traced, tracer = Tally(), Tally(), Tracer()
    traced_rounds: list = []
    rss_growth = 0.0
    # untraced and traced rounds alternate, so that drifts in machine speed
    # fall alike on both sides of trace.overhead_pct
    for k in range(n):
        rss_before = rss_kb()
        base.add(run_rounds(wl, 1 + k, count=1, deep=k == 0))
        rss_growth += rss_kb() - rss_before
        # pairs-cold needs pairs the untraced rounds have not set up
        r = 1 + n + k if wl.first_calls else 1 + k
        with patched(tracer, gtrig):
            traced.add(run_rounds(wl, r, count=1, tracer=tracer, keep=traced_rounds))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{wl.name}-seed{seed}.json")
    for k, (records, loop_ns) in enumerate(traced_rounds):
        settle(wl, traced, records, loop_ns, deep=k == 0)

    metrics = layer_metrics(tracer, traced.attempted, VERIFY_IDS)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.warm_s"] = statistics.median(s["warm_s"] for s in setups)
    metrics["trace.overhead_pct"] = 100.0 * (traced.busy_ns / base.busy_ns - 1.0)
    for branch in ("direct", "complement"):
        durations = getattr(base, branch + "_ns")
        metrics[f"functions.{branch}_us_p50"] = (
            statistics.median(durations) / 1e3 if durations else 0.0
        )
    metrics["functions.first_call_quad_calls"] = (
        metrics["numerics.quad_calls_per_op"] if wl.first_calls else 0.0
    )
    metrics["functions.rss_kb_per_pair"] = (
        rss_growth / base.attempted if wl.first_calls else 0.0
    )
    total = Tally()
    for part in (prime, base, traced):
        total.add(part)
    return metrics, total


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gtrig = load_gtrig()
    wl = WORKLOADS[args.workload](gtrig, args.seed)
    wl.warm()
    probes = Probes(args.workload, args.seconds)

    if args.trace:
        metrics, tally = per_layer(gtrig, wl, probes.finish(), args.seed)
        units = declared_units("per_layer")
    else:
        tally = run_rounds(wl, 0, seconds=args.seconds, probes=probes)
        metrics = end_to_end(probes.finish(), tally, wl)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    result = {
        # an op that raised or failed a check makes the run incorrect
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}  attempted = {result['attempted']}  failed = {result['failed']}"
          f"  correct = {result['correct']}")
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
