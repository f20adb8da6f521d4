"""Spans and counts for the traced run, recorded from outside gtrig.

``patched`` rebinds module attributes of gtrig for the duration of a
``with`` block, so that calls across layer boundaries open spans:

* ``gtrig.functions.integrate_endpoint_singular``  -> ``numerics.quad``
* ``gtrig.functions.solve_increasing``             -> ``numerics.solve``
  (its ``f`` is wrapped to count root iterations)
* ``gtrig.functions.pi_pq``, ``gtrig.identities.pi_pq`` -> ``functions.pi_pq``
* ``gtrig.identities.sin_cos`` / ``sin_pq``        -> ``functions.*``, each
  one inversion made by the sweep engine
* ``gtrig.identities.verify``                      -> ``identities.verify``
* ``gtrig.identities.identity_specs``              -> ``identities.specs``

The benchmark itself opens the outermost span of each operation
(``functions.<fn>`` or ``cli.verify``).  An attribute that gtrig no longer
has stops the traced run with an ``AttributeError``, rather than leaving its
counts at 0.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Spans (name, start ns, end ns, parent index) kept in memory, plus
    counters.  Single-threaded: the open spans form one stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.identity: list[str] = []  # ids of the verify calls now open

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self.stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, handle)


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result

    return wrapper


def _quad(tracer: Tracer, fn):
    def after(result) -> None:
        tracer.counts["quad_calls"] += 1
        tracer.counts["quad_nodes"] += result.evaluations

    return _wrap(tracer, "numerics.quad", fn, after)


def _solve(tracer: Tracer, fn):
    def wrapper(f, *args, **kwargs):
        def counted(s):
            tracer.counts["solve_fevals"] += 1
            return f(s)

        tracer.counts["solve_calls"] += 1
        idx = tracer.open("numerics.solve")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _inversion(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.counts["inversions"] += 1
        if tracer.identity:
            tracer.counts["inversions:" + tracer.identity[-1]] += 1
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _verify(tracer: Tracer, fn):
    def wrapper(identity_id, *args, **kwargs):
        tracer.identity.append(identity_id)
        idx = tracer.open("identities.verify")
        try:
            report = fn(identity_id, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.identity.pop()
        tracer.counts["verify_calls"] += 1
        tracer.counts["points"] += report.samples
        tracer.counts["points:" + identity_id] += report.samples
        return report

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, gtrig):
    """Rebind the layer-boundary attributes of gtrig; restore them on exit."""
    functions, identities = gtrig.functions, gtrig.identities
    plan = [
        (functions, "integrate_endpoint_singular", lambda f: _quad(tracer, f)),
        (functions, "solve_increasing", lambda f: _solve(tracer, f)),
        (functions, "pi_pq", lambda f: _wrap(tracer, "functions.pi_pq", f)),
        (identities, "pi_pq", lambda f: _wrap(tracer, "functions.pi_pq", f)),
        (identities, "sin_cos", lambda f: _inversion(tracer, "functions.sin_cos", f)),
        (identities, "sin_pq", lambda f: _inversion(tracer, "functions.sin_pq", f)),
        (identities, "verify", lambda f: _verify(tracer, f)),
        (identities, "identity_specs", lambda f: _wrap(tracer, "identities.specs", f)),
    ]
    saved = []
    try:
        for module, attr, make in plan:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, ids: list[str]) -> dict[str, float]:
    """Per-layer figures from the spans and counts of ``ops`` operations.

    A span's self time is its duration minus that of its children; a layer's
    self time is the sum over its spans.  Figures with no span or count to
    draw on read 0.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    has_quad_child = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name == "numerics.quad":
                has_quad_child[parent] = True
    self_ns: Counter = Counter()
    durations: dict[str, list[int]] = {}
    cold_pi: list[int] = []
    for k, (name, start, end, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[k]
        durations.setdefault(name, []).append(end - start)
        if name == "functions.pi_pq" and has_quad_child[k]:
            cold_pi.append(end - start)

    def layer_self(prefix: str) -> int:
        return sum(v for name, v in self_ns.items() if name.startswith(prefix))

    c = tracer.counts
    per_op = 1.0 / ops
    verify_calls = c["verify_calls"]
    cli_calls = len(durations.get("cli.verify", ()))
    metrics = {
        "numerics.quad_calls_per_op": c["quad_calls"] * per_op,
        "numerics.quad_nodes_per_op": c["quad_nodes"] * per_op,
        "numerics.quad_us_p50": _median(durations.get("numerics.quad", ())) / 1e3,
        "numerics.quad_self_ms_per_op": self_ns["numerics.quad"] * per_op / 1e6,
        "numerics.solve_fevals_per_call":
            c["solve_fevals"] / c["solve_calls"] if c["solve_calls"] else 0.0,
        "numerics.solve_self_us_per_op": self_ns["numerics.solve"] * per_op / 1e3,
        "functions.self_us_per_op": layer_self("functions.") * per_op / 1e3,
        "functions.pi_pq_cold_ms_p50": _median(cold_pi) / 1e6,
        "identities.inversions_per_point":
            c["inversions"] / c["points"] if c["points"] else 0.0,
        "identities.self_ms_per_call":
            layer_self("identities.") / verify_calls / 1e6 if verify_calls else 0.0,
        "identities.spec_build_ms_p50":
            _median(durations.get("identities.specs", ())) / 1e6,
        "cli.self_ms_per_call":
            self_ns["cli.verify"] / cli_calls / 1e6 if cli_calls else 0.0,
    }
    for identity_id in ids:
        points = c["points:" + identity_id]
        inversions = c["inversions:" + identity_id]
        metrics["identities.inversions_per_point." + metric_suffix(identity_id)] = (
            inversions / points if points else 0.0
        )
    return metrics


def metric_suffix(identity_id: str) -> str:
    """An identity id in the character set of metric names (':' -> '_')."""
    return identity_id.replace(":", "_")
