"""The three workloads: how each makes its inputs, calls gtrig, and checks
what came back.

A workload is driven one round at a time.  A round is a fixed list of
operations made from ``(seed, round index)`` alone, so every run attempts
whole rounds of the same kinds of operation and the same seed always gives
the same inputs.  ``call`` is the only code inside the timed region; every
check runs afterwards, against mpmath closed forms (``oracle``), ``math``,
or properties the functions must have.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

import oracle

# Absolute error allowed on top of the conditioning of the argument; ten
# times the library's own quadrature and root tolerances (1e-13).
VALUE_TOL = 1e-12
# |c|**p + |s|**q - 1, and the arcsin round trip.
PROPERTY_TOL = 1e-12
# Relative error of pi_pq against (2/q) B(1/q, 1 - 1/p).
PI_REL_TOL = 1e-12
# Per-axis grid of the two-argument sweep (lemniscate-add), as documented by
# the sweep engine: a uniform grid plus seeded random pairs, both kept where
# u + v stays inside the domain.
TWO_ARG_GRID = 32
# The catalog ids verify-catalog runs, in catalog order: the paper's two new
# double-angle formulas (dbl-2-3, dbl-4:3-2), the classic one (dbl-2-2), the
# one Edmunds, Gurka and Lang found in 2012 (dbl-4:3-4), and the one
# two-argument sweep (lemniscate-add).  At the CLI's 1000 samples these take
# about 8-10 s a round; the whole catalog takes about 70 s, more than a run.
VERIFY_IDS = ("dbl-2-2", "dbl-4:3-4", "dbl-2-3", "dbl-4:3-2", "lemniscate-add")


@dataclass
class Record:
    """One attempted operation: its input, what it returned (or raised) and
    its duration in nanoseconds."""

    op: tuple
    out: Any
    ns: int
    error: bool = False


def _rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, round_index])


class EvalWarm:
    """Single warm calls to sin_cos, sin_pq, cos_pq and arcsin_pq.

    Per pair and round: 8 arguments, each sent to sin_cos, sin_pq and
    cos_pq (4 uniform over three periods either side of 0, 2 within
    1e-12..1e-3 of a quarter-period point, 2 within 1e-12..1e-1 of 0), and 8
    arcsin_pq arguments (4 uniform on [0, 1], 2 near 0, 2 near 1).  Eight
    pairs make 256 operations a round, shuffled.
    """

    name = "eval-warm"
    first_calls = False
    repeats_ops = False
    rss_rounds = 16
    block_rounds = 16  # 4096 ops, about a second

    def __init__(self, gtrig, seed: int) -> None:
        self.g = gtrig
        self.seed = seed
        self.pairs = [gtrig.ParamPair(p, q) for p, q in gtrig.PQ_PANEL]
        self.pairs.append(gtrig.ParamPair(2.0, 2.0))
        # quarter periods pi_pq/2 from the closed form, so that inputs do not
        # depend on gtrig
        self.quarter = [0.5 * oracle.pi_pq(pp.p, pp.q) for pp in self.pairs]
        self.fns = {
            "sin_cos": gtrig.sin_cos,
            "sin_pq": gtrig.sin_pq,
            "cos_pq": gtrig.cos_pq,
            "arcsin_pq": gtrig.arcsin_pq,
        }

    def warm(self) -> None:
        for pp in self.pairs:
            self.g.sin_cos(pp, 0.5)

    def round_ops(self, r: int) -> list[tuple]:
        """Operations (kind, pair index, argument, round, slot); sin_cos,
        sin_pq and cos_pq share each (round, pair, slot) argument."""
        rng = _rng(self.seed, r)
        ops = []
        for i, quarter in enumerate(self.quarter):
            xs = list(rng.uniform(-12.0 * quarter, 12.0 * quarter, 4))
            for _ in range(2):
                m = int(rng.integers(-6, 6))
                off = 10.0 ** rng.uniform(-12.0, -3.0) * rng.choice((-1.0, 1.0))
                xs.append((2 * m + 1) * quarter + off * quarter)
            for _ in range(2):
                xs.append(10.0 ** rng.uniform(-12.0, -1.0) * rng.choice((-1.0, 1.0)))
            for j, x in enumerate(xs):
                for kind in ("sin_cos", "sin_pq", "cos_pq"):
                    ops.append((kind, i, float(x), r, j))
            ss = list(rng.uniform(0.0, 1.0, 4))
            ss += list(10.0 ** rng.uniform(-12.0, -1.0, 2))
            ss += list(1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 2))
            ops.extend(("arcsin_pq", i, float(s), r, j) for j, s in enumerate(ss))
        order = rng.permutation(len(ops))
        return [ops[k] for k in order]

    def call(self, op: tuple) -> Any:
        return self.fns[op[0]](self.pairs[op[1]], op[2])

    def span_name(self, op: tuple) -> str:
        return "functions." + op[0]

    def check(self, records: list[Record], deep: bool) -> set[int]:
        """Every op: the Pythagorean property (sin_cos alone, sin_pq with the
        cos_pq of the same argument), math.sin/math.cos on (2, 2), arcsin in
        [0, pi_pq/2].  With ``deep`` (the first round of a pass): sin_cos and
        arcsin_pq against the oracle, and sin_pq(arcsin_pq(s)) = s."""
        bad: set[int] = set()
        pairs_sc: dict[tuple, dict[str, int]] = {}
        for k, rec in enumerate(records):
            if rec.error:
                continue
            kind, i, arg, r, j = rec.op
            pp = self.pairs[i]
            if kind == "arcsin_pq":
                ok = 0.0 <= rec.out <= self.quarter[i] * (1.0 + 1e-14)
                if ok and deep:
                    ok = self._arcsin_ok(pp, arg, rec.out)
            elif kind == "sin_cos":
                ok = self._property_ok(pp, arg, *rec.out)
                if ok and deep:
                    ok = self._oracle_ok(i, arg, rec.out)
            else:
                pairs_sc.setdefault((r, i, j), {})[kind] = k
                ok = True
            if not ok:
                bad.add(k)
        for (r, i, j), kinds in pairs_sc.items():
            if len(kinds) < 2:
                continue
            ks, kc = kinds["sin_pq"], kinds["cos_pq"]
            s, c = records[ks].out.value, records[kc].out.value
            if not self._property_ok(self.pairs[i], records[ks].op[2], s, c):
                bad.update((ks, kc))
        return bad

    @staticmethod
    def _property_ok(pp, x: float, s: float, c: float) -> bool:
        """|c|**p + |s|**q = 1, and math.sin/math.cos on (2, 2)."""
        if abs(abs(c) ** pp.p + abs(s) ** pp.q - 1.0) > PROPERTY_TOL:
            return False
        if pp.p == 2.0 and pp.q == 2.0:
            slack = VALUE_TOL + 8.0 * 2.0**-52 * max(abs(x), math.pi)
            return abs(s - math.sin(x)) <= slack and abs(c - math.cos(x)) <= slack
        return True

    def _arcsin_ok(self, pp, s: float, f: float) -> bool:
        if abs(f - oracle.arcsin_pq(pp.p, pp.q, s)) > VALUE_TOL * max(1.0, f):
            return False
        return abs(self.g.sin_pq(pp, f).value - s) <= PROPERTY_TOL

    def _oracle_ok(self, i: int, x: float, out: tuple[float, float]) -> bool:
        pp = self.pairs[i]
        exact, bounds = oracle.sin_cos_with_bounds(
            pp.p, pp.q, x, 2.0 * self.quarter[i], VALUE_TOL
        )
        return all(abs(out[k] - exact[k]) <= bounds[k] for k in (0, 1))

    def direct_split(self, records: list[Record]) -> tuple[list[int], list[int]]:
        """Durations of warm sin_pq/cos_pq calls whose reduced argument lies
        in the lower half of the quarter period (a direct solve) and in the
        upper half (a solve in the complement)."""
        direct, complement = [], []
        for rec in records:
            if rec.error or rec.op[0] not in ("sin_pq", "cos_pq"):
                continue
            lower = rec.out.reduced_x <= 0.5 * self.quarter[rec.op[1]]
            (direct if lower else complement).append(rec.ns)
        return direct, complement

    def points(self, rec: Record) -> int:
        return 1


class VerifyCatalog:
    """``gtrig verify --identity <id> --format json`` for each of
    ``VERIFY_IDS`` in catalog order, in-process, at the CLI's default of
    1000 samples (the count the claims are checked with) and the run's
    seed."""

    name = "verify-catalog"
    first_calls = False
    repeats_ops = True  # every round is the same commands
    # at least three rounds, so that each id's median time is a median of
    # three and one round caught in a burst of machine slowness cannot set it
    rss_rounds = 3
    block_rounds = 1
    SAMPLES = 1000

    def __init__(self, gtrig, seed: int) -> None:
        from click.testing import CliRunner

        import gtrig.cli

        self.g = gtrig
        self.seed = seed % 2**32
        self.cli = gtrig.cli.cli
        self.runner = CliRunner()
        self.ids = [i for i in gtrig.identity_ids() if i in VERIFY_IDS]
        if len(self.ids) != len(VERIFY_IDS):
            raise SystemExit(f"error: catalog lacks {set(VERIFY_IDS) - set(self.ids)}")
        self.expected = {i: self._expected_samples(i) for i in self.ids}

    def _expected_samples(self, identity_id: str) -> int:
        """Sweep points the engine defines for an id: a grid plus as many
        seeded random points per instance (pairs kept where u + v fits)."""
        total = 0
        for spec in self.g.identity_specs(identity_id):
            if spec.arity == 1:
                total += 2 * self.SAMPLES
                continue
            lo, hi = spec.domain
            width = hi - lo
            lo_eff = lo if spec.closed_lo else lo + spec.inset * width
            hi_eff = hi if spec.closed_hi else hi - spec.inset * width
            axis = np.linspace(lo_eff, hi_eff, TWO_ARG_GRID)
            total += int(np.count_nonzero(np.add.outer(axis, axis) <= hi_eff))
            rng = np.random.default_rng(self.seed)
            ru = rng.uniform(lo_eff, hi_eff, self.SAMPLES)
            rv = rng.uniform(lo_eff, hi_eff, self.SAMPLES)
            total += int(np.count_nonzero(ru + rv <= hi_eff))
        return total

    def warm(self) -> None:
        for identity_id in self.ids:
            self.g.verify(identity_id, samples=2, seed=0)

    def round_ops(self, r: int) -> list[tuple]:
        return [(identity_id,) for identity_id in self.ids]

    def call(self, op: tuple) -> Any:
        args = ["verify", "--identity", op[0], "--samples", str(self.SAMPLES),
                "--seed", str(self.seed), "--format", "json"]
        result = self.runner.invoke(self.cli, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        return result.exit_code, result.stdout

    def span_name(self, op: tuple) -> str:
        return "cli.verify"

    def report(self, rec: Record) -> dict:
        return json.loads(rec.out[1])[0]

    def check(self, records: list[Record], deep: bool) -> set[int]:
        bad: set[int] = set()
        for k, rec in enumerate(records):
            if rec.error:
                continue
            code, _ = rec.out
            try:
                rep = self.report(rec)
            except (ValueError, IndexError, KeyError):
                bad.add(k)
                continue
            ok = (
                code == 0
                and rep.get("identity_id") == rec.op[0]
                and rep.get("passed") is True
                and rep.get("samples") == self.expected[rec.op[0]]
            )
            if not ok:
                bad.add(k)
        return bad

    def points(self, rec: Record) -> int:
        return self.report(rec)["samples"]


class PairsCold:
    """The first sin_cos on never-seen (p, q) pairs.

    32 pairs a round, p log-uniform on [1.05, 1000] and q log-uniform on
    (1, 1000] (stratified, see ``round_ops``), x uniform on [-4, 4].  The draws are doubles from a 53-bit
    generator, so no pair repeats within a run.  p in (1, 1.05) is left out:
    there pi_pq raises (see CHANGES.md).
    """

    name = "pairs-cold"
    first_calls = True
    repeats_ops = False
    # 3072 new pairs before peak_rss_mb is read: at about 2 KB a pair their
    # caches then make an eighth of the process's RSS, so that a doubling of
    # the per-pair footprint moves it by more than its bound
    rss_rounds = 96
    # one round a block: its 99th percentile is then close to the round's
    # slowest pair, and the median over ~100 rounds ignores sporadic stalls,
    # which set the 99th percentile of bigger blocks
    block_rounds = 1
    PAIRS = 32
    P_MIN = 1.05
    LIMIT = 1000.0

    def __init__(self, gtrig, seed: int) -> None:
        self.g = gtrig
        self.seed = seed

    def warm(self) -> None:
        pass

    def round_ops(self, r: int) -> list[tuple]:
        """A Latin hypercube in (log p, log q): each of the 32 strata of each
        axis holds one pair, so every round spans the envelope alike."""
        rng = _rng(self.seed, r)
        log_p = math.log(self.P_MIN)
        width_p = math.log(self.LIMIT) - log_p
        width_q = math.log(self.LIMIT)
        strata_q = rng.permutation(self.PAIRS)
        ops = []
        for k in range(self.PAIRS):
            p = math.exp(log_p + width_p * (k + rng.uniform()) / self.PAIRS)
            # 1 - uniform() lies in (0, 1], so q > 1
            q = math.exp(width_q * (strata_q[k] + 1.0 - rng.uniform()) / self.PAIRS)
            ops.append((p, q, float(rng.uniform(-4.0, 4.0))))
        order = rng.permutation(self.PAIRS)
        return [ops[k] for k in order]

    def call(self, op: tuple) -> Any:
        return self.g.sin_cos(self.g.ParamPair(op[0], op[1]), op[2])

    def span_name(self, op: tuple) -> str:
        return "functions.sin_cos"

    def check(self, records: list[Record], deep: bool) -> set[int]:
        bad: set[int] = set()
        for k, rec in enumerate(records):
            if rec.error:
                continue
            p, q, _ = rec.op
            s, c = rec.out
            if abs(abs(c) ** p + abs(s) ** q - 1.0) > PROPERTY_TOL:
                bad.add(k)
                continue
            pi = self.g.pi_pq(self.g.ParamPair(p, q))
            exact = oracle.pi_pq(p, q)
            if abs(pi - exact) > PI_REL_TOL * exact:
                bad.add(k)
        return bad

    def points(self, rec: Record) -> int:
        return 1


WORKLOADS = {cls.name: cls for cls in (EvalWarm, VerifyCatalog, PairsCold)}
