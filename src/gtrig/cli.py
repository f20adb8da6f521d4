"""Command line front end.

Subcommands::

    gtrig pi     --p 2 --q 4                          print pi_pq
    gtrig eval   --p 2 --q 3 --fn sin --x 1.0         evaluate one function
    gtrig table  --p 2 --q 2 --fn sin --from 0 --to 1 --step 0.5
    gtrig verify --identity dbl-2-3 --samples 1000    sweep identities
    gtrig verify --all --format json

Exit codes: 0 success / all identities pass, 1 identity verification failure,
2 usage or domain error, 3 file I/O failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import nullcontext
from typing import Optional

import click
import numpy as np

from . import identities
from .errors import GtrigError, UnknownIdentityError
from .functions import ParamPair, arcsin_pq, cos_pq, pi_pq, sin_pq

__all__ = ["cli", "main"]

_FUNCTIONS = {
    "sin": lambda pp, x: sin_pq(pp, x).value,
    "cos": lambda pp, x: cos_pq(pp, x).value,
    "arcsin": arcsin_pq,
}

_TABLE_CHUNK = 1024  # rows a table evaluates in one array call

# --format -> (head, row from x and its value, separator, tail) of a streamed table
_TABLE_FORMATS = {
    "csv": ("x,value\n", lambda x, v: f"{x!r},{v!r}\n", "", ""),
    # json.dumps's bytes for finite floats, which every table value is
    "json": ("[", lambda x, v: f'{{"x": {x!r}, "value": {v!r}}}', ", ", "]\n"),
}


class _Group(click.Group):
    """A group whose ``invoke`` alone maps errors to a message and exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except UnknownIdentityError as exc:
            message, code = f"unknown identity {exc}", 2
        except GtrigError as exc:
            message, code = str(exc), 2
        except BrokenPipeError:
            raise  # a closed stdout: click's main exits 1 quietly
        except OSError as exc:
            message, code = str(exc), 3
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Group)
def cli() -> None:
    """Generalized trigonometric functions and their identity verifier."""


@cli.command("pi")
@click.option("--p", type=float, required=True, help="First exponent, > 1.")
@click.option("--q", type=float, required=True, help="Second exponent, > 1.")
def cmd_pi(p: float, q: float) -> None:
    """Print the generalized circle constant pi_pq to 17 significant digits."""
    value = pi_pq(ParamPair(p, q))
    click.echo(f"{value:.17g}")


@cli.command("eval")
@click.option("--p", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--fn", type=click.Choice(list(_FUNCTIONS)), required=True)
@click.option("--x", type=float, required=True)
def cmd_eval(p: float, q: float, fn: str, x: float) -> None:
    """Evaluate sin, cos, or arcsin for the pair (p, q) at a point."""
    value = _FUNCTIONS[fn](ParamPair(p, q), x)
    click.echo(f"{value:.17g}")


@cli.command("table")
@click.option("--p", type=float, required=True)
@click.option("--q", type=float, required=True)
@click.option("--fn", type=click.Choice(list(_FUNCTIONS)), required=True)
@click.option("--from", "start", type=float, required=True)
@click.option("--to", "stop", type=float, required=True)
@click.option("--step", type=float, required=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(list(_TABLE_FORMATS)),
    default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_table(
    p: float,
    q: float,
    fn: str,
    start: float,
    stop: float,
    step: float,
    fmt: str,
    out: Optional[str],
) -> None:
    """Evaluate a function on a uniform grid; write CSV or JSON.

    Numbers are printed in shortest round-trip decimal form, so re-parsing a
    table reproduces the evaluated values bit for bit.
    """
    pp = ParamPair(p, q)
    if not (start < stop and math.isfinite(stop - start)):
        raise GtrigError(f"need from < to, to - from finite, got [{start}, {stop}]")
    if not (0.0 < step <= stop - start and (stop - start) / step < math.inf):
        raise GtrigError(f"need 0 < step <= to - from, finitely many rows, got {step}")
    if fn == "arcsin" and not (0.0 <= start and stop <= 1.0):
        raise GtrigError("arcsin tables require [from, to] within [0, 1]")
    head, row, sep, tail = _TABLE_FORMATS[fmt]
    n = int((stop - start) / step + 1e-9) + 1
    lines = (row(x, v) for x, v in _table_rows(_FUNCTIONS[fn], pp, start, stop, step, n))
    first = next(lines)  # before --out is opened: a pair that fails leaves it as it was
    sink = nullcontext(sys.stdout)
    if out is not None:
        sink = open(out, "w", encoding="utf-8", newline="\n")
    with sink as handle:
        handle.write(head + first)
        for line in lines:
            handle.write(sep + line)
        handle.write(tail)
        handle.flush()  # a closed stdout fails here, inside click's broken-pipe rule


def _table_rows(fn, pp: ParamPair, start: float, stop: float, step: float, n: int):
    """(x, fn(pp, x)) for x = min(start + i*step, stop), i < n, as Python
    floats: each chunk of rows in one array call, bit for bit what scalar
    calls give.  The last row's start + i*step may round past stop."""
    for i in range(0, n, _TABLE_CHUNK):
        xs = np.minimum(start + np.arange(i, min(i + _TABLE_CHUNK, n)) * step, stop)
        try:
            values = fn(pp, xs).tolist()
        except GtrigError:
            # row by row, so that the rows before the failing one are written
            values = (fn(pp, x) for x in xs.tolist())
        yield from zip(xs.tolist(), values)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _report_lines(reports: list[identities.IdentityReport], fmt: str) -> str:
    if fmt == "json":
        payload = [
            {k: _json_safe(v) for k, v in dataclasses.asdict(rep).items()}
            for rep in reports
        ]
        return json.dumps(payload, indent=2) + "\n"
    header = f"{'identity':<16} {'samples':>8} {'max_abs_err':>13} {'argmax_x':>12} {'tol':>9} {'pass':>5} {'sec':>7}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        lines.append(
            f"{rep.identity_id:<16} {rep.samples:>8} {rep.max_abs_err:>13.3e} "
            f"{rep.argmax_x:>12.6g} {rep.tol:>9.1e} {str(rep.passed):>5} {rep.elapsed:>7.2f}"
        )
    return "\n".join(lines) + "\n"


@cli.command("verify")
@click.option("--identity", "identity_id", type=str, default=None)
@click.option("--all", "run_all", is_flag=True, help="Verify the whole catalog.")
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json"]),
    default="table",
    show_default=True,
)
@click.option(
    "--perturb",
    type=float,
    default=0.0,
    help="Add a constant to every right-hand side (engine sensitivity check).",
)
@click.option("--list-identities", "list_ids", is_flag=True)
def cmd_verify(
    identity_id: Optional[str],
    run_all: bool,
    samples: int,
    tol: float,
    seed: int,
    fmt: str,
    perturb: float,
    list_ids: bool,
) -> None:
    """Verify one identity (or the whole catalog) and report max |lhs - rhs|."""
    if list_ids:
        for name in identities.identity_ids():
            click.echo(name)
        return
    if run_all == (identity_id is not None):
        raise GtrigError("exactly one of --identity or --all is required")
    ids = sorted(identities.identity_ids()) if run_all else [identity_id]
    reports = [
        identities.verify(name, samples, tol, seed, rhs_offset=perturb)
        for name in ids
    ]
    click.echo(_report_lines(reports, fmt), nl=False)
    if not all(rep.passed for rep in reports):
        sys.exit(1)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
