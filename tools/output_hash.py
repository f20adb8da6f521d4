"""Print one SHA-256 line over gtrig's outputs on a fixed set of valid inputs.

    PYTHONPATH=<tree>/src python3 tools/output_hash.py

Two trees that print the same line give the same bits on every input below,
so a change meant to keep the values can be checked against its parent.  The
line of the current tree is pinned in ``tools/output_hash.expected``, which CI
compares with the output; a change meant to move values updates it.
Hashed, on the pairs of ``PQ_PANEL`` and (2, 2), (1.05, 1000), (1000, 1.05):

* ``sin_pq``, ``cos_pq`` (value, quadrant, reduced_x) and ``sin_cos``, one
  scalar call per point and one array call over all of them, at 0, +-0.0,
  subnormals, every k pi_pq/2 for |k| <= 12 with both float neighbours, and
  seeded random points;
* ``arcsin_pq``, scalar and array, at 0, subnormals, 1 and its lower
  neighbour, and seeded random points in [0, 1];
* every ``IdentityReport`` field except ``elapsed``, for each catalog id at
  two seeds and the command line's default of 1000 samples;
* ``gtrig.numerics``: ``log_gamma``, ``beta`` and ``agm``, the ``value``,
  ``error_estimate`` and ``evaluations`` of ``integrate_endpoint_singular``,
  and ``solve_increasing`` with and without ``deriv``, ``f_lo`` and ``f_hi``,
  on Python and numpy ints and floats.  These are hashed by float value,
  which keeps every bit but not the type: older trees returned a numpy scalar
  where the argument was one.

Only the public API is used, so the script runs against older trees too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from gtrig import ParamPair, arcsin_pq, cos_pq, pi_pq, sin_cos, sin_pq
from gtrig.identities import PQ_PANEL, identity_ids, verify
from gtrig.numerics import agm, beta, integrate_endpoint_singular, log_gamma, solve_increasing

PAIRS = (*PQ_PANEL, (2.0, 2.0), (1.05, 1000.0), (1000.0, 1.05))
SUBNORMALS = (5e-324, 1e-320, 2.5e-311, 2.2250738585072009e-308)
RANDOM_POINTS = 64
SEEDS = (0, 7)
SAMPLES = 1000


def _arguments(pp: ParamPair, rng: np.random.Generator) -> list[float]:
    xs = [0, 0.0, -0.0, *SUBNORMALS, *(-v for v in SUBNORMALS)]
    half = 0.5 * pi_pq(pp)
    for k in range(-12, 13):
        x = k * half
        xs += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return xs + rng.uniform(-13.0 * half, 13.0 * half, RANDOM_POINTS).tolist()


def _sines(rng: np.random.Generator) -> list[float]:
    ss = [0, 0.0, *SUBNORMALS, math.nextafter(1.0, 0.0), 1.0, 1]
    return ss + rng.uniform(0.0, 1.0, RANDOM_POINTS).tolist()


def _feed(digest, value) -> None:
    """Add one result: arrays by dtype, shape and bytes, the rest by repr,
    which keeps every bit of a float and its type."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(repr(value).encode())
    digest.update(b"\n")


def _function_values(digest, pp: ParamPair, xs: list[float], ss: list[float]) -> None:
    array = np.array([float(x) for x in xs])
    for x in (*xs, array):
        for fn in (sin_pq, cos_pq):
            fv = fn(pp, x)
            for v in (fv.value, fv.quadrant, fv.reduced_x):
                _feed(digest, v)
        for v in sin_cos(pp, x):
            _feed(digest, v)
    for s in (*ss, np.array([float(s) for s in ss])):
        _feed(digest, arcsin_pq(pp, s))


def _reports(digest) -> None:
    for seed in SEEDS:
        for identity_id in identity_ids():
            report = verify(identity_id, samples=SAMPLES, seed=seed)
            for field in dataclasses.fields(report):
                if field.name != "elapsed":
                    _feed(digest, (field.name, getattr(report, field.name)))


def _numerics(digest, rng: np.random.Generator) -> None:
    """Numpy ints go to agm and the quadrature only: older trees rejected
    them in log_gamma and beta."""
    for x in (1, 3, 0.5, 1e-300, 170.5, np.float64(2.5), *rng.uniform(0.01, 50.0, 16).tolist()):
        _feed(digest, float(log_gamma(x)))
    for a, b in ((1, 2), (0.5, 0.5), (np.float64(1.0 / 3.0), 2.5), (1e-3, 700.0)):
        _feed(digest, float(beta(a, b)))
    for a, b in ((1, 2), (1.0, 2.0**0.5), (np.int64(3), np.float64(7.25)), (1e-100, 1e100)):
        _feed(digest, float(agm(a, b)))

    def arcsine(u):
        return 1.0 / np.sqrt(u * (2.0 - u))

    def pi_integrand(u):
        return np.power(-np.expm1(3.0 * np.log1p(-u)), -0.5)

    quads = (
        (arcsine, 0, 1, {}),
        (arcsine, np.int64(0), np.float64(1.0), {"tol": 1e-8}),
        (pi_integrand, 0.0, 1.0, {"tol": np.float64(1e-13), "max_evals": np.int64(2**16)}),
        (np.exp, -1, 2.5, {"max_evals": 10**6}),
    )
    for integrand, lower, upper, kwargs in quads:
        result = integrate_endpoint_singular(integrand, lower, upper, **kwargs)
        for v in (float(result.value), float(result.error_estimate), result.evaluations):
            _feed(digest, v)

    def f(s):
        return s**3 + s

    def df(s):
        return 3.0 * s * s + 1.0

    targets = [0.0, 2.0, *rng.uniform(0.0, 2.0, 32).tolist()]
    for target in targets:
        for deriv, ends, tol, max_iter in (
            (None, {}, 1e-13, 100),
            (df, {}, 1e-13, np.int64(100)),
            (df, {"f_lo": 0.0, "f_hi": 2}, np.float64(1e-10), 100),
            (None, {"f_lo": 0, "f_hi": 2.0}, 1e-8, 60),
        ):
            _feed(digest, float(solve_increasing(f, 0, 1, target, deriv, tol, max_iter, **ends)))


def main() -> None:
    digest = hashlib.sha256()
    rng = np.random.default_rng(20190422)
    for p, q in PAIRS:
        pp = ParamPair(p, q)
        _feed(digest, (p, q))
        _function_values(digest, pp, _arguments(pp, rng), _sines(rng))
    _reports(digest)
    _numerics(digest, rng)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
