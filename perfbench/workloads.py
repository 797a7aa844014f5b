"""Benchmark workloads, their seeded inputs and the correctness gate.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the seed.

* ``point_model``: the interactive ``twistqkd keyrate`` use.  One operation
  builds both parties' model ensembles and evaluates one distinct point.
  Every fourth point is pure (depol = 0), so the rank-deficient twist path
  is timed too.  Consecutive points share no work, so per-point fixed costs
  count in full and batching or caching should gain nothing here.
* ``scan_sweep``: the paper-figure use.  One operation is a full pass over a
  delta x depol x distance grid, ``scan`` then ``scan_to_csv``.  Each
  ensemble is shared by every distance of the fine distance axis, which is
  the property a batched pipeline exploits.
* ``point_asym``: characterised arbitrary sources.  Alice and Bob hold
  distinct generic ensembles with unequal priors, from a stream shared by
  all seeds; the seed draws the distances.  Detection statistics are
  computed before each operation's clock starts and injected, so
  ``detection_stats`` is off the timed path and no model structure is
  shared between points.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

WORKLOADS = ("point_model", "scan_sweep", "point_asym")

ETA = 0.5
P_DARK = 1e-5
PURE_EVERY = 4
ASYM_ENSEMBLE_SEED = 20071829
# The distance axis of the criterion-7 scan: 0 to 150 km in 10 km steps.
SCAN_DISTANCES = np.arange(0.0, 151.0, 10.0)

# Tolerance of the fixed reference points, the closed-form-vs-oracle
# tolerance the phase-error optimisation is held to.
REFERENCE_TOL = 1e-7
# rate_twisted may fall short of rate_naive by this much (solver tolerance).
RATE_ORDER_TOL = 1e-7


@dataclass
class Op:
    """One benchmark operation: ``run`` evaluates ``points`` key-rate points
    and returns the program's output, which ``outcomes`` then checks.

    ``run`` is pure, so it can be repeated.  It takes one argument,
    ``timed(fn, *args)``, through which it calls ``keyrate_point`` when it
    calls it directly, so that the caller can time that call without a
    wrapper; ``scan`` calls ``keyrate_point`` itself and passes nothing.
    """

    params: dict
    points: int
    run: Callable[[Callable], object]
    outcomes: Callable[[object], list]


def untimed(fn, *args, **kwargs):
    """The ``timed`` argument of :attr:`Op.run` that only calls ``fn``."""
    return fn(*args, **kwargs)


def bloch_state(tq, r, prob: float):
    pauli = (
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    rho = 0.5 * (pauli[0] + r[0] * pauli[1] + r[1] * pauli[2] + r[2] * pauli[3])
    return tq.QubitState(rho=rho, prob=prob)


def generic_ensemble(tq, rng):
    """Four states with random Bloch vectors of length 0.2 to 0.95 and
    unequal priors bounded away from zero."""
    priors = 0.5 * rng.dirichlet(np.full(4, 4.0)) + 0.125
    states = []
    for prior in priors:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        states.append(bloch_state(tq, rng.uniform(0.2, 0.95) * direction, prior))
    return tq.SignalEnsemble(states=tuple(states))


def asym_pair(tq, rng, distance_rng=None):
    """One point of ``point_asym``: two ensembles drawn from ``rng``, a
    channel whose distance is drawn from ``distance_rng`` (default ``rng``)
    and the detection statistics they give."""
    alice = generic_ensemble(tq, rng)
    bob = generic_ensemble(tq, rng)
    distance = (rng if distance_rng is None else distance_rng).uniform(0.0, 150.0)
    channel = tq.ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=distance)
    return alice, bob, channel, tq.detection_stats(alice, bob, channel)


def check_result(result) -> str | None:
    """Why an ``ok`` result is wrong, or None when it passes the gate."""
    r = result
    if not (0.0 <= r.e_minus <= r.e_z <= r.e_plus <= 1.0):
        return (
            f"phase errors break 0 <= e_minus <= e_z <= e_plus <= 1: "
            f"{r.e_minus!r}, {r.e_z!r}, {r.e_plus!r}"
        )
    if not r.rate_twisted >= r.rate_naive - RATE_ORDER_TOL:
        return f"rate_twisted {r.rate_twisted!r} < rate_naive {r.rate_naive!r}"
    return None


def _outcome(result) -> tuple:
    """(status, error class, message) of one ``ok`` point after the gate."""
    reason = check_result(result)
    return ("ok", None, None) if reason is None else ("failed", "GateViolation", reason)


def _point_outcomes(result) -> list:
    return [_outcome(result)]


def _model_ops(tq, rng) -> Iterator[Op]:
    for index in itertools.count():
        delta = float(rng.uniform(0.0, 0.2))
        depol = 0.0 if index % PURE_EVERY == 0 else float(rng.uniform(0.0, 0.1))
        distance = float(rng.uniform(0.0, 150.0))

        def run(timed=untimed, delta=delta, depol=depol, distance=distance):
            params = tq.ModelParams(delta=delta, depol=depol)
            alice = tq.model_states(params)
            bob = tq.model_states(params)
            channel = tq.ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=distance)
            return timed(tq.keyrate_point, alice, bob, channel)

        yield Op({"delta": delta, "depol": depol, "distance_km": distance}, 1, run, _point_outcomes)


def _asym_ops(tq, rng) -> Iterator[Op]:
    # Each pair is made, and its statistics computed, when the loop takes
    # the operation, before its clock starts.  No pair repeats, so a cache
    # keyed on the inputs can never hit.  The ensembles come from one stream
    # that every seed shares (common random numbers) and the seed draws the
    # distances: which generic pairs fail is hardly predictable from their
    # parameters, so with about 95 points in a run, seeded ensembles would
    # move the failure share by about 5 points from seed to seed.
    ensembles = np.random.default_rng(ASYM_ENSEMBLE_SEED)
    for index in itertools.count():
        alice, bob, channel, stats = asym_pair(tq, ensembles, rng)

        def run(timed=untimed, alice=alice, bob=bob, channel=channel, stats=stats):
            return timed(tq.keyrate_point, alice, bob, channel, stats=stats)

        yield Op({"pair": index, "distance_km": channel.distance_km}, 1, run, _point_outcomes)


def _csv_mismatch(rows, path) -> str | None:
    with open(path, newline="") as fh:
        written = list(csv.DictReader(fh))
    if len(written) != len(rows):
        return f"CSV has {len(written)} rows, scan returned {len(rows)}"
    for row, line in zip(rows, written):
        rate = row.result.rate_twisted if row.result is not None else math.nan
        if line["status"] != row.status or line["rate_twisted"] != f"{rate:.12g}":
            return f"CSV row {line} does not match scan row {row.status}, {rate!r}"
    return None


def _scan_ops(tq, rng, csv_path) -> Iterator[Op]:
    config = tq.ScanConfig(
        deltas=[float(rng.uniform(0.0, 0.2))],
        # One depol from each half of [0, 0.1], so that passes on different
        # seeds mix noise levels alike.
        depols=[float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.05, 0.1))],
        distances=SCAN_DISTANCES,
        eta=ETA,
        p_dark=P_DARK,
    )
    typed = {
        name for name, value in vars(tq.errors).items()
        if isinstance(value, type) and issubclass(value, tq.errors.QkdError)
    }

    def run(timed=untimed):
        rows = tq.scan(config)
        tq.scan_to_csv(rows, csv_path)
        return rows

    def outcomes(rows) -> list:
        mismatch = _csv_mismatch(rows, csv_path)
        result = []
        for row in rows:
            if mismatch is not None:
                result.append(("failed", "CsvMismatch", mismatch))
            elif row.status == "ok":
                result.append(_outcome(row.result))
            else:
                # The row status names the error class; the message is kept
                # only if the row carries one.
                error = row.status.split(":")[0]
                status = "rejected" if error in typed else "failed"
                result.append((status, error, getattr(row, "error", "")))
        return result

    params = {"deltas": config.deltas, "depols": config.depols,
              "distances_km": config.distances.tolist()}
    points = len(config.deltas) * len(config.depols) * config.distances.size
    while True:
        yield Op(params, points, run, outcomes)


def build(tq, name: str, seed: int, csv_path: str) -> Iterator[Op]:
    """The seeded operation stream of workload ``name``; it is built, and
    its up-front inputs computed, before the first operation is taken."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "point_model":
        ops = _model_ops(tq, rng)
    elif name == "point_asym":
        ops = _asym_ops(tq, rng)
    else:
        ops = _scan_ops(tq, rng, csv_path)
    first = next(ops)
    return itertools.chain([first], ops)


# Values computed at the commit that introduced the benchmark.  A later
# change to the program must reproduce them to REFERENCE_TOL.
REFERENCE_SEED = 20200920
REFERENCES = {
    "ideal": {
        "p_det00": 0.0625,
        "e_z": 0.0,
        "e_minus": 0.0,
        "e_plus": 8.539842166754852e-10,
        "rate_twisted": 0.06249999913086378,
        "rate_naive": 0.0625,
    },
    "model_d0.1_p0.05_50km": {
        "p_det00": 0.0015666567250277297,
        "e_z": 0.051080450102665965,
        "e_minus": 0.050889210916773,
        "e_plus": 0.05128150852608948,
        "rate_twisted": 0.0011069279909179843,
        "rate_naive": 0.0010859907899587562,
    },
    "asym_seeded": {
        "p_det00": 0.01214301773419521,
        "e_z": 0.46121441336322755,
        "e_minus": 0.4612007641490836,
        "e_plus": 0.4615533525474068,
        "rate_twisted": 2.4400584673694323e-05,
        "rate_naive": 0.0,
    },
}


def reference_inputs(tq, name: str):
    """Ensembles, channel and injected statistics of a reference point."""
    if name == "ideal":
        ens = tq.model_states(tq.ModelParams(delta=0.0, depol=0.0))
        return ens, ens, tq.ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0), None
    if name == "model_d0.1_p0.05_50km":
        ens = tq.model_states(tq.ModelParams(delta=0.1, depol=0.05))
        return ens, ens, tq.ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=50.0), None
    return asym_pair(tq, np.random.default_rng(REFERENCE_SEED))


def check_references(tq) -> list:
    """Mismatches of the fixed reference points, as readable strings."""
    problems = []
    for name, expected in REFERENCES.items():
        alice, bob, channel, stats = reference_inputs(tq, name)
        try:
            result = tq.keyrate_point(alice, bob, channel, stats=stats)
        except tq.errors.QkdError as exc:
            problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        for key, want in expected.items():
            got = getattr(result, key)
            if not abs(got - want) <= REFERENCE_TOL:
                problems.append(f"{name}: {key} = {got!r}, expected {want!r}")
    return problems
