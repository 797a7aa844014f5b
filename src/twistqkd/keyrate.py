"""Full key-rate pipeline, six-state rate formula, and parameter scans.

One point runs: simulate (or ingest) detection statistics, recover the
measurement node's Gram matrix through the two 4x4 factors of the state
matrix, read off the key-basis statistics, optimize the twisted phase
errors (and the fixed-purification baseline), then evaluate the six-state
key rate for both.

Every evaluation goes through one kernel, :func:`_evaluate`, which takes M
ensemble pairs as stacked arrays, one channel, and N rows, each row one
pair at one distance (or with injected statistics).  The work that depends
only on the ensembles is done once per pair, over (M, ...) stacks: the
per-party state matrices with their inverses and condition numbers (one
singularity test), the square roots of the ancilla blocks as Kronecker
products of per-state 2x2 roots, and the baseline's purification pairings.
Only the photon loss depends on the distance, and it is computed once over
the distance axis.  Each row then picks its pair's values, and everything
that depends on the statistics (Gram solve, PSD repair, key-basis
statistics, trace norms, baseline values and rates) runs on arrays over the
N rows.  Every stage records its errors into one list, and each row keeps
its first error, the one a single point would raise; an error of a pair's
ensembles fails only that pair's rows.  :func:`keyrate_point` is the kernel
with M = N = 1; :func:`scan` makes one call for its whole delta x depol x
distance grid.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, DetectionStats, _detection_rows, _state_rows
from .errors import DomainError, InvalidParamsError, InvalidPhaseError, QkdError, _record
from .evegram import _key_rows, _singular_errors, _solve_rows
from .states import (
    COND_LIMIT,
    ModelParams,
    SignalEnsemble,
    _model_grid,
    ensemble_from_dict,
    model_states,
)
from .twist import (
    _naive_pairings,
    _naive_rows,
    _phase_error_rows,
    _scalar_errors,
    _twist_factors,
)

_LN2 = math.log(2.0)
_EZ_FLOOR = 1e-12
_PHASE_TOL = 1e-9
_ENTROPY_TOL = 1e-12


def _entropy(x):
    """``h2`` of arguments already within [0, 1], elementwise."""
    y = 1.0 - x
    return -(x * np.log(np.where(x > 0.0, x, 1.0)) + y * np.log(np.where(y > 0.0, y, 1.0))) / _LN2


def _require_f(f) -> float:
    """The error-correction efficiency as a float; it must be finite and >= 1."""
    f = float(f)
    if not (math.isfinite(f) and f >= 1.0):
        raise InvalidParamsError(f"error correction efficiency f must be finite and >= 1, got {f}")
    return f


def binary_entropy(x: float) -> float:
    """Binary entropy ``h2(x) = -x log2 x - (1-x) log2 (1-x)``.

    Accepts arguments within 1e-12 of [0, 1] (clamped); anything further out,
    or NaN, raises ``DomainError``.  ``h2(0) = h2(1) = 0``.
    """
    x = float(x)
    if not -_ENTROPY_TOL <= x <= 1.0 + _ENTROPY_TOL:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    return float(_entropy(min(max(x, 0.0), 1.0)))


def _rates(p_det00, e_z, e_minus, e_plus, f, errors):
    """Per row: the six-state rate clamped at zero and the formula value
    before that clamp; the :class:`InvalidPhaseError` of a row's first
    violated window is recorded in ``errors``.

    The formula is evaluated once, on ``e_z``, ``e_minus`` and ``e_plus``
    clipped to their windows ``[0, 1]``, ``[0, e_z]`` and ``[e_z, 1]``;
    there every entropy argument lies in [0, 1].
    """
    checks = (
        (e_minus >= -_PHASE_TOL, "e_minus = {m} < 0"),
        (e_minus <= e_z + _PHASE_TOL, "e_minus = {m} > e_z = {z}"),
        ((-_PHASE_TOL <= e_z) & (e_z <= 1.0 + _PHASE_TOL), "e_z = {z} outside [0, 1]"),
        (e_plus >= e_z - _PHASE_TOL, "e_plus = {p} < e_z = {z}"),
        (e_plus <= 1.0 + _PHASE_TOL, "e_plus = {p} > 1"),
    )
    for ok, message in checks:
        _record(errors, ~ok, lambda i: InvalidPhaseError(message.format(
            m=float(e_minus[i]), z=float(e_z[i]), p=float(e_plus[i])
        )))
    e_z = np.clip(e_z, 0.0, 1.0)
    e_minus = np.clip(e_minus, 0.0, e_z)
    e_plus = np.clip(e_plus, e_z, 1.0)
    low = e_z < _EZ_FLOOR
    high = 1.0 - e_z < _EZ_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        # h2 argument of the bit-flip term, or of the phase term when e_z is 0
        first = np.where(low, 1.0 - e_plus / 2.0, (1.0 + e_minus / e_z) / 2.0)
        phase_arg = np.clip((1.0 - (e_plus + e_z) / 2.0) / (1.0 - e_z), 0.0, 1.0)
    h_first = _entropy(first)
    bit_flip = np.where(low, 0.0, e_z * h_first)
    h_phase = np.where(low, h_first, np.where(high, 0.0, _entropy(phase_arg)))
    raw = p_det00 * (1.0 - f * _entropy(e_z) - bit_flip - (1.0 - e_z) * h_phase)
    return np.maximum(raw, 0.0), raw


def six_state_rate(
    p_det00: float, e_z: float, e_minus: float, e_plus: float, f: float = 1.0
) -> float:
    """Six-state key rate, clamped at zero.

    ``R = p_det00 [1 - f h2(e_Z) - e_Z h2((1 + e_-/e_Z)/2)
                     - (1-e_Z) h2((1 - (e_+ + e_Z)/2)/(1-e_Z))]``

    requires ``0 <= e_minus <= e_Z <= 1`` and ``e_Z <= e_plus <= 1`` within
    1e-9; ``f``, finite and at least 1, multiplies the error-correction term
    ``h2(e_Z)``.  For ``e_Z`` below 1e-12 the bit-flip term vanishes and the
    last term uses its limit ``h2(1 - e_plus/2)``.
    """
    values = (np.array([float(v)]) for v in (p_det00, e_z, e_minus, e_plus))
    errors = [None]
    rate, _ = _rates(*values, _require_f(f), errors)
    if errors[0] is not None:
        raise errors[0]
    return float(rate[0])


@dataclass
class KeyRateResult:
    """Key rates and intermediate quantities for one parameter point.

    Rates are clamped at zero for reporting.  ``rate_twisted_raw`` and
    ``rate_naive_raw`` in ``diagnostics`` are the formula on the windowed
    phase errors before that clamp (possibly negative); ``diagnostics``
    also holds condition numbers, the PSD repair magnitude and the
    unclamped twist bounds.
    """

    p_det00: float
    e_z: float
    e_minus: float
    e_plus: float
    rate_twisted: float
    rate_naive: float
    pct_gain: float
    diagnostics: dict = field(default_factory=dict)


def _evaluate(alice: tuple, bob: tuple, pairs, channel: ChannelParams, distances, f, stats) -> list:
    """Evaluate N points: row r is ensemble pair ``pairs[r]`` over
    ``channel`` at ``distances[r]``.

    ``alice`` and ``bob`` hold M ensembles each as validated arrays
    ``(rho, priors)``, ``rho`` (M, 4, 2, 2) and ``priors`` (M, 4); pair m is
    Alice's m-th ensemble with Bob's m-th.  ``channel`` gives the loss and
    detector parameters of every row, and the loss is computed once over
    ``distances``, in place of ``channel.distance_km``.  The statistics of
    each row are simulated, or are the injected ``stats`` on every row.
    Returns per row a :class:`KeyRateResult` or the
    :class:`~twistqkd.errors.QkdError` the point fails with; an error of a
    pair's ensembles fails that pair's rows.
    """
    pairs = np.asarray(pairs, dtype=int)

    def rows(values, axis=0):
        """Each row's entry of per-pair ``values``, whose pair axis is ``axis``."""
        return values.take(pairs, axis=axis)

    # Party axis first: index 0 is Alice's ensembles, 1 is Bob's.
    rho, priors = (np.stack(arrays) for arrays in zip(alice, bob))
    R = _state_rows(rho, priors)  # the state-matrix factors RA, RB, (2, M, 4, 4)
    cond = np.linalg.cond(R)
    cond_alice, cond_bob = rows(cond, 1)
    errors = [None] * len(pairs)
    _singular_errors(cond_alice, cond_bob, errors)
    # A zero prior zeroes a row of RA or RB, so such a pair is singular too.
    # Singular pairs invert the identity in their place and keep zero
    # inverses, which their rows solve against without error or warning.
    good = (cond[0] * cond[1] < COND_LIMIT)[:, None, None]
    R_inv = np.where(good, np.linalg.inv(np.where(good, R, np.eye(4))), 0.0)
    if stats is None:
        p_det = _detection_rows(*rows(R, 1), *rows(priors, 1), channel, distances)
    else:
        p_det = np.broadcast_to(stats.p_det, (len(pairs), 16))
    E, clipped, _ = _solve_rows(*rows(R_inv, 1), p_det, errors)
    p00, e_z = _key_rows(p_det, errors)
    _scalar_errors(p00, e_z, errors)
    # Rows that already failed carry values such as p00 = 0 from here on.
    with np.errstate(divide="ignore", invalid="ignore"):
        key_rho, key_priors = rho[:, :, :2], priors[:, :, :2]
        left, right = _twist_factors(key_priors[..., None, None] * key_rho)
        e_minus, e_plus, bound_minus, bound_plus = _phase_error_rows(
            (rows(left), rows(right)), E, p00, np.clip(e_z, 0.0, 1.0)
        )
        plus, minus = _naive_pairings(key_rho, key_priors)
        naive_signed, naive_plus = _naive_rows((rows(plus), rows(minus)), E, p00)
        # The rate formula is even in e_minus (h2((1+t)/2) = h2((1-t)/2)),
        # so the signed baseline value enters through its magnitude.
        naive_minus = np.minimum(np.abs(naive_signed), e_z)
        rate_twisted, raw_twisted = _rates(p00, e_z, e_minus, e_plus, f, errors)
        rate_naive, raw_naive = _rates(p00, e_z, naive_minus, naive_plus, f, errors)
        pct_gain = np.where(
            rate_naive > 0.0,
            100.0 * (rate_twisted - rate_naive) / rate_naive,
            np.where(rate_twisted > 0.0, math.inf, 0.0),
        )

    fields = {
        "p_det00": p00, "e_z": e_z, "e_minus": e_minus, "e_plus": e_plus,
        "rate_twisted": rate_twisted, "rate_naive": rate_naive, "pct_gain": pct_gain,
    }
    diagnostics = {
        "gamma_cond": cond_alice * cond_bob,
        "cond_alice": cond_alice,
        "cond_bob": cond_bob,
        "clipped_mass": clipped,
        "twist_bound_minus": bound_minus,
        "twist_bound_plus": bound_plus,
        "rate_twisted_raw": raw_twisted,
        "rate_naive_raw": raw_naive,
        "naive_e_minus_signed": naive_signed,
        "naive_e_plus": naive_plus,
    }
    values = zip(*(v.tolist() for v in fields.values()))  # in KeyRateResult's field order
    diags = zip(*(v.tolist() for v in diagnostics.values()))
    return [
        error if error is not None
        else KeyRateResult(*row, diagnostics=dict(zip(diagnostics, diag)))
        for error, row, diag in zip(errors, values, diags)
    ]


def _single(ensemble: SignalEnsemble) -> tuple:
    """One ensemble as the stack of one that :func:`_evaluate` takes."""
    return ensemble.rho[None], ensemble.priors[None]


def keyrate_point(
    alice: SignalEnsemble,
    bob: SignalEnsemble,
    channel: ChannelParams,
    f: float = 1.0,
    stats: DetectionStats | None = None,
) -> KeyRateResult:
    """Run the full pipeline for one parameter point.

    ``stats`` may inject measured detection statistics in place of the
    honest-channel simulation; the ensembles are still needed to build the
    state matrix and the purification constraints.  ``f`` must be finite
    and at least 1.
    """
    f = _require_f(f)
    distances = [channel.distance_km]
    result = _evaluate(_single(alice), _single(bob), [0], channel, distances, f=f, stats=stats)[0]
    if isinstance(result, QkdError):
        raise result
    return result


def _path_field(doc: dict, name: str) -> str | None:
    """The file path in field ``name`` of a config document, or None when
    the field is absent or null."""
    value = doc.get(name)
    if value is not None and not isinstance(value, str):
        raise InvalidParamsError(f"{name} must be a file path string, got {value!r}")
    return value


def read_config_doc(path):
    """The parsed JSON document of a config file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise InvalidParamsError(f"config is not valid JSON: {exc}") from exc


@dataclass
class ScanConfig:
    """Grid of model/channel parameters for a key-rate scan.

    ``deltas`` x ``depols`` x ``distances`` are evaluated in that nesting
    order.  Explicit ensembles, when given, override the (delta, p) model at
    every grid point, and a measured-statistics CSV replaces the channel
    simulation at every grid point.  ``f`` must be finite and at least 1.
    The whole grid is validated at construction: the channel at every
    distance, and every delta and depol when no explicit ensembles are
    given, with the messages of :class:`ChannelParams` and
    :class:`ModelParams`.
    """

    deltas: list
    depols: list
    distances: np.ndarray
    eta: float
    p_dark: float
    atten_db_per_km: float = 0.2
    atten_divisor: float = 20.0
    priors_alice: tuple = (0.25, 0.25, 0.25, 0.25)
    priors_bob: tuple = (0.25, 0.25, 0.25, 0.25)
    f: float = 1.0
    alice_states: SignalEnsemble | None = None
    bob_states: SignalEnsemble | None = None
    stats: DetectionStats | None = None
    out: str | None = None

    def __post_init__(self):
        try:
            self.deltas = [float(d) for d in np.atleast_1d(self.deltas)]
            self.depols = [float(p) for p in np.atleast_1d(self.depols)]
            self.distances = np.atleast_1d(np.asarray(self.distances, dtype=float))
            self.f = _require_f(self.f)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(f"scan grid values and f must be numbers: {exc}") from exc
        if not (len(self.deltas) and len(self.depols) and self.distances.size):
            raise InvalidParamsError("scan grid must be nonempty")
        if self.alice_states is None:
            for delta in self.deltas:
                ModelParams(delta=delta, depol=0.0)
            for depol in self.depols:
                ModelParams(delta=0.0, depol=depol)
        for distance in self.distances:
            self.channel_for(distance)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScanConfig":
        """Build a config from the JSON document form.

        Required fields: ``eta``, ``p_dark``, ``distance`` (a number or
        ``{"min": .., "max": .., "step": ..}``).  ``delta`` and ``depol``
        may be scalars or lists (default 0).  ``priors`` is either a
        four-entry list shared by both parties or
        ``{"alice": [...], "bob": [...]}``.  Optional: ``atten_db_per_km``,
        ``atten_divisor``, ``f``, ``alice_states``/``bob_states`` (explicit
        ensembles in the JSON schema of :func:`twistqkd.states.ensemble_to_json`),
        ``stats_csv`` and ``out``.
        """
        if not isinstance(doc, dict):
            raise InvalidParamsError("config document must be a JSON object")
        try:
            return cls._from_doc(doc)
        except KeyError as exc:
            raise InvalidParamsError(f"config missing required field {exc}") from exc
        except (TypeError, ValueError, IndexError) as exc:
            raise InvalidParamsError(f"config field of the wrong type or form: {exc}") from exc

    @classmethod
    def _from_doc(cls, doc: dict) -> "ScanConfig":
        distance = doc["distance"]
        if isinstance(distance, dict):
            lo, hi, step = (float(distance[k]) for k in ("min", "max", "step"))
            if step <= 0 or hi < lo:
                raise InvalidParamsError("distance range needs step > 0 and max >= min")
            distances = np.arange(lo, hi + step / 2.0, step)
        else:
            distances = np.array([float(distance)])

        priors = doc.get("priors", [0.25, 0.25, 0.25, 0.25])
        if isinstance(priors, dict):
            priors_a = tuple(float(p) for p in priors["alice"])
            priors_b = tuple(float(p) for p in priors["bob"])
        else:
            priors_a = priors_b = tuple(float(p) for p in priors)

        alice_states = bob_states = None
        if "alice_states" in doc:
            alice_states = ensemble_from_dict(doc["alice_states"])
            bob_states = (
                ensemble_from_dict(doc["bob_states"]) if "bob_states" in doc else alice_states
            )
        elif "bob_states" in doc:
            raise InvalidParamsError("bob_states given without alice_states")

        stats_csv = _path_field(doc, "stats_csv")
        stats = None if stats_csv is None else DetectionStats.from_csv(stats_csv)

        return cls(
            deltas=doc.get("delta", 0.0),
            depols=doc.get("depol", 0.0),
            distances=distances,
            eta=float(doc["eta"]),
            p_dark=float(doc["p_dark"]),
            atten_db_per_km=float(doc.get("atten_db_per_km", 0.2)),
            atten_divisor=float(doc.get("atten_divisor", 20.0)),
            priors_alice=priors_a,
            priors_bob=priors_b,
            f=float(doc.get("f", 1.0)),
            alice_states=alice_states,
            bob_states=bob_states,
            stats=stats,
            out=_path_field(doc, "out"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ScanConfig":
        return cls.from_dict(read_config_doc(path))

    def ensembles_for(self, delta: float, depol: float) -> tuple[SignalEnsemble, SignalEnsemble]:
        if self.alice_states is not None:
            return self.alice_states, self.bob_states
        params = ModelParams(delta=delta, depol=depol)
        alice = model_states(params, self.priors_alice)
        bob = model_states(params, self.priors_bob)
        return alice, bob

    def channel_for(self, distance_km: float) -> ChannelParams:
        return ChannelParams(
            eta=self.eta,
            p_dark=self.p_dark,
            distance_km=distance_km,
            atten_db_per_km=self.atten_db_per_km,
            atten_divisor=self.atten_divisor,
        )


@dataclass
class ScanRow:
    """One grid point of a scan.

    ``status`` is ``"ok"`` or the class name of the error the point raised;
    then ``result`` is None and ``error`` holds the error message.
    """

    delta: float
    depol: float
    distance_km: float
    result: KeyRateResult | None
    status: str
    error: str = ""


SCAN_COLUMNS = (
    "delta",
    "depol",
    "distance_km",
    "p_det00",
    "e_Z",
    "e_minus",
    "e_plus",
    "rate_naive",
    "rate_twisted",
    "pct_gain",
    "error",
    "status",
)


def _grid_pairs(config: ScanConfig) -> tuple:
    """Alice's and Bob's ensembles as the stacks :func:`_evaluate` takes,
    and the pair of each (delta, depol) grid point in scan order.

    The model ensembles of all grid points are built as one array per
    party; explicit ensembles are one pair that every grid point shares.
    """
    n = len(config.deltas) * len(config.depols)
    if config.alice_states is not None:
        alice, bob = _single(config.alice_states), _single(config.bob_states)
        return alice, bob, np.zeros(n, dtype=int)
    deltas = np.repeat(config.deltas, len(config.depols))
    depols = np.tile(config.depols, len(config.deltas))
    alice = _model_grid(deltas, depols, config.priors_alice)
    if np.array_equal(config.priors_bob, config.priors_alice):
        return alice, alice, np.arange(n)
    return alice, _model_grid(deltas, depols, config.priors_bob), np.arange(n)


def scan(config: ScanConfig) -> list[ScanRow]:
    """Evaluate the pipeline over the whole grid.

    Grid points are evaluated in deterministic order (delta, then depol,
    then distance).  The whole grid is one kernel call: the work of each
    (delta, depol) ensemble pair is done once, and its distances are rows
    of the call.  The config has validated every grid point, so a point
    fails only in the pipeline: it is recorded in its row with the message
    of its :class:`~twistqkd.errors.QkdError` and the scan continues; any
    other exception propagates.
    """
    alice, bob, grid_pairs = _grid_pairs(config)
    outcomes = _evaluate(
        alice,
        bob,
        np.repeat(grid_pairs, len(config.distances)),
        config.channel_for(0.0),
        np.tile(config.distances, len(grid_pairs)),
        f=config.f,
        stats=config.stats,
    )
    grid = itertools.product(config.deltas, config.depols, config.distances.tolist())
    rows = []
    for (delta, depol, distance), outcome in zip(grid, outcomes):
        row = ScanRow(delta, depol, distance, result=None, status="ok")
        if isinstance(outcome, QkdError):
            row.status = type(outcome).__name__
            row.error = str(outcome)
        else:
            row.result = outcome
        rows.append(row)
    return rows


def _row_values(row: ScanRow) -> list:
    r = row.result
    nums = [row.delta, row.depol, row.distance_km]
    if r is None:
        nums += [math.nan] * 7
    else:
        nums += [r.p_det00, r.e_z, r.e_minus, r.e_plus, r.rate_naive, r.rate_twisted, r.pct_gain]
    return [f"{v:.12g}" for v in nums] + [row.error, row.status]


def scan_to_csv(rows: list, path) -> None:
    """Write scan rows as CSV with 12 significant digits per float.

    ``error`` holds the message of a failed row and is empty otherwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_COLUMNS)
        for row in rows:
            writer.writerow(_row_values(row))
