"""Full key-rate pipeline, six-state rate formula, and parameter scans.

One point runs: simulate (or ingest) detection statistics, recover the
measurement node's Gram matrix through the two 4x4 factors of the state
matrix, read off the key-basis statistics, optimize the twisted phase
errors (and the fixed-purification baseline), then evaluate the six-state
key rate for both.

Every evaluation goes through one kernel, :func:`_evaluate`, which takes M
ensemble pairs as party-first stacked arrays, one channel and D distances, and
evaluates each pair at each distance: M * D rows, pair-major (or with
injected statistics on every row).  The work that depends only on the
ensembles is done once per pair, over (M, ...) stacks: the per-party state
matrices, their condition numbers (``states._conditioning``, the one
computation that ``build_gamma`` and ``tetrahedron_check`` also report)
and their inverses (``evegram._invert_factors``, the one singularity test,
which ``solve_eve`` also calls), and the one pair stage of the twist and
its baseline (``twist._pair_factors``), one eigendecomposition of the key
states for the Kronecker factors of the ancilla blocks.
Only the photon loss depends on the distance, and it is computed once over
the distance axis.
Everything that depends on the statistics (Gram solve, PSD repair,
key-basis statistics, phase errors and rates) runs on arrays over the
M * D rows, which view them as (M, D, ...) so that each pair's arrays
broadcast over its D rows.  One row stage (``twist._phase_error_rows``)
forms one product per row and pairing: the twist is its trace norm, and
the baseline, the twist at ``K = I``, its real trace.  The
twisted phase errors and the baseline's are stacked (2, M * D), so one
pass of the rate formula evaluates both rates.  Every stage that checks
makes one pass test over its rows, and only once a row fails does it record
(:func:`~twistqkd.errors._record`) its checks' failure masks in pipeline
order and each failed row's first error, the one a point would raise.  The order is
singular state matrix, a non-finite Gram solve, then an unphysical one (PSD
repair beyond its bound, then an eigenvalue above 1), no key-basis
detections, then ``p_det00`` and ``e_z`` out of range.  The rate stage
checks no window of the formula: the twisted phase errors lie in them
through their min and max with ``e_z``, and the baseline is read by the
formula's symmetries (``|e_minus|``, and ``2 - e_plus`` for an ``e_plus``
above 1).  Only :func:`six_state_rate` checks its caller's values.  An
error of a pair's ensembles fails only that pair's rows.  The kernel runs
under one ``np.errstate`` that lets the failed rows' divisions pass.
:func:`keyrate_point` is the kernel with M = D = 1.  A grid, whose
ensembles an immutable :class:`ScanConfig` built and checked once, is
evaluated one way (:func:`_grid_chunks`): one kernel call per chunk of
whole (delta, depol) pairs, so that what is held is bounded by the chunk.

The kernel returns its rows as columns: the result fields (7, M * D), the
diagnostics (10, M * D), and each row's error or None.  Its callers build
what they return straight from these columns: :func:`keyrate_point` its one
:class:`KeyRateResult`, and from each chunk :func:`scan` its
:class:`ScanRow` objects and ``twistqkd scan`` its CSV lines.  One line
formatter writes the CSV of :func:`scan_to_csv` and of ``twistqkd scan``,
in the bytes that ``csv.writer`` gives.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ChannelParams, DetectionStats, _detection_rows
from .errors import (
    DomainError, InvalidParamsError, InvalidPhaseError, _float_array, _numeric, _record
)
from .evegram import _invert_factors, _key_checks, _key_rows, _solve_rows
from .states import (
    ModelParams, SignalEnsemble, _conditioning, _model_grid, _state_rows, ensemble_from_dict
)
from .twist import _pair_factors, _phase_error_rows

_LN2 = math.log(2.0)
_PHASE_TOL = 1e-9
_ENTROPY_TOL = 1e-12


def _entropy(weights):
    """Entropy in bits of weights within [0, 1] that run along the first axis."""
    logs = np.log(weights, out=np.zeros(weights.shape), where=weights > 0.0)  # 0 log 0 = 0
    return np.add.reduce(weights * logs, axis=0) / -_LN2


def _require_f(f) -> float:
    """The error-correction efficiency as a float; it must be finite and >= 1."""
    f = _numeric(f, "f")
    if not (math.isfinite(f) and f >= 1.0):
        raise InvalidParamsError(f"error correction efficiency f must be finite and >= 1, got {f}")
    return f


def binary_entropy(x: float) -> float:
    """Binary entropy ``h2(x) = -x log2 x - (1-x) log2 (1-x)``.

    Accepts arguments within 1e-12 of [0, 1] (clamped); anything further out,
    or NaN, raises ``DomainError``.  ``h2(0) = h2(1) = 0``.
    """
    x = _numeric(x, "binary entropy argument")
    if not -_ENTROPY_TOL <= x <= 1.0 + _ENTROPY_TOL:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    return float(_entropy(np.clip((x, 1.0 - x), 0.0, 1.0)))


def _rates(p_det00, e_z, e_minus, e_plus, f):
    """Per purification and row: the six-state rate clamped at zero and the
    formula value before that clamp, each (K, N), for N rows of
    ``p_det00`` and ``e_z`` (N,) with the phase errors ``e_minus`` and
    ``e_plus`` (K, N) of K purifications of each row (the kernel stacks the
    twisted one and the baseline, K = 2).

    The formula alone, for all K purifications at once; it checks nothing.
    It projects the values onto the windows ``0 <= e_minus <= e_z <= 1``
    and ``e_z <= e_plus <= 1``, where the four Bell-diagonal weights ``lam``
    of :func:`six_state_rate` lie in [0, 1] and sum to 1, and evaluates the
    formula once on them.  A NaN value gives a NaN rate, and no warning.
    """
    # np.clip's values, signed zeros and NaN included, without its dispatch.
    e_z = np.minimum(np.maximum(e_z, 0.0), 1.0)
    e_minus = np.minimum(np.maximum(e_minus, 0.0), e_z)
    e_plus = np.minimum(np.maximum(e_plus, e_z), 1.0)
    lam = np.array(((e_z + e_minus) / 2.0, (e_z - e_minus) / 2.0,
                    1.0 - (e_plus + e_z) / 2.0, (e_plus - e_z) / 2.0))
    h_z = _entropy(np.array((e_z, 1.0 - e_z)))
    raw = p_det00 * (1.0 + h_z - _entropy(lam)) - f * p_det00 * h_z
    return np.maximum(raw, 0.0), raw


def six_state_rate(
    p_det00: float, e_z: float, e_minus: float, e_plus: float, f: float = 1.0
) -> float:
    """Six-state key rate, clamped at zero.

    ``R = p_det00 [1 - f h2(e_Z) - e_Z h2((1 + e_-/e_Z)/2)
                     - (1-e_Z) h2((1 - (e_+ + e_Z)/2)/(1-e_Z))]``

    is evaluated, by entropy's grouping rule, as privacy amplification minus
    error correction, ``p_det00 [1 + h2(e_Z) - H(lam)] - f p_det00 h2(e_Z)``,
    which divides by nothing, over the Bell-diagonal weights of the virtual
    pair ``lam = ((e_Z + e_-)/2, (e_Z - e_-)/2, 1 - (e_+ + e_Z)/2, (e_+ - e_Z)/2)``.
    It requires a finite ``p_det00 >= 0``, ``f`` finite and at least 1, and
    the formula's windows within 1e-9, checked in this order: ``e_minus >= 0``,
    ``e_minus <= e_Z``, ``0 <= e_Z <= 1``, ``e_plus >= e_Z`` and
    ``e_plus <= 1``.  The first that fails, as NaN fails each, raises
    :class:`InvalidPhaseError`.  ``e_minus <= e_Z`` and ``e_plus >= e_Z``
    keep ``lam`` nonnegative; ``e_minus >= 0`` and ``e_plus <= 1``, where
    ``lam`` allows ``e_minus >= -e_Z`` and ``e_plus <= 2 - e_Z``, are the
    package's stricter rule.  Only this function checks the windows: the
    pipeline builds its values inside them.
    """
    names = ("p_det00", "e_z", "e_minus", "e_plus")
    p_det00, e_z, e_minus, e_plus = (
        _numeric(v, name) for v, name in zip((p_det00, e_z, e_minus, e_plus), names)
    )
    if not 0.0 <= p_det00 < math.inf:
        raise InvalidParamsError(f"p_det00 must be nonnegative and finite, got {p_det00}")
    f = _require_f(f)
    for holds, window in (
        (e_minus >= -_PHASE_TOL, "e_minus = {m} < 0"),
        (e_minus <= e_z + _PHASE_TOL, "e_minus = {m} > e_z = {z}"),
        (-_PHASE_TOL <= e_z <= 1.0 + _PHASE_TOL, "e_z = {z} outside [0, 1]"),
        (e_plus >= e_z - _PHASE_TOL, "e_plus = {p} < e_z = {z}"),
        (e_plus <= 1.0 + _PHASE_TOL, "e_plus = {p} > 1"),
    ):
        if not holds:
            raise InvalidPhaseError(window.format(m=e_minus, z=e_z, p=e_plus))
    rate, _ = _rates(np.array([p_det00]), np.array([e_z]), np.array([[e_minus]]),
                     np.array([[e_plus]]), f)
    return float(rate[0, 0])


@dataclass
class KeyRateResult:
    """Key rates and intermediate quantities for one parameter point.

    Rates are clamped at zero for reporting.  ``rate_twisted_raw`` and
    ``rate_naive_raw`` in ``diagnostics`` are the formula on the windowed
    phase errors before that clamp (possibly negative); ``diagnostics``
    also holds condition numbers, the PSD repair magnitude, the
    unclamped twist bounds and the baseline's phase errors as computed,
    ``e_minus`` signed and ``e_plus`` possibly above 1.
    """

    p_det00: float
    e_z: float
    e_minus: float
    e_plus: float
    rate_twisted: float
    rate_naive: float
    pct_gain: float
    diagnostics: dict = field(default_factory=dict)


# The names of a result's diagnostics, in the order of _evaluate's diagnostic columns.
_DIAGNOSTICS = (
    "gamma_cond", "cond_alice", "cond_bob", "clipped_mass", "twist_bound_minus",
    "twist_bound_plus", "rate_twisted_raw", "rate_naive_raw", "naive_e_minus_signed",
    "naive_e_plus",
)


def _evaluate(rho, priors, channel: ChannelParams, distances, f, stats) -> tuple:
    """Evaluate each of M ensemble pairs over ``channel`` at each of the D
    ``distances``: M * D rows, pair-major.

    The pairs are validated arrays with the party axis first, ``rho``
    (2, M, 4, 2, 2) and ``priors`` (2, M, 4), read as they are (broadcast
    views included): index 0 is Alice's ensembles, 1 is Bob's, and pair m
    is Alice's m-th ensemble with Bob's m-th.  ``channel`` gives the loss and
    detector parameters of every row, and the loss is computed once over
    ``distances``, in place of ``channel.distance_km``.  The statistics of
    each row are simulated, or are the injected ``stats`` on every row.
    Every per-pair array broadcasts over its pair's D rows.  The twist and
    its baseline share one pair stage and one row stage, the two functions
    that :func:`~twistqkd.twist.optimize_phase_errors` and
    :func:`~twistqkd.twist.naive_phase_errors` also call.

    Returns the rows as columns, ``(fields, diagnostics, errors)``:
    ``fields`` (7, M * D) holds the values of :class:`KeyRateResult`'s
    fields in their order, ``diagnostics`` (10, M * D) the diagnostics in
    the order of ``_DIAGNOSTICS``, and ``errors`` per row the
    :class:`~twistqkd.errors.QkdError` the point fails with, or None.  A
    failed row's values are not a result; an error of a pair's ensembles
    fails that pair's rows.
    """
    R = _state_rows(rho, priors)  # the state-matrix factors RA, RB, (2, M, 4, 4)
    cond = _conditioning(R)
    table = np.empty((17, cond.shape[1] * len(distances)))  # the fields, then the diagnostics
    fields, diagnostics = table[:7], table[7:]
    diagnostics[1:3] = cond.repeat(len(distances), axis=1)  # cond_alice, cond_bob
    np.multiply(diagnostics[1], diagnostics[2], out=diagnostics[0])  # gamma_cond
    errors = [None] * table.shape[1]
    R_inv = _invert_factors(R, cond, errors)
    # Rows that fail carry values such as p00 = 0 or cond = inf onwards.
    with np.errstate(divide="ignore", invalid="ignore"):
        if stats is None:
            p_det = _detection_rows(*R, *priors, channel, distances)
        else:
            p_det = stats.p_det[None].repeat(len(errors), 0)
        E, diagnostics[3], _ = _solve_rows(*R_inv, p_det, errors)  # clipped_mass
        p00, e_z = _key_rows(p_det)
        _record(errors, *_key_checks(p00, e_z))
        # The key states are a = 0, 1.
        factors = _pair_factors(rho[:, :, :2], priors[:, :, :2])
        e_minus, e_plus, diagnostics[4], diagnostics[5], naive_signed, naive_plus = (
            _phase_error_rows(factors, E, p00, np.minimum(np.maximum(e_z, 0.0), 1.0))
        )
        # The rate formula is even in e_minus and symmetric about e_plus = 1
        # (each swaps two Bell-diagonal weights), so the baseline, whose signs
        # follow arbitrary eigenvector phases, enters as |e_minus| and with an
        # e_plus above 1 reflected.
        fields[4:6], diagnostics[6:8] = _rates(
            p00, e_z, np.array((e_minus, np.abs(naive_signed))),
            np.array((e_plus, np.where(naive_plus > 1.0, 2.0 - naive_plus, naive_plus))), f,
        )
        fields[0], fields[1], fields[2], fields[3] = p00, e_z, e_minus, e_plus
        diagnostics[8], diagnostics[9] = naive_signed, naive_plus
        rate_twisted, rate_naive = fields[4:6]
        np.divide(100.0 * (rate_twisted - rate_naive), rate_naive, out=fields[6])  # pct_gain
        positive = rate_naive > 0.0
        if not positive.all():  # no gain over a zero baseline rate
            fields[6, ~positive] = np.where(rate_twisted > 0.0, math.inf, 0.0)[~positive]
    return fields, diagnostics, errors


def _result(values: list, diagnostics: list) -> KeyRateResult:
    """The result of one row of the kernel's columns."""
    return KeyRateResult(*values, diagnostics=dict(zip(_DIAGNOSTICS, diagnostics)))


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
    fields, diagnostics, errors = _evaluate(
        np.array((alice.rho, bob.rho))[:, None], np.array((alice.priors, bob.priors))[:, None],
        channel, [channel.distance_km], f=f, stats=stats
    )
    if errors[0] is not None:
        raise errors[0]
    return _result(fields[:, 0].tolist(), diagnostics[:, 0].tolist())


def _path_field(doc: dict, name: str) -> str | None:
    """The file path in field ``name`` of a config document, or None when
    the field is absent or null."""
    value = doc.get(name)
    if value is not None and not (isinstance(value, str) and "\0" not in value):
        raise InvalidParamsError(f"{name} must be a file path string, got {value!r}")
    try:
        os.fsencode(value or "")
    except UnicodeEncodeError as exc:  # a name the file system's encoding cannot write
        raise InvalidParamsError(f"{name} cannot be encoded as a file name: {exc}") from exc
    return value


def _required(doc: dict, name: str, where: str = ""):
    """Field ``name`` of a config document, or of its object field ``where`` ("priors.")."""
    if name not in doc:
        raise InvalidParamsError(f"config missing required field '{where}{name}'")
    return doc[name]


def read_config_doc(path):
    """The parsed JSON document of a config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise InvalidParamsError(f"config is not valid JSON: {exc}") from exc


def _floats(values) -> tuple:
    """A number, or a flat list of them, as a tuple of floats."""
    return tuple(float(v) for v in np.atleast_1d(values))


def _distance_axis(distance):
    """The distances of a config document's ``distance`` field: a number, or
    a range ``{"min": .., "max": .., "step": ..}`` with its max included."""
    if not isinstance(distance, dict):
        return [_numeric(distance, "distance")]
    lo, hi, step = (_numeric(_required(distance, k, "distance."), f"distance {k}")
                    for k in ("min", "max", "step"))
    if not (0.0 < step < math.inf and hi >= lo):
        raise InvalidParamsError("distance range needs 0 < step < inf and max >= min")
    try:
        return np.arange(lo, hi + step / 2.0, step)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise InvalidParamsError(
            f"distance range min {lo}, max {hi}, step {step} has too many points: {exc}"
        ) from exc


@dataclass(frozen=True, eq=False)
class ScanConfig:
    """Grid of model/channel parameters for a key-rate scan.

    ``deltas`` x ``depols`` x ``distances`` are evaluated in that nesting
    order.  Explicit ensembles, when given, override the (delta, p) model at
    every grid point, and a measured-statistics CSV replaces the channel
    simulation at every grid point.  ``f`` must be finite and at least 1.
    Bob's explicit ensembles default to Alice's and need them.  Each field
    is converted once, and a value that is not a number raises
    ``InvalidParamsError`` naming its field.  The whole grid is then
    validated and built once, at construction: each model delta and depol,
    the channel's scalars, the distance axis as one array (its first bad
    distance fails as its channel would), then the ensembles of every grid
    point, with the messages of :class:`ModelParams`, :class:`ChannelParams`
    and :func:`~twistqkd.states._model_grid`.  The config is immutable, so
    the ensembles that :func:`scan` reads always match its fields:
    ``deltas``, ``depols`` and both parties' priors are stored as tuples of
    floats, ``distances`` as a read-only copy of the array given, and ``f``
    and the channel fields as floats.  Configs compare by value but are not
    hashable (``hash`` raises ``TypeError``), since ``distances`` is an array.
    """

    deltas: tuple
    depols: tuple
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
    # The grid's ensemble pairs in scan order, as _evaluate takes them:
    # rho (2, M, 4, 2, 2) and priors (2, M, 4), Alice's then Bob's.
    _ensembles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = self.alice_states is None
        if model and self.bob_states is not None:
            raise InvalidParamsError("bob_states given without alice_states")
        normal = {name: _numeric(getattr(self, name), name, _floats)
                  for name in ("deltas", "depols", "priors_alice", "priors_bob")}
        normal.update({name: _numeric(getattr(self, name), name)
                       for name in ("eta", "p_dark", "atten_db_per_km", "atten_divisor")})
        normal.update(
            # A read-only copy: an edit of the caller's array cannot reach the grid.
            distances=_numeric(self.distances, "distances",
                               lambda d: np.array(_float_array(d), ndmin=1)),
            f=_require_f(self.f),
            bob_states=self.alice_states if self.bob_states is None else self.bob_states,
        )
        normal["distances"].flags.writeable = False
        for name, value in normal.items():
            object.__setattr__(self, name, value)
        if self.distances.ndim != 1:
            raise InvalidParamsError(f"distances must be a flat list, got {self.distances.ndim}-D")
        if not (len(self.deltas) and len(self.depols) and self.distances.size):
            raise InvalidParamsError("scan grid must be nonempty")
        if model:
            for delta in self.deltas:
                ModelParams(delta=delta, depol=0.0)
            for depol in self.depols:
                ModelParams(delta=0.0, depol=depol)
        # The channel's scalars with the first distance, then ChannelParams'
        # distance rule over the axis, which fails as the first bad one's channel.
        self.channel_for(self.distances[0])
        bad = ~(np.isfinite(self.distances) & (self.distances >= 0.0))
        if np.count_nonzero(bad):
            self.channel_for(self.distances[bad.argmax()])
        # Built last, so that a non-finite delta fails as such, not in _check_states.
        if model:
            grid = self._pairs()
            alice = _model_grid(*grid, self.priors_alice)
            same = self.priors_bob == self.priors_alice
            bob = alice if same else _model_grid(*grid, self.priors_bob)
            ensembles = (np.array(arrays) for arrays in zip(alice, bob))
        else:  # views of the one pair, nothing copied per grid pair
            a, b, n = self.alice_states, self.bob_states, len(self.deltas) * len(self.depols)
            ensembles = (np.broadcast_to(np.array(pair)[:, None], (2, n) + pair[0].shape)
                         for pair in ((a.rho, b.rho), (a.priors, b.priors)))
        object.__setattr__(self, "_ensembles", tuple(ensembles))

    def __eq__(self, other):
        """Field by field, ``distances`` by value (the generated equality
        would take the truth value of an array comparison)."""
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(self.distances, other.distances) if f.name == "distances"
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self) if f.compare
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "ScanConfig":
        """Build a config from the JSON document form.

        Required fields: ``eta``, ``p_dark``, ``distance`` (a number or
        ``{"min": .., "max": .., "step": ..}``).  ``delta`` and ``depol``
        may be scalars or lists (default 0).  ``priors`` is either a
        four-entry list shared by both parties or
        ``{"alice": [...], "bob": [...]}``.  Optional: ``atten_db_per_km``,
        ``atten_divisor``, ``f``, ``alice_states``/``bob_states`` (explicit
        ensembles in the JSON schema of :func:`twistqkd.states.ensemble_to_json`)
        and ``stats_csv``.  Only the distance axis is computed here;
        every field is converted and checked once, by the constructor,
        :func:`~twistqkd.states.ensemble_from_dict` or
        :meth:`DetectionStats.from_csv`, and an error names its field.
        """
        if not isinstance(doc, dict):
            raise InvalidParamsError("config document must be a JSON object")
        priors = doc.get("priors", cls.priors_alice)
        priors = ([_required(priors, name, "priors.") for name in ("alice", "bob")]
                  if isinstance(priors, dict) else (priors,) * 2)
        required = dict(eta=_required(doc, "eta"), p_dark=_required(doc, "p_dark"),
                        distances=_distance_axis(_required(doc, "distance")))
        alice_states, bob_states = (
            ensemble_from_dict(doc[name]) if name in doc else None
            for name in ("alice_states", "bob_states")
        )
        stats_csv = _path_field(doc, "stats_csv")
        return cls(
            deltas=doc.get("delta", 0.0),
            depols=doc.get("depol", 0.0),
            **required,
            atten_db_per_km=doc.get("atten_db_per_km", cls.atten_db_per_km),
            atten_divisor=doc.get("atten_divisor", cls.atten_divisor),
            priors_alice=priors[0],
            priors_bob=priors[1],
            f=doc.get("f", cls.f),
            alice_states=alice_states,
            bob_states=bob_states,
            stats=None if stats_csv is None else DetectionStats.from_csv(stats_csv),
        )

    @classmethod
    def from_json_file(cls, path) -> "ScanConfig":
        return cls.from_dict(read_config_doc(path))

    def _pairs(self) -> np.ndarray:
        """The (delta, depol) of each grid pair in scan order, (2, M)."""
        return np.array(np.meshgrid(self.deltas, self.depols, indexing="ij")).reshape(2, -1)

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


# The rows of a chunk of a scan, which holds whole pairs, at least one.
_CHUNK_ROWS = 4096


def _grid_chunks(config: ScanConfig, take) -> list:
    """``take(labels, fields, diagnostics, errors)`` of each chunk of whole
    (delta, depol) pairs of ``config``'s grid, in scan order: the delta,
    depol and distance of each of its n rows (3, n), then the columns of
    its one kernel call on a slice of the config's ensemble stacks.  A
    chunk is released when ``take`` returns, before the next one runs."""
    step = max(1, _CHUNK_ROWS // config.distances.size)
    pairs, (rho, priors) = config._pairs(), config._ensembles
    channel = config.channel_for(0.0)
    return [
        take(np.array(np.broadcast_arrays(*pairs[:, chunk, None], config.distances)).reshape(3, -1),
             *_evaluate(rho[:, chunk], priors[:, chunk], channel, config.distances,
                        f=config.f, stats=config.stats))
        for chunk in (slice(start, start + step) for start in range(0, pairs.shape[1], step))
    ]


def _scan_rows(labels, fields, diagnostics, errors) -> list[ScanRow]:
    """The scan rows of a chunk's labels and kernel columns."""
    return [
        ScanRow(*point, _result(values, diag), "ok") if error is None
        else ScanRow(*point, None, type(error).__name__, str(error))
        for point, values, diag, error in zip(
            zip(*labels.tolist()), fields.T.tolist(), diagnostics.T.tolist(), errors
        )
    ]


def scan(config: ScanConfig) -> list[ScanRow]:
    """Evaluate the pipeline over the whole grid.

    Grid points are evaluated in deterministic order (delta, then depol,
    then distance), in the chunks of whole (delta, depol) pairs that
    ``twistqkd scan`` streams: one kernel call per chunk, whose rows are
    pair-major, so the work of each pair is done once and its arrays
    broadcast over its distances.  The ensembles are the ones the immutable
    config built and validated at construction.  A point therefore fails
    only in the pipeline: its row records its
    :class:`~twistqkd.errors.QkdError`'s message and the scan continues;
    any other exception propagates.
    """
    return [row for rows in _grid_chunks(config, _scan_rows) for row in rows]


_CSV_HEADER = ",".join(SCAN_COLUMNS) + "\r\n"
# The ten numbers of a line, each as f"{v:.12g}" writes it, inf, nan and -0 included.
_CSV_NUMBERS = ",".join(["%.12g"] * 10)
# The result columns of a line, as rows of _evaluate's fields.
_CSV_FIELDS = [0, 1, 2, 3, 5, 4, 6]
_NO_RESULT = (math.nan,) * len(_CSV_FIELDS)


def _csv_text(text: str) -> str:
    """A text field as ``csv.writer`` writes it (QUOTE_MINIMAL): quoted,
    with its quotes doubled, when it holds a comma, a quote or a line break
    (a singular row's message holds commas)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows) -> str:
    """The CSV lines of ``rows``, each given as ``(numbers, error, status)``
    with ``numbers`` the tuple of its ten numeric columns: the bytes that
    ``csv.writer`` writes for them, CRLF line ends included."""
    return "".join([
        f"{_CSV_NUMBERS % numbers},{_csv_text(error)},{_csv_text(status)}\r\n"
        for numbers, error, status in rows
    ])


def _row_numbers(row: ScanRow) -> tuple:
    """The ten numeric columns of a scan row's CSV line."""
    r = row.result
    if r is None:
        return (row.delta, row.depol, row.distance_km) + _NO_RESULT
    return (row.delta, row.depol, row.distance_km,
            r.p_det00, r.e_z, r.e_minus, r.e_plus, r.rate_naive, r.rate_twisted, r.pct_gain)


def scan_to_csv(rows: list, path) -> None:
    """Write scan rows as CSV with 12 significant digits per float.

    ``error`` holds the message of a failed row and is empty otherwise."""
    lines = _csv_lines((_row_numbers(row), row.error, row.status) for row in rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER + lines)


def _scan_csv(config: ScanConfig, path) -> tuple[int, int]:
    """Write ``scan_to_csv(scan(config), path)``'s bytes a chunk at a time
    and return the number of rows and of failed rows.  Each chunk's lines
    are written at once, so what is held is bounded by the chunk, not the
    grid.  An exception other than a point's
    :class:`~twistqkd.errors.QkdError` propagates and leaves the lines of
    the chunks before it.
    """

    def write(labels, fields, diagnostics, errors) -> int:
        table = np.vstack((labels, fields[_CSV_FIELDS]))  # the numeric columns of the lines
        bad = [i for i, error in enumerate(errors) if error is not None]
        table[3:, bad] = math.nan
        fh.write(_csv_lines(zip(
            map(tuple, table.T.tolist()),
            ("" if error is None else str(error) for error in errors),
            ("ok" if error is None else type(error).__name__ for error in errors),
        )))
        return len(bad)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_CSV_HEADER)
        failed = sum(_grid_chunks(config, write))
    return len(config.deltas) * len(config.depols) * config.distances.size, failed
