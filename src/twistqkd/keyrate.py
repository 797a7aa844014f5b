"""Full key-rate pipeline, six-state rate formula, and parameter scans.

One parameter point runs: simulate (or ingest) detection statistics, build
the 16x16 state matrix, recover the measurement node's Gram matrix, read
off the key-basis statistics, optimize the twisted phase errors (and the
fixed-purification baseline), then evaluate the six-state key rate for
both.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr

from .channel import ChannelParams, DetectionStats, build_gamma, detection_stats
from .errors import (
    DomainError,
    InvalidParamsError,
    InvalidPhaseError,
    QkdError,
    SingularGammaError,
)
from .evegram import key_basis_stats, solve_eve
from .states import (
    ModelParams,
    SignalEnsemble,
    ensemble_from_dict,
    model_states,
    tetrahedron_check,
)
from .twist import TwistProblem, naive_phase_errors, optimize_phase_errors

_LN2 = math.log(2.0)
_EZ_FLOOR = 1e-12
_PHASE_TOL = 1e-9


def binary_entropy(x: float) -> float:
    """Binary entropy ``h2(x) = -x log2 x - (1-x) log2 (1-x)``.

    Accepts arguments within 1e-12 of [0, 1] (clamped); anything further out
    raises ``DomainError``.  ``h2(0) = h2(1) = 0``.
    """
    x = float(x)
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return float((entr(x) + entr(1.0 - x)) / _LN2)


def _six_state_raw(p_det00: float, e_z: float, e_minus: float, e_plus: float, f: float) -> float:
    """The unclamped six-state rate; inputs assumed within their domains."""
    if e_z < _EZ_FLOOR:
        bit_flip_term = 0.0
        phase_term = (1.0 - e_z) * binary_entropy(1.0 - e_plus / 2.0)
    else:
        bit_flip_term = e_z * binary_entropy((1.0 + e_minus / e_z) / 2.0)
        if 1.0 - e_z < _EZ_FLOOR:
            phase_term = 0.0
        else:
            arg = (1.0 - (e_plus + e_z) / 2.0) / (1.0 - e_z)
            phase_term = (1.0 - e_z) * binary_entropy(min(max(arg, 0.0), 1.0))
    return p_det00 * (1.0 - f * binary_entropy(e_z) - bit_flip_term - phase_term)


def six_state_rate(
    p_det00: float, e_z: float, e_minus: float, e_plus: float, f: float = 1.0
) -> float:
    """Six-state key rate, clamped at zero.

    ``R = p_det00 [1 - f h2(e_Z) - e_Z h2((1 + e_-/e_Z)/2)
                     - (1-e_Z) h2((1 - (e_+ + e_Z)/2)/(1-e_Z))]``

    requires ``0 <= e_minus <= e_Z <= 1`` and ``e_Z <= e_plus <= 1`` within
    1e-9; ``f`` multiplies the error-correction term ``h2(e_Z)``.  For
    ``e_Z`` below 1e-12 the bit-flip term vanishes and the last term uses
    its limit ``h2(1 - e_plus/2)``.
    """
    checks = (
        (e_minus >= -_PHASE_TOL, f"e_minus = {e_minus} < 0"),
        (e_minus <= e_z + _PHASE_TOL, f"e_minus = {e_minus} > e_z = {e_z}"),
        (-_PHASE_TOL <= e_z <= 1.0 + _PHASE_TOL, f"e_z = {e_z} outside [0, 1]"),
        (e_plus >= e_z - _PHASE_TOL, f"e_plus = {e_plus} < e_z = {e_z}"),
        (e_plus <= 1.0 + _PHASE_TOL, f"e_plus = {e_plus} > 1"),
    )
    for ok, msg in checks:
        if not ok:
            raise InvalidPhaseError(msg)
    e_z = min(max(e_z, 0.0), 1.0)
    e_minus = min(max(e_minus, 0.0), e_z)
    e_plus = min(max(e_plus, e_z), 1.0)
    return max(_six_state_raw(p_det00, e_z, e_minus, e_plus, f), 0.0)


@dataclass
class KeyRateResult:
    """Key rates and intermediate quantities for one parameter point.

    Rates are clamped at zero for reporting; the raw (possibly negative)
    formula values live in ``diagnostics`` together with condition numbers,
    the PSD repair magnitude and the unclamped twist bounds.
    """

    p_det00: float
    e_z: float
    e_minus: float
    e_plus: float
    rate_twisted: float
    rate_naive: float
    pct_gain: float
    diagnostics: dict = field(default_factory=dict)


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
    state matrix and the purification constraints.
    """
    tetra_a = tetrahedron_check(alice)
    tetra_b = tetrahedron_check(bob)
    if not tetra_a.passed or not tetra_b.passed:
        bad = "Alice" if not tetra_a.passed else "Bob"
        raise SingularGammaError(
            f"{bad}'s ensemble fails the tetrahedron condition; "
            "detection statistics cannot determine the Gram matrix"
        )
    if stats is None:
        stats = detection_stats(alice, bob, channel)
    gamma = build_gamma(alice, bob)
    eve = solve_eve(gamma, stats)
    p_det00, e_z = key_basis_stats(stats)

    problem = TwistProblem.from_key_states(
        alice.key_states(), bob.key_states(), eve, p_det00, e_z
    )
    optimized = optimize_phase_errors(problem)
    naive = naive_phase_errors(alice.key_states(), bob.key_states(), eve, p_det00)

    raw_twisted = _six_state_raw(p_det00, e_z, optimized.e_minus, optimized.e_plus, f)
    rate_twisted = six_state_rate(p_det00, e_z, optimized.e_minus, optimized.e_plus, f)
    # The rate formula is even in e_minus (h2((1+t)/2) = h2((1-t)/2)), so the
    # signed baseline value enters through its magnitude.
    naive_minus = min(abs(naive.e_minus), e_z)
    raw_naive = _six_state_raw(p_det00, e_z, naive_minus, naive.e_plus, f)
    rate_naive = six_state_rate(p_det00, e_z, naive_minus, naive.e_plus, f)

    if rate_naive > 0.0:
        pct_gain = 100.0 * (rate_twisted - rate_naive) / rate_naive
    elif rate_twisted > 0.0:
        pct_gain = math.inf
    else:
        pct_gain = 0.0

    return KeyRateResult(
        p_det00=p_det00,
        e_z=e_z,
        e_minus=optimized.e_minus,
        e_plus=optimized.e_plus,
        rate_twisted=rate_twisted,
        rate_naive=rate_naive,
        pct_gain=pct_gain,
        diagnostics={
            "gamma_cond": gamma.cond,
            "clipped_mass": eve.clipped_mass,
            "tetra_alice_det": tetra_a.determinant,
            "tetra_bob_det": tetra_b.determinant,
            "twist_bound_minus": optimized.bound_minus,
            "twist_bound_plus": optimized.bound_plus,
            "rate_twisted_raw": raw_twisted,
            "rate_naive_raw": raw_naive,
            "naive_e_minus_signed": naive.e_minus,
            "naive_e_plus": naive.e_plus,
        },
    )


@dataclass
class ScanConfig:
    """Grid of model/channel parameters for a key-rate scan.

    ``deltas`` x ``depols`` x ``distances`` are evaluated in that nesting
    order.  Explicit ensembles, when given, override the (delta, p) model at
    every grid point, and a measured-statistics CSV replaces the channel
    simulation at every grid point.
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
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(f"scan grid values must be numbers: {exc}") from exc
        if not (len(self.deltas) and len(self.depols) and self.distances.size):
            raise InvalidParamsError("scan grid must be nonempty")

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

        stats = None
        if "stats_csv" in doc:
            stats = DetectionStats.from_csv(doc["stats_csv"])

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
            out=doc.get("out"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ScanConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidParamsError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

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
    "status",
)


def scan(config: ScanConfig) -> list[ScanRow]:
    """Evaluate the pipeline over the whole grid.

    Grid points are independent and evaluated in deterministic order
    (delta, then depol, then distance).  A point that raises a
    :class:`~twistqkd.errors.QkdError` is recorded in its row and the scan
    continues; any other exception propagates.
    """
    rows = []
    for delta in config.deltas:
        for depol in config.depols:
            alice, bob = config.ensembles_for(delta, depol)
            for distance in config.distances:
                row = ScanRow(delta, depol, float(distance), result=None, status="ok")
                try:
                    row.result = keyrate_point(
                        alice,
                        bob,
                        config.channel_for(distance),
                        f=config.f,
                        stats=config.stats,
                    )
                except QkdError as exc:
                    row.status = type(exc).__name__
                    row.error = str(exc)
                rows.append(row)
    return rows


def _row_values(row: ScanRow) -> list:
    r = row.result
    nums = [row.delta, row.depol, row.distance_km]
    if r is None:
        nums += [math.nan] * 7
    else:
        nums += [r.p_det00, r.e_z, r.e_minus, r.e_plus, r.rate_naive, r.rate_twisted, r.pct_gain]
    return [f"{v:.12g}" for v in nums] + [row.status]


def scan_to_csv(rows: list, path) -> None:
    """Write scan rows as CSV with 12 significant digits per float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_COLUMNS)
        for row in rows:
            writer.writerow(_row_values(row))
