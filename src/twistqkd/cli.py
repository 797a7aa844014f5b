"""Command line interface.

Subcommands:

* ``keyrate``      one parameter point, twisted rate
* ``compare``      same point, twisted vs fixed-purification baseline
* ``scan``         grid scan from a JSON config, CSV output
* ``check-states`` tetrahedron diagnostics and state-matrix conditioning

Exit codes: 0 success, 2 invalid configuration, 3 singular or unphysical
inputs, 4 phase errors outside the rate formula's domain.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel import ChannelParams, build_gamma
from .errors import (
    InvalidParamsError,
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
    UnphysicalStatsError,
)
from .keyrate import ScanConfig, keyrate_point, read_config_doc, scan, scan_to_csv
from .states import ModelParams, model_states, tetrahedron_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_PHASE = 4


def _parse_priors(text: str):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise InvalidParamsError(f"priors must be comma-separated numbers: {exc}") from exc
    if len(values) != 4:
        raise InvalidParamsError(f"priors need exactly 4 entries, got {len(values)}")
    return values


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, required=True, help="modulation offset (radians)")
    parser.add_argument("--depol", type=float, required=True, help="depolarizing probability")
    parser.add_argument("--eta", type=float, required=True, help="overall detection efficiency")
    parser.add_argument("--dark", type=float, required=True, help="dark count probability per detector")
    parser.add_argument("--distance", type=float, required=True, help="sender-to-node distance (km)")
    parser.add_argument("--divisor", type=float, default=20.0, help="attenuation exponent divisor")
    parser.add_argument("--f", type=float, default=1.0, help="error correction efficiency")
    parser.add_argument("--priors", type=str, default="0.25,0.25,0.25,0.25",
                        help="comma-separated send probabilities")
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")


def _point_result(args):
    priors = _parse_priors(args.priors)
    params = ModelParams(delta=args.delta, depol=args.depol)
    alice = model_states(params, priors)
    bob = model_states(params, priors)
    channel = ChannelParams(
        eta=args.eta,
        p_dark=args.dark,
        distance_km=args.distance,
        atten_divisor=args.divisor,
    )
    return keyrate_point(alice, bob, channel, f=args.f)


def _result_doc(result) -> dict:
    return {
        "p_det00": result.p_det00,
        "e_Z": result.e_z,
        "e_minus": result.e_minus,
        "e_plus": result.e_plus,
        "rate_twisted": result.rate_twisted,
        "rate_naive": result.rate_naive,
        "pct_gain": result.pct_gain,
        "diagnostics": dict(result.diagnostics),
    }


def _cmd_point(args) -> int:
    doc = _result_doc(_point_result(args))
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for key in args.lines:
            value = f"{doc[key]:.6g} %" if key == "pct_gain" else f"{doc[key]:.12g}"
            print(f"{key:<12} = {value}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    config = ScanConfig.from_json_file(args.config)
    rows = scan(config)
    out = args.out or config.out
    if out is None:
        raise InvalidParamsError("no output path: pass --out or set 'out' in the config")
    scan_to_csv(rows, out)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {out} ({failed} failed)")
    return EXIT_OK


def _cmd_check_states(args) -> int:
    doc = read_config_doc(args.config)
    if isinstance(doc, dict):
        doc.pop("stats_csv", None)  # the ensembles do not depend on the statistics
    config = ScanConfig.from_dict(doc)
    ok = True
    for delta in config.deltas:
        for depol in config.depols:
            alice, bob = config.ensembles_for(delta, depol)
            gamma = build_gamma(alice, bob)
            print(f"delta={delta:g} depol={depol:g}")
            for name, ens in (("alice", alice), ("bob", bob)):
                diag = tetrahedron_check(ens)
                verdict = "pass" if diag.passed else "FAIL"
                print(
                    f"  {name}: tetrahedron {verdict}"
                    f" (|det|={abs(diag.determinant):.6g}, cond={diag.cond:.6g})"
                )
                ok = ok and diag.passed
            print(f"  state matrix condition number = {gamma.cond:.6g}")
    return EXIT_OK if ok else EXIT_SINGULAR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistqkd",
        description="Key rates for MDI QKD with mixed qubit signal states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("keyrate", help="optimized key rate at one parameter point")
    _add_point_args(p_rate)
    p_rate.set_defaults(
        func=_cmd_point, lines=("p_det00", "e_Z", "e_minus", "e_plus", "rate_twisted")
    )

    p_cmp = sub.add_parser("compare", help="twisted vs fixed-purification rate")
    _add_point_args(p_cmp)
    p_cmp.set_defaults(
        func=_cmd_point, lines=("p_det00", "e_Z", "rate_twisted", "rate_naive", "pct_gain")
    )

    p_scan = sub.add_parser("scan", help="grid scan from a JSON config")
    p_scan.add_argument("--config", required=True, help="JSON config path")
    p_scan.add_argument("--out", help="output CSV path (overrides config)")
    p_scan.set_defaults(func=_cmd_scan)

    p_check = sub.add_parser("check-states", help="ensemble diagnostics from a JSON config")
    p_check.add_argument("--config", required=True, help="JSON config path")
    p_check.set_defaults(func=_cmd_check_states)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParamsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularGammaError, UnphysicalStatsError, NoDetectionsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except InvalidPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHASE
    except QkdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
