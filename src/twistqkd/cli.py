"""Command line interface.

Subcommands:

* ``keyrate``      one parameter point, twisted rate
* ``compare``      same point, twisted vs fixed-purification baseline
* ``scan``         grid scan from a JSON config, CSV output streamed in chunks
* ``check-states`` tetrahedron diagnostics and state-matrix conditioning

Exit codes: 0 success, 2 invalid configuration, 3 singular or unphysical
inputs, 4 phase errors outside the rate formula's domain.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .channel import ChannelParams
from .errors import (
    InvalidParamsError,
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
    UnphysicalStatsError,
)
from .keyrate import ScanConfig, _path_field, _scan_csv, keyrate_point, read_config_doc
from .states import ModelParams, _tetrahedra, _usable_pair, model_states

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_PHASE = 4

# The exit code of each error class that does not exit EXIT_CONFIG.
_EXIT_CODES = {SingularGammaError: EXIT_SINGULAR, UnphysicalStatsError: EXIT_SINGULAR,
               NoDetectionsError: EXIT_SINGULAR, InvalidPhaseError: EXIT_PHASE}

_VERDICTS = ("FAIL", "pass")


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, required=True, help="modulation offset (radians)")
    parser.add_argument("--depol", type=float, required=True, help="depolarizing probability")
    parser.add_argument("--eta", type=float, required=True, help="overall detection efficiency")
    parser.add_argument("--dark", type=float, required=True, help="dark count probability per detector")
    parser.add_argument("--distance", type=float, required=True,
                        help="Alice-Bob distance (km) with the node midway; "
                             "with --divisor 10, the sender-to-node distance")
    parser.add_argument("--divisor", type=float, default=20.0, help="attenuation exponent divisor")
    parser.add_argument("--f", type=float, default=1.0, help="error correction efficiency")
    parser.add_argument("--priors", type=str, default="0.25,0.25,0.25,0.25",
                        help="comma-separated send probabilities")
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")


def _point_result(args):
    # model_states owns the priors' rule: four numbers summing to 1
    ensemble = model_states(ModelParams(delta=args.delta, depol=args.depol), args.priors.split(","))
    channel = ChannelParams(
        eta=args.eta,
        p_dark=args.dark,
        distance_km=args.distance,
        atten_divisor=args.divisor,
    )
    return keyrate_point(ensemble, ensemble, channel, f=args.f)


def _result_doc(result) -> dict:
    return {"e_Z" if name == "e_z" else name: value for name, value in asdict(result).items()}


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
    doc = read_config_doc(args.config)
    config = ScanConfig.from_dict(doc)
    out = args.out or _path_field(doc, "out")  # the config's `out` is judged only when used
    if out is None:
        raise InvalidParamsError("no output path: pass --out or set 'out' in the config")
    rows, failed = _scan_csv(config, out)
    print(f"wrote {rows} rows to {out} ({failed} failed)")
    return EXIT_OK


def _cmd_check_states(args) -> int:
    doc = read_config_doc(args.config)
    if isinstance(doc, dict):
        doc.pop("stats_csv", None)  # the ensembles do not depend on the statistics
    config = ScanConfig.from_dict(doc)
    # Every pair's ensembles, as the config built and checked them: (2, M, ...).
    _, det, cond = _tetrahedra(*config._ensembles)
    # Each party paired with itself (its tetrahedron check), then the pair: the kernel's test.
    passed = _usable_pair(cond[[0, 1, 0]], cond[[0, 1, 1]]).tolist()
    lines = []
    for k, (delta, depol) in enumerate(config._pairs().T.tolist()):
        lines.append(f"delta={delta:g} depol={depol:g}")
        for p, name in enumerate(("alice", "bob")):
            lines.append(f"  {name}: tetrahedron {_VERDICTS[passed[p][k]]}"
                         f" (|det|={abs(det[p, k]):.6g}, cond={cond[p, k]:.6g})")
        lines.append(f"  state matrix condition number = {cond[0, k] * cond[1, k]:.6g}"
                     f" ({_VERDICTS[passed[2][k]]})")
    print("\n".join(lines))
    return EXIT_OK if all(passed[2]) else EXIT_SINGULAR


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
    except (QkdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_CONFIG)


if __name__ == "__main__":
    raise SystemExit(main())
