"""Command-line front end: evaluate any solution family on a grid.

Subcommands map one-to-one onto the solution families plus `verify`,
which runs the acceptance checks.  Output is a CSV or JSON table with
one row per grid point; floats are serialized with 17 significant
digits so parsing an emitted file reproduces the values bit-exactly.
Exit codes: 0 success, 2 invalid parameters, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import EvaluationError, NonConvergence, ValidationError
from .foxh import FoxHParams, _ROUTES
from .mittag import ml_contour, ml_eval, ml_series
from .quadrature import GridSpec
from .result import (DeltaConfig, EvalResult, LinearConfig, TimeConfig,
                     _accept, _check_order_pair, _check_positive, _check_rel_tol)
from .solution import _space_route, full_solution
from .time_factor import time_factor
from .verify import format_report, run_criteria

_ALL_METHODS = ("auto", "series", "contour", "quadrature")
_COLUMNS = ("coord", "re", "im", "abs2", "err_est", "method")


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("grid must be start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError("grid must be start:stop:count with numeric fields")
    if count > 100000:
        raise ValidationError("grid count must be <= 100000")
    return GridSpec(start, stop, count)


def _parse_pairs(text: str):
    if not text:
        return ()
    out = []
    for item in text.split(","):
        bits = item.split(":")
        if len(bits) != 2:
            raise ValidationError("gamma pairs must be a:W,a:W,...")
        try:
            out.append((float(bits[0]), float(bits[1])))
        except ValueError:
            raise ValidationError("gamma pair fields must be numeric")
    return tuple(out)


def _resolve_c_alpha(args) -> float:
    _check_positive(args.mass, "mass")
    if args.c_alpha is not None:
        return args.c_alpha
    if args.alpha == 2.0:
        # the routes' p is the momentum (phase e^(ipx/hbar)), so the kinetic
        # term p^2/(2 mass) has no hbar; a quotient past double range is inf,
        # which the config's c_alpha check refuses
        return 1.0 / (2.0 * args.mass)
    raise ValidationError(
        "--c-alpha is required unless alpha = 2 (where it defaults to 1/(2 mass))")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fse",
        description="closed-form solutions of the space-time fractional "
                    "Schrodinger equation on evaluation grids")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=str, required=True,
                        help="start:stop:count, endpoints inclusive")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--method", choices=_ALL_METHODS, default="auto")
    common.add_argument("--tol", type=float, default=1e-9)

    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--alpha", type=float, required=True)
    space.add_argument("--theta", type=float, default=0.0)
    space.add_argument("--c-alpha", dest="c_alpha", type=float, default=None)
    space.add_argument("--hbar", type=float, default=1.0)
    space.add_argument("--mass", type=float, default=1.0)

    well = argparse.ArgumentParser(add_help=False)
    well.add_argument("--gamma", type=float, default=1.0)
    well.add_argument("--k-norm", dest="k_norm", type=complex, default=1.0 + 0.0j)

    ramp = argparse.ArgumentParser(add_help=False)
    ramp.add_argument("--slope", type=float, default=1.0)

    p = sub.add_parser("time", parents=[common],
                       help="Caputo time factor on a t-grid")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--energy", type=float, default=-1.0)
    p.add_argument("--f0", type=complex, default=1.0 + 0.0j)

    p = sub.add_parser("delta", parents=[common, space, well],
                       help="point-potential bound state on an x-grid")
    p.add_argument("--energy", type=float, default=-1.0)

    p = sub.add_parser("linear", parents=[common, space, ramp],
                       help="linear-ramp wavefunction on an x-grid")
    p.add_argument("--energy", type=float, default=0.0)

    p = sub.add_parser("foxh", parents=[common],
                       help="H-function on a real argument grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--upper", type=str, default="",
                   help="numerator parameter pairs a:W,a:W,...")
    p.add_argument("--lower", type=str, required=True,
                   help="denominator parameter pairs b:W,b:W,...")

    p = sub.add_parser("ml", parents=[common],
                       help="one-parameter Mittag-Leffler on a real grid")
    p.add_argument("--beta", type=float, required=True)

    p = sub.add_parser("full", parents=[common, space, well, ramp],
                       help="separated solution f(t)*phi(x) on an x-grid")
    p.add_argument("--potential", choices=("delta", "linear"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--f0", type=complex, default=1.0 + 0.0j)
    p.add_argument("--energy", type=float, default=-1.0)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--only", type=str, default="",
                   help="comma-separated criterion numbers, default all")
    return parser


def _space_config(args, potential: str):
    """The delta or linear config and its JSON meta.  The skew check runs
    before c_alpha is resolved, so a bad theta given without --c-alpha is
    reported as the skew violation."""
    _check_order_pair(args.alpha, args.theta)
    meta = {"alpha": args.alpha, "theta": args.theta, "hbar": args.hbar,
            "c_alpha": _resolve_c_alpha(args), "energy": args.energy}
    if potential == "delta":
        cfg = DeltaConfig(gamma_strength=args.gamma, k_norm=args.k_norm, **meta)
        meta.update(gamma=args.gamma, k_norm=str(args.k_norm))
    else:
        cfg = LinearConfig(slope=args.slope, **meta)
        meta["slope"] = args.slope
    return cfg, meta


# Each command builds a point evaluator, coordinate -> EvalResult, and its
# JSON meta from the parsed arguments and the tolerance.

def _cmd_time(args, tol):
    cfg = TimeConfig(beta=args.beta, hbar=args.hbar, energy=args.energy,
                     f0=args.f0)
    meta = {"beta": args.beta, "hbar": args.hbar, "energy": args.energy,
            "f0": str(args.f0)}
    return lambda t: time_factor(cfg, t, rel_tol=tol), meta


def _cmd_space(args, tol):
    cfg, meta = _space_config(args, args.command)
    return _space_route(cfg, tol, args.method), meta


def _cmd_foxh(args, tol):
    params = FoxHParams(m=args.m, n=args.n, upper=_parse_pairs(args.upper),
                        lower=_parse_pairs(args.lower))
    ev = _ROUTES[args.method]
    meta = {"m": args.m, "n": args.n, "upper": args.upper, "lower": args.lower}
    return lambda z: ev(params, complex(z), tol), meta


def _cmd_ml(args, tol):
    meta = {"beta": args.beta}
    if args.method == "auto":
        return lambda z: ml_eval(args.beta, z, tol), meta
    # the raw routes' answers pass the acceptance rule of `fse foxh`
    route = ml_series if args.method == "series" else ml_contour
    what = "Mittag-Leffler " + args.method

    def point(z):
        val, err, work = route(args.beta, z, tol)
        return _accept(val, err, tol, what, args.method, work)
    return point, meta


def _cmd_full(args, tol):
    scfg, smeta = _space_config(args, args.potential)
    meta = {"potential": args.potential, "t": args.t, "beta": args.beta,
            "f0": str(args.f0), **smeta}
    return lambda x: full_solution(scfg, x, args.t, args.beta, args.f0,
                                   rel_tol=tol), meta


# command -> (evaluator builder, the --method values it accepts)
_COMMANDS = {"time": (_cmd_time, ("auto",)),
             "delta": (_cmd_space, _ALL_METHODS),
             "linear": (_cmd_space, _ALL_METHODS),
             "foxh": (_cmd_foxh, ("auto", "series", "contour")),
             "ml": (_cmd_ml, ("auto", "series", "contour")),
             "full": (_cmd_full, ("auto",))}


def _row(coord: float, r: EvalResult) -> tuple:
    """One output row in _COLUMNS order; a value whose |value|^2
    overflows is refused rather than written as inf."""
    v = r.value
    try:
        abs2 = abs(v) ** 2
    except OverflowError:
        raise NonConvergence("|value|^2 overflows at coordinate %g" % coord)
    return coord, v.real, v.imag, abs2, r.err_est, r.method


def _emit_csv(rows) -> str:
    lines = ["%.17g,%.17g,%.17g,%.17g,%.17g,%s" % row for row in rows]
    return "\n".join([",".join(_COLUMNS)] + lines) + "\n"


def _emit_json(command, meta, tol, method, rows) -> str:
    payload = {
        "meta": {"command": command, "version": __version__,
                 "tolerance": tol, "method": method, "config": meta},
        "rows": [dict(zip(_COLUMNS, row)) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_number(tok: str) -> bool:
    try:
        complex(tok)
    except ValueError:
        return False
    return True


def _mend_argv(argv):
    # argparse reads "--grid -3:3:121" or "--energy -1e-3" as a dangling
    # option; fuse such a pair into "--opt=value"
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and (
                prev == "--grid" or tok.startswith("-") and _is_number(tok)):
            out[-1] = prev + "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_mend_argv(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            only = None
            if args.only:
                try:
                    only = [int(s) for s in args.only.split(",")]
                except ValueError:
                    raise ValidationError("--only takes comma-separated integers")
            results = run_criteria(only)
            sys.stdout.write(format_report(results))
            return 0 if all(r.passed for _, r in results) else 1
        _check_rel_tol(args.tol)
        nodes = _parse_grid(args.grid).nodes()
        build, methods = _COMMANDS[args.command]
        if args.method not in methods:
            raise ValidationError("%s takes --method %s, not %s"
                                  % (args.command, "|".join(methods), args.method))
        point, meta = build(args, args.tol)
        rows = [_row(c, point(c)) for c in map(float, nodes)]
        if args.format == "json":
            text = _emit_json(args.command, meta, args.tol, args.method, rows)
        else:
            text = _emit_csv(rows)
        sys.stdout.write(text)
        sys.stdout.flush()
        return 0
    except ValidationError as exc:
        sys.stderr.write("error: invalid parameters: %s\n" % exc)
        return 2
    except EvaluationError as exc:
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 3
    except OSError as exc:
        sys.stderr.write("error: i/o failure: %s\n" % exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
