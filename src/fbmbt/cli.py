"""Command-line front end.

Subcommands
-----------
generate   sample an fBm or BM path and write it (binary+header or CSV)
skeleton   draw the exact level-n walk and hitting times over [0, horizon]
verify     Monte Carlo check of one branch of the change-of-variable formula
scaling    quadratic/cubic variation scaling reports for plain fBm
selftest   run the deterministic identity checks (C1-C4, C12's closed form)

Exit codes: 0 success, 1 usage/config error, 2 acceptance-threshold
failure, 3 runtime or I/O error.  FBMBT_OUTDIR sets the default output
directory; ``--config FILE`` (key=value lines) overrides parsed flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import calculus, fgn, scaling, skeleton
from .variations import function_by_name

__all__ = ["main", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ACCEPTANCE = 2
EXIT_RUNTIME = 3

ENV_OUTDIR = "FBMBT_OUTDIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fbmbt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value file overriding flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--outdir", default=None,
                       help=f"output directory (default: ${ENV_OUTDIR} or .)")
        p.add_argument("-o", "--out", default=None, help="output file")

    g = sub.add_parser("generate", help="sample a path and write it")
    common(g)
    g.add_argument("--process", choices=("fbm", "bm"), required=True)
    g.add_argument("--hurst", type=float)
    g.add_argument("--spacing", type=float, required=True)
    g.add_argument("--half-extent", type=int)
    g.add_argument("--horizon", type=float)
    g.add_argument("--format", choices=("binary", "csv"), default="binary")

    s = sub.add_parser("skeleton", help="draw an exact skeleton and write it")
    common(s)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--horizon", type=float, required=True,
                   help="the skeleton has floor(2^level * horizon) steps")

    v = sub.add_parser("verify", help="verify one branch of the formula")
    common(v)
    v.add_argument("--branch", choices=("supercritical", "critical", "subcritical"),
                   required=True)
    v.add_argument("--hurst", type=float, required=True)
    v.add_argument("--f", dest="fname", default="sin")
    v.add_argument("--t", type=float, default=1.0)
    v.add_argument("--levels", default="8,10,12,14",
                   help="comma-separated increasing levels")
    v.add_argument("--replicas", type=int, default=500)
    v.add_argument("--csv", default=None,
                   help="per-level CSV path (default: next to the JSON report)")
    v.add_argument("--no-gate", action="store_true",
                   help="report only; skip acceptance thresholds")

    c = sub.add_parser("scaling", help="fBm power-variation scaling report")
    common(c)
    c.add_argument("--hurst", type=float, required=True)
    c.add_argument("--power", type=int, choices=(2, 3), required=True)
    c.add_argument("--t", type=float, default=1.0)
    c.add_argument("--levels", default="10,12,14")
    c.add_argument("--replicas", type=int, default=100)
    c.add_argument("--csv", default=None,
                   help="per-level CSV path (default: next to the JSON report)")

    t = sub.add_parser("selftest", help="run the deterministic identity checks")
    t.add_argument("--seed", type=int, default=0)
    return parser


def _apply_config_file(parser: _Parser, args: argparse.Namespace, path: str) -> None:
    """key=value lines override parsed flags, converted and checked as the
    flags are; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or not hasattr(args, dest):
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            value = value.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: invalid {key} value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"{path}:{lineno}: {key} must be one of {tuple(action.choices)}")
        setattr(args, dest, value)


def _parse_levels(text: str) -> tuple:
    """Comma-separated integers; the library checks their order and range."""
    try:
        return tuple(int(x) for x in str(text).split(",") if x.strip())
    except ValueError:
        raise UsageError(f"bad levels list {text!r}") from None


def _out_of_memory(levels: tuple, t: float) -> UsageError:
    """A layout the checks accept but this machine cannot hold; the library
    cannot know the memory, so only the command line turns it into exit 1."""
    return UsageError(f"not enough memory for the draws at the top level "
                      f"{levels[-1]} with t = {t}; lower t or the levels")


def _in_outdir(args: argparse.Namespace, name: str) -> Path:
    """``name`` under --outdir (default: $FBMBT_OUTDIR or .); an absolute
    name stands as given."""
    return Path(args.outdir or os.environ.get(ENV_OUTDIR, ".")) / name


def _require_out(args: argparse.Namespace, default_name: str) -> Path:
    """--out, or ``default_name`` when it is not given, under --outdir,
    with its directory made."""
    out = _in_outdir(args, default_name if args.out is None else args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args: argparse.Namespace, report, default_name: str, notes) -> None:
    """Save a per-level report as JSON and its CSV table (next to the JSON
    unless --csv relocates it), then print each level's row, the (name,
    value) ``notes`` and where both files went."""
    out = _require_out(args, default_name)
    report.save(out)
    csv_path = _in_outdir(args, args.csv) if args.csv else out.with_suffix(".csv")
    csv_path.write_text(report.per_level_csv(), encoding="utf-8")
    for lev, row in zip(report.levels, report.per_level):
        cells = "  ".join(f"{k}={v:.6g}" for k, v in sorted(row.items()))
        print(f"level {lev}: {cells}")
    for k, v in notes:
        print(f"{k} = {v:.6g}")
    print(f"wrote {out} and {csv_path}")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.process == "fbm":
        if args.hurst is None or args.half_extent is None:
            raise UsageError("generate --process fbm needs --hurst and --half-extent")
        try:
            path = fgn.sample_fbm_two_sided(args.hurst, args.spacing,
                                            args.half_extent, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        default = f"fbm_h{args.hurst}_seed{args.seed}.path"
    else:
        if args.horizon is None:
            raise UsageError("generate --process bm needs --horizon")
        try:
            path = fgn.sample_bm(args.horizon, args.spacing, args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        default = f"bm_seed{args.seed}.path"
    out = _require_out(args, default)
    if args.format == "binary":
        fgn.write_path(path, out)
    else:
        fgn.write_path_csv(path, out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_skeleton(args: argparse.Namespace) -> int:
    level, horizon = args.level, args.horizon
    if level < 1:
        raise UsageError("level must be >= 1")
    try:
        fgn._check_positive_finite("horizon", horizon)
        steps = fgn.floor_steps(level, horizon)
        if steps == 0:
            raise ValueError(f"floor(2^{level} * {horizon}) = 0 steps; "
                             "the skeleton needs at least one")
        sk = skeleton.sample_walk_exact(level, steps, args.seed)
    except OverflowError:
        raise UsageError(f"floor(2^{level} * {horizon}) steps overflow a float") from None
    except MemoryError:
        raise UsageError(f"not enough memory for floor(2^{level} * {horizon}) steps; "
                         "lower the level or the horizon") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _require_out(args, f"skeleton_n{level}_seed{args.seed}.skel")
    skeleton.write_skeleton(sk, out)
    print(f"wrote {out} ({sk.n_steps} steps, mode={sk.mode})")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    levels = _parse_levels(args.levels)
    try:
        vc = calculus.VerifyConfig(
            hurst=args.hurst, f=function_by_name(args.fname), t=args.t,
            levels=levels, replicas=args.replicas, seed=args.seed,
        )
        report = calculus.verify_branch(args.branch, vc)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError:
        raise _out_of_memory(levels, args.t) from None
    _write_report(args, report, f"verify_{args.branch}_seed{args.seed}.json",
                  sorted(report.extra.items()))
    if args.no_gate:
        return EXIT_OK
    failures = calculus.evaluate_gate(report)
    for msg in failures:
        print(f"ACCEPTANCE FAILURE: {msg}", file=sys.stderr)
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    levels = _parse_levels(args.levels)
    check = scaling.check_quadratic if args.power == 2 else scaling.check_cubic
    try:
        report = check(args.hurst, args.t, levels, args.replicas, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError:
        raise _out_of_memory(levels, args.t) from None
    sigma2 = report.estimated_sigma2
    _write_report(args, report, f"scaling_p{args.power}_seed{args.seed}.json",
                  [] if sigma2 is None else [("estimated_sigma2", sigma2)])
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    """The identity checks of fbmbt.criteria at --seed; exit 0 iff all hold."""
    from .criteria import IDENTITIES

    failed = False
    for check in IDENTITIES:
        result = check(args.seed)
        print(f"{'PASS' if result.ok else 'FAIL'}  {result}")
        failed |= not result.ok
    return EXIT_ACCEPTANCE if failed else EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "skeleton": cmd_skeleton,
    "verify": cmd_verify,
    "scaling": cmd_scaling,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config_file(parser, args, args.config)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # pragma: no cover
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
