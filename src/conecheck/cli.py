"""Command-line interface.

JSON-lines on stdout (one report per line) so shell pipelines can filter
verdicts; a human-readable rendering sits behind ``--pretty``.  Exit codes:
0 no violation / certified / all criteria pass, 1 violation or refusal (a
report with a witness), 2 usage error, 3 numeric failure.  Seeds come only
from flags or a config file, never from the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .catalog import PropertyLabel, builtin_entries, lookup
from .certify import METHODS
from .checkers import CheckConfig, check, refute
from .errors import ConeCheckError, NumericFailure, ParameterError
from .suite import build_manifest, manifest_bytes

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# the types argparse gives the numeric flags; a --config value is converted
# to its flag's type, so a config file and the flag write the same report.
# ``order_cap`` has no flag: only a config file sets it, for check and refute
_CONFIG_TYPES = {"trials": int, "seed": int, "dim": int, "scale": float, "order_cap": int}


def _parse_param(text: str):
    if "=" not in text:
        raise ParameterError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if "," in raw:
        try:
            return key, [float(tok) for tok in raw.split(",")]
        except ValueError:
            return key, raw
    try:
        return key, float(raw)
    except ValueError:
        return key, raw


def _output(report, args):
    """The report as one JSON line, to ``--json PATH`` or else stdout;
    ``--pretty`` also prints one aligned row per key to stdout, in place of
    the stdout line."""
    if args.pretty:
        for k, v in sorted(report.to_json().items()):
            print(f"{k:>14}: {json.dumps(v, sort_keys=True)}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(report.json_line() + "\n")
    elif not args.pretty:
        print(report.json_line())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecheck",
        description="Property checks and numeric certificates for functions on convex cones.",
    )
    parser.add_argument("--version", action="version", version=f"conecheck {__version__}")
    parser.add_argument("--config", help="JSON file with default flag values (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog operations")
    cat.add_argument("action", choices=["list"])
    cat.add_argument("--pretty", action="store_true")

    def _common(p, with_property=True):
        if with_property:
            p.add_argument("entry", help="catalog entry id")
            p.add_argument("--property", required=True,
                           help="a property label ("
                           + ", ".join(label.value for label in PropertyLabel)
                           + ") or a form-table expression such as 'completely-monotone[k=5]'")
            p.set_defaults(order_cap=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--scale", type=float, default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--param", action="append", default=[], metavar="K=V")
        p.add_argument("--json", dest="json_path", default=None, metavar="PATH")
        p.add_argument("--pretty", action="store_true")

    chk = sub.add_parser("check", help="randomized property check")
    _common(chk)
    ref = sub.add_parser("refute", help="counterexample search over the scale ladder")
    _common(ref)

    cert = sub.add_parser("certify", help="sampled sufficient-condition certificate")
    cert.add_argument("entry")
    cert.add_argument("--method", required=True, choices=list(METHODS))
    for _, flag, choices in METHODS.values():
        cert.add_argument(f"--{flag}", choices=list(choices))
    _common(cert, with_property=False)

    ste = sub.add_parser("suite", help="run the acceptance suite and write its manifest")
    ste.add_argument("--seed", type=int, default=None)
    ste.add_argument("--json", dest="json_path", default=None, metavar="PATH")

    return parser


def _config_from_args(args, **defaults) -> CheckConfig:
    kwargs = defaults
    for key in ("trials", "seed", "scale", "order_cap"):
        if getattr(args, key, None) is not None:
            kwargs[key] = getattr(args, key)
    return CheckConfig(**kwargs)


def _collect_params(args) -> dict | None:
    if not args.param:
        return None
    return dict(_parse_param(p) for p in args.param)


def _flag_keys(parser: argparse.ArgumentParser) -> set:
    """The destinations of every subcommand's arguments, and the defaults a
    subcommand sets without a flag: the keys a config file may set."""
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {key for p in subcommands.choices.values()
            for key in [a.dest for a in p._actions] + list(p._defaults)} - {"help"}


def _apply_config_file(args, parser: argparse.ArgumentParser):
    """Set the unset flags of ``args`` from ``--config``.  A key that no
    subcommand takes is a usage error; one of another subcommand's flags is
    ignored."""
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config file {args.config!r}: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ParameterError(f"config file {args.config!r} must hold a JSON object")
    unknown = sorted(set(defaults) - _flag_keys(parser))
    if unknown:
        raise ParameterError(
            f"config file {args.config!r}: no subcommand takes the key(s) {', '.join(unknown)}")
    for key, value in defaults.items():
        if hasattr(args, key) and getattr(args, key) is None:
            want = _CONFIG_TYPES.get(key)
            if want:
                # a JSON integer also stands for a float, never the reverse
                if isinstance(value, bool) or not isinstance(value, (int, want)):
                    raise ParameterError(
                        f"config file {args.config!r}: {key} must be {want.__name__}, "
                        f"got {value!r}")
                value = want(value)
            setattr(args, key, value)


def _cmd_catalog(args) -> int:
    for entry in builtin_entries():
        obj = entry.to_json()
        if args.pretty:
            print(f"{obj['id']:<22} {obj['domain']['family']:<18} "
                  + " ".join(f"{k}:{v}" for k, v in obj["status"].items()))
        else:
            print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def _cmd_run(args) -> int:
    """``check``, ``refute`` or ``certify``: the report to the output, and
    exit 1 when it holds a witness."""
    lookup(args.entry)  # surfaces unknown ids as usage errors before running
    if args.command == "certify":
        run, flag, choices = METHODS[args.method]
        arg = getattr(args, flag)
        if not arg:
            raise ParameterError(f"--method {args.method} needs --{flag} {'|'.join(choices)}")
        # --trials counts the sampled points, 200 when unset
        cfg = _config_from_args(args, trials=200)
    else:
        run = refute if args.command == "refute" else check
        arg, cfg = args.property, _config_from_args(args)
    report = run(args.entry, arg, cfg, params=_collect_params(args), dim=args.dim)
    _output(report, args)
    return EXIT_VIOLATION if report.found_violation else EXIT_OK


def _cmd_suite(args) -> int:
    seed = args.seed if args.seed is not None else 0
    sink = open(args.json_path, "wb") if args.json_path else None  # fail fast on bad paths
    try:
        started = time.perf_counter()
        manifest = build_manifest(seed=seed, command=f"suite --seed {seed}")
        elapsed = time.perf_counter() - started
        for crit in manifest["criteria"]:
            status = "PASS" if crit["passed"] else "FAIL"
            print(f"criterion {crit['criterion']:>2} [{status}] {crit['title']}", file=sys.stderr)
        print(f"suite wall time: {elapsed:.1f}s", file=sys.stderr)
        if sink is not None:
            sink.write(manifest_bytes(manifest))
        else:
            for crit in manifest["criteria"]:
                print(json.dumps(crit, sort_keys=True))
    finally:
        if sink is not None:
            sink.close()
    return EXIT_OK if manifest["passed"] else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args, parser)
        if args.command == "catalog":
            return _cmd_catalog(args)
        if args.command in ("check", "refute", "certify"):
            return _cmd_run(args)
        if args.command == "suite":
            return _cmd_suite(args)
        parser.error(f"unknown command {args.command!r}")
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConeCheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
