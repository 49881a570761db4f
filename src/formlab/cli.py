"""Command-line front end: experiment runs, the check battery, summaries.

Exit codes: 0 success, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, harness
from . import sieve as sieve_mod
from .errors import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="formlab")
    ap.add_argument("--version", action="version", version=f"formlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("sieve", help="write a smallest-prime-factor table")
    sv.add_argument("--bound", type=int, required=True)
    sv.add_argument("--out", type=str, required=True)

    # one subcommand per protocol, one flag per field it reads, never abbreviated
    for kind, protocol in harness.PROTOCOLS.items():
        sp = sub.add_parser(kind, help=protocol.help, allow_abbrev=False)
        defaults = harness.ExperimentConfig(kind=kind, **protocol.defaults)
        for name in protocol.fields + harness.COMMON_FIELDS:
            text = "; ".join(filter(None, (harness.FIELD_SPECS[name].get("help"),
                                           f"default {getattr(defaults, name)}",
                                           harness.range_text(kind, name))))
            typ = harness.FIELD_TYPES[name]
            sp.add_argument("--" + name.replace("_", "-"), dest=name, default=None, help=text,
                            **({"action": "store_true"} if typ is bool else {"type": typ}))
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file; explicit flags override it")

    sm = sub.add_parser("summarize", help="quantile table of a results.jsonl")
    sm.add_argument("path", type=str)
    return ap


def _collect_settings(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    cli = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if args.config:
        file_map = harness.parse_config_file(args.config)
        kind = file_map.pop("kind", None)
        if kind is not None and kind != args.command:
            raise ConfigError(
                f"config file is for kind {kind!r} but the subcommand is {args.command!r}"
            )
        merged = dict(file_map)
        merged.update(cli)
        return merged
    return cli


def _run_experiment(args: argparse.Namespace) -> int:
    cfg = harness.make_config(args.command, _collect_settings(args))
    manifest = harness.run(cfg)
    return harness.PROTOCOLS[cfg.kind].report(cfg, manifest)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sieve":
            if not 2 <= args.bound <= sieve_mod.MAX_BOUND:
                raise ConfigError(f"sieve bound must be between 2 and {sieve_mod.MAX_BOUND}")
            # open the output first, so an unwritable path costs no build
            try:
                fh = open(args.out, "wb")
            except OSError as exc:
                raise ConfigError(f"cannot write sieve file: {exc}") from None
            with fh:
                sieve_mod.build_sieve(args.bound).write(fh)
            print(f"wrote {args.out} (bound {args.bound})")
            return 0
        if args.command == "summarize":
            table = harness.summarize(args.path)
            print(json.dumps(table, sort_keys=True, indent=1))
            return 0
        return _run_experiment(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
