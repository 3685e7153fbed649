"""Command line front end.

Subcommands:
  simulate <config.json>   run the scenario a config describes
  validate <config.json>   check a config without running it
  preset list|show         inspect the bundled detector presets
  keyrate ...              evaluate the multi-channel key-rate formula

Every run prints one key=value line per result metric on stdout and writes
only the output files the config declares. Exit codes: 0 success, 1 bad
config or arguments (the message names the field), 2 runtime or fit
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .analysis import AnalysisError
from .config import SCENARIOS, ConfigError, load_config
from .instruments import InstrumentError
from .presets import available_presets, preset

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _emit(lines) -> None:
    for key, value in lines:
        print(f"{key}={_fmt(value)}")


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    lines, texts = SCENARIOS[cfg["kind"]].run(cfg)
    _emit(lines)
    for key, path in cfg["outputs"].items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[key])
    return 0


def _cmd_validate(args) -> int:
    _emit([("valid", True), ("kind", load_config(args.config)["kind"])])
    return 0


def _cmd_preset(args) -> int:
    if args.preset_cmd == "list":
        for name in available_presets():
            print(name)
        return 0
    p = preset(args.name, variant=args.variant)
    doc = {"name": p.name, "params": asdict(p.params), "notes": p.notes}
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_keyrate(args) -> int:
    inputs = {"m_channels": args.m, "eta": args.eta, "n_mean": args.n_mean, "xi": args.xi}
    lines, _ = SCENARIOS["keyrate"].run(dict(inputs, bin_width_ps=args.bin_ps))
    _emit(lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spadsim", description="Single-photon detector simulator and analysis runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the scenario described by a JSON config")
    p_sim.add_argument("config", help="path to the scenario config file")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="path to the scenario config file")
    p_val.set_defaults(func=_cmd_validate)

    p_pre = sub.add_parser("preset", help="inspect bundled detector presets")
    pre_sub = p_pre.add_subparsers(dest="preset_cmd", required=True)
    pre_sub.add_parser("list", help="list preset names")
    p_show = pre_sub.add_parser("show", help="print one preset as JSON")
    p_show.add_argument("name", help="preset name")
    p_show.add_argument("--variant", default="timing", help="preset variant where applicable")
    p_pre.set_defaults(func=_cmd_preset)

    p_key = sub.add_parser("keyrate", help="evaluate the multi-channel key-rate formula")
    p_key.add_argument("--m", type=int, required=True, help="number of wavelength channels")
    p_key.add_argument("--eta", type=float, required=True, help="per-photon channel efficiency")
    p_key.add_argument("--n-mean", type=float, required=True, help="mean pairs per time bin")
    p_key.add_argument("--xi", type=float, required=True, help="bits extracted per coincidence")
    p_key.add_argument("--bin-ps", type=float, required=True, help="time bin width in ps")
    p_key.set_defaults(func=_cmd_keyrate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 1
    except (AnalysisError, InstrumentError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
