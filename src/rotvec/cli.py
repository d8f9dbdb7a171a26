"""Command-line interface: ``rotvec run | list | validate``.

Exit codes: 0 when every declared threshold passed, 1 when a threshold
failed, 2 on configuration or execution errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, RotvecError
from .experiments import list_experiments, run, validate_config


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("", f"cannot read config file: {exc}") from exc
    if not text.strip():
        raise ConfigError("", "config file is empty")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc


def cmd_run(args):
    config = _load_config(args.config)
    out = args.out or f"rotvec-results/{validate_config(config)['experiment']}"
    report = run(config, out_dir=out)
    print(f"experiment: {report.experiment}")
    for name, entry in report.results.items():
        if isinstance(entry, dict) and "pass" in entry:
            status = "PASS" if entry["pass"] else "FAIL"
            print(f"  [{status}] {name} = {entry['value']}  ({entry.get('threshold', '')})")
        elif isinstance(entry, dict):
            print(f"  [info] {name} = {entry['value']}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"report and artifacts in {out}/  (runtime {report.runtime_s:.1f}s)")
    return 0 if report.passed else 1


def cmd_list(args):
    for entry in list_experiments():
        print(f"{entry['name']:22s} {entry['summary']}")
        print(f"{'':22s} expected: {entry['expected']}")
    return 0


def cmd_validate(args):
    config = _load_config(args.config)
    validate_config(config)
    print(f"{args.config}: valid ({config['experiment']})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rotvec",
        description="Rotation-vector experiments for Hamiltonian flows on symplectic tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=cmd_run)

    p_list = sub.add_parser("list", help="list builtin experiments")
    p_list.set_defaults(fn=cmd_list)

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="path to a JSON experiment config")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error at {exc.path or '<root>'}: {exc.message}", file=sys.stderr)
        return 2
    except RotvecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # execution errors must exit 2, not traceback
        print(f"execution error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
