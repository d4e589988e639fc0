"""Command-line front end: run experiments, probe reconstruction, compare runs."""

from __future__ import annotations

import argparse
import sys

from .node import Algo
from .sim import compare, load_config, reconstruction_probe, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jwins",
        description="Decentralized learning with wavelet-domain sparsified gossip.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write a metrics CSV")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument("--algo", choices=[a.value for a in Algo],
                       help="override the configured algorithm")
    p_run.add_argument("--rounds", type=int, help="override the configured round count")
    p_run.add_argument("--seed", type=int, help="override the configured run seed")
    p_run.add_argument("--out", help="metrics CSV path (default: no file)")

    p_probe = sub.add_parser(
        "probe", help="single-node reconstruction probe (wavelet vs random budget)",
        description="Single-node reconstruction probe. The wavelet side always ranks "
        "as jwins does, whatever algo says; with ablations.wavelet_on false it ranks "
        "raw parameters (0 levels).")
    p_probe.add_argument("--config", required=True, help="YAML config file (n must be 1)")
    p_probe.add_argument("--budget", type=float, default=0.10,
                         help="per-round coefficient budget fraction (default 0.10)")
    p_probe.add_argument("--out", help="probe CSV path (default: no file)")

    p_cmp = sub.add_parser("compare", help="summarize metrics CSVs side by side")
    p_cmp.add_argument("files", nargs="+", help="metrics CSV files; first is baseline")
    p_cmp.add_argument("--target-acc", type=float, default=None,
                       help="also report when each run first reached this accuracy")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {key: getattr(args, key) for key in ("algo", "rounds", "seed")
                         if getattr(args, key) is not None}
            cfg = load_config(args.config, overrides)
            rows = run(cfg, out_path=args.out)
            final = next((r for r in reversed(rows) if r[1] == "AGG"), None)
            if final is not None:
                print("round %d: mean acc %.4f, mean loss %.4f, %.0f bytes/node"
                      % (final[0], final[3], final[2], final[4]))
            if args.out:
                print("wrote %s" % args.out)
        elif args.command == "probe":
            cfg = load_config(args.config)
            rows = reconstruction_probe(cfg, args.budget, out_path=args.out)
            last = rows[-1]
            print("round %d: cum mse wavelet %.6g, random %.6g"
                  % (last[0], last[3], last[4]))
            if args.out:
                print("wrote %s" % args.out)
        elif args.command == "compare":
            print(compare(args.files, target_acc=args.target_acc))
    except (OSError, ValueError, RuntimeError) as exc:  # includes ConfigError, CodecError
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
