"""Command-line front-end.

Three subcommands:

* `simulate` runs one scenario and prints the report (text or JSON).
* `sweep` varies one scalar axis over a grid and prints CSV.
* `verify-decompositions` compares the factor strings against the constant
  network matrices.

Exit codes: 0 on success, 2 for configuration errors, 3 when a witness
verdict is requested for a graph without defined pairings.

Per-mode options accept either a single value (applied to every mode) or a
comma-separated list.  Lists starting with a minus sign need the `=` form,
e.g. `--squeezing-db=-6,-6,-5.5,-6.3`.
"""

from __future__ import annotations

import argparse
import json
import sys

from cvcluster.analysis import UnsupportedGraphError
from cvcluster.scenarios import (
    ConfigError,
    ScenarioConfig,
    read_config_file,
    run_scenario,
    run_sweep,
    verify_decompositions,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSUPPORTED_GRAPH = 3


def _parse_values(field: str, text: str):
    parts = text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(field, f"expected a number or comma-separated numbers, got {text!r}") from None
    return values[0] if len(values) == 1 else values


def _parse_edges(text: str):
    edges = []
    for part in text.split(","):
        nodes = part.split("-")
        if len(nodes) != 2:
            raise ConfigError("graph_edges", f"expected pairs like '1-2,2-3', got {text!r}")
        try:
            edges.append([int(nodes[0]), int(nodes[1])])
        except ValueError:
            raise ConfigError("graph_edges", f"expected integer node labels, got {part!r}") from None
    return edges


def _add_scenario_options(parser: argparse.ArgumentParser):
    parser.add_argument("--network", help="linear4, square4, tshape4, or a netlist file path")
    parser.add_argument("--config", help="JSON config file; explicit flags override its fields")
    parser.add_argument("--squeezing-db", dest="squeezing_db", metavar="DB[,DB...]",
                        help="per-mode squeezing level(s), <= 0 dB")
    parser.add_argument("--antisqueezing-db", dest="antisqueezing_db", metavar="DB[,DB...]",
                        help="per-mode antisqueezing level(s), >= 0 dB; default mirrors the squeezing (pure inputs)")
    parser.add_argument("--loss", metavar="ETA[,ETA...]", help="per-mode transmissivity in [0, 1]")
    parser.add_argument("--loss-placement", dest="loss_placement", choices=("pre", "post"),
                        help="apply loss before or after the network (default post)")
    parser.add_argument("--jitter", metavar="SIGMA[,SIGMA...]", help="per-mode phase jitter sigma in radians")
    parser.add_argument("--format", dest="output_format", choices=("text", "json"), help="report format")
    parser.add_argument("--witness", action=argparse.BooleanOptionalAction, default=None,
                        help="force the witness evaluation on or off")
    parser.add_argument("--graph-edges", dest="graph_edges", metavar="A-B[,A-B...]",
                        help="cluster graph for a netlist network, e.g. '1-2,2-3,3-4'")
    parser.add_argument("--verify-decompositions", dest="verify_decompositions", action="store_true",
                        default=None, help="append the decomposition checks to the report")


def _scenario_config(args) -> ScenarioConfig:
    data = {} if args.config is None else read_config_file(args.config)
    if args.network is not None:
        data["network"] = args.network
    for field in ("squeezing_db", "antisqueezing_db", "loss", "jitter"):
        value = getattr(args, field)
        if value is not None:
            data[field] = _parse_values(field, value)
    for field in ("loss_placement", "output_format", "witness", "verify_decompositions"):
        if getattr(args, field) is not None:
            data[field] = getattr(args, field)
    if args.graph_edges is not None:
        data["graph_edges"] = _parse_edges(args.graph_edges)
    return ScenarioConfig.from_dict(data)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description="Simulate four-mode cluster-state generation by linear optics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and print the report")
    _add_scenario_options(p_sim)

    p_sweep = sub.add_parser("sweep", help="vary one config scalar over a grid and print CSV")
    _add_scenario_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, help="squeezing_db, antisqueezing_db, loss, or jitter")
    p_sweep.add_argument("--from", dest="start", type=float, required=True, help="first grid value")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True, help="last grid value")
    p_sweep.add_argument("--steps", type=int, required=True, help="number of grid points")

    p_verify = sub.add_parser("verify-decompositions", help="check the factor strings against the matrices")
    p_verify.add_argument("--format", dest="output_format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            report = run_scenario(_scenario_config(args))
            sys.stdout.write(report.render())
        elif args.command == "sweep":
            result = run_sweep(_scenario_config(args), args.axis, args.start, args.stop, args.steps)
            sys.stdout.write(result.to_csv())
        else:
            report = verify_decompositions()
            if args.output_format == "json":
                sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
            else:
                sys.stdout.write(report.to_text() + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedGraphError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED_GRAPH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
