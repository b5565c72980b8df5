"""Output digest: one sha256 per output kind over random accepted configs of a source tree.

A script, not a test module.  It draws `count` scenario configs from `seed`,
runs each through the `cvcluster` of the tree given (its `src` directory
comes first on the import path), and hashes, in draw order, the `run_scenario`
JSON, the text report, and the CSV of one sweep per config.  A config the
tree rejects adds its `ConfigError` message to the hash instead.  Equal
digests for two trees mean equal output bytes on every drawn config:

    python tests/digest.py . --seed 5 --count 500
    mkdir /tmp/parent && git archive HEAD^ | tar -x -C /tmp/parent
    python tests/digest.py /tmp/parent --seed 5 --count 500

The draws depend only on the seed, not on the tree.  They cover the three
built-in networks and a 4-mode and an 8-mode netlist with a complete
cluster graph (one 4-mode config in ten has none); per-mode levels down to
-3000 dB, pure or impure; eta 1, 0, 1 - 1e-9 or uniform, placed pre or
post; sigma 0, 1e-8, up to 0.1, up to 10, or 1e150 to 1e308; and a sweep
of 1 to 40 steps on every axis, within the levels the config allows.  The
netlists are written to a scratch directory, which is also the working
directory, so their names in the reports do not depend on where it is.
"""

import argparse
import hashlib
import os
import random
import sys
import tempfile
from pathlib import Path

AXES = ("squeezing_db", "antisqueezing_db", "loss", "jitter")
NETLIST_4 = "linear4.net"
NETLIST_8 = "wide8.net"
LEVEL_LIMIT_DB = 3000.0  # the accepted level bound, fixed here so that the draws do not depend on the tree


def _wide_netlist(n: int = 8) -> str:
    """An n-mode netlist that couples every mode: beam splitters between neighbours and next neighbours."""
    lines = [f"MODES {n}", *(f"BS+ {a} {a + 1} 0.6" for a in range(1, n)), *(f"F {a}" for a in range(1, n + 1)),
             *(f"BS- {a} {a + 2} 0.3" for a in range(1, n - 1))]
    return "\n".join(lines) + "\n"


def _level(rng: random.Random) -> float:
    return rng.choice([
        lambda: -rng.uniform(0.0, 20.0),
        lambda: -rng.uniform(0.0, LEVEL_LIMIT_DB),
        lambda: -LEVEL_LIMIT_DB,
        lambda: 0.0,
    ])()


def _eta(rng: random.Random) -> float:
    return rng.choice([1.0, 0.0, 1.0 - 1e-9, rng.uniform(0.0, 1.0)])


def _sigma(rng: random.Random) -> float:
    return rng.choice([
        lambda: 0.0,
        lambda: 1e-8,
        lambda: rng.uniform(0.0, 0.1),
        lambda: rng.uniform(0.0, 10.0),
        lambda: 10.0 ** rng.uniform(150.0, 308.0),
        lambda: 1e308,
    ])()


def draw_config(rng: random.Random) -> dict:
    """One config dict in the report's config-section format, without the fields left at their defaults."""
    network = rng.choice(["linear4", "square4", "tshape4", NETLIST_4, NETLIST_8])
    n = 8 if network == NETLIST_8 else 4
    squeezing = [_level(rng) for _ in range(n)]
    antisqueezing = [0.0 - s if rng.random() < 0.5 else min(rng.uniform(0.0, 10.0) - s, LEVEL_LIMIT_DB)
                     for s in squeezing]
    cfg = {
        "network": network,
        "squeezing_db": squeezing,
        "antisqueezing_db": antisqueezing,
        "loss": [_eta(rng) for _ in range(n)],
        "loss_placement": rng.choice(["pre", "post"]),
        "jitter": [_sigma(rng) for _ in range(n)],
    }
    if network == NETLIST_8 or (network == NETLIST_4 and rng.random() < 0.9):
        cfg["graph_edges"] = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return cfg


def draw_sweep(rng: random.Random, cfg: dict) -> tuple:
    """(axis, start, stop, steps) of one sweep of `cfg` that keeps every point physical (a >= -s)."""
    axis = rng.choice(AXES)
    if axis == "squeezing_db":  # pure modes follow the squeezing; impure ones keep their antisqueezing
        impure = [a for s, a in zip(cfg["squeezing_db"], cfg["antisqueezing_db"]) if a != -s]
        low = max([-LEVEL_LIMIT_DB] + [-a for a in impure])
        value = lambda: rng.choice([low, 0.0, rng.uniform(low, 0.0), rng.uniform(max(low, -20.0), 0.0)])
    elif axis == "antisqueezing_db":
        low = max(-s for s in cfg["squeezing_db"])
        value = lambda: rng.choice([low, LEVEL_LIMIT_DB, rng.uniform(low, LEVEL_LIMIT_DB), rng.uniform(low, min(low + 20.0, LEVEL_LIMIT_DB))])
    else:
        value = lambda: _eta(rng) if axis == "loss" else _sigma(rng)
    return axis, value(), value(), rng.randint(1, 40)


def outputs(seed: int, count: int):
    """Yield (kind, text) for each drawn config: its JSON report, text report and sweep CSV, in that order."""
    from cvcluster.networks import emit_netlist, linear_program
    from cvcluster.scenarios import ConfigError, ScenarioConfig, run_scenario, run_sweep

    Path(NETLIST_4).write_text(emit_netlist(linear_program()))
    Path(NETLIST_8).write_text(_wide_netlist())
    rng = random.Random(seed)
    for _ in range(count):
        data = draw_config(rng)
        sweep = draw_sweep(rng, data)
        try:
            report = run_scenario(ScenarioConfig.from_dict(data))
            yield "json", report.to_json()
            yield "text", report.to_text()
        except ConfigError as exc:
            yield "json", f"config error: {exc}\n"
            yield "text", f"config error: {exc}\n"
        try:
            yield "csv", run_sweep(ScenarioConfig.from_dict(data), *sweep).to_csv()
        except ConfigError as exc:
            yield "csv", f"config error: {exc}\n"


def digests(seed: int, count: int) -> dict:
    hashes = {kind: hashlib.sha256() for kind in ("json", "text", "csv")}
    for kind, text in outputs(seed, count):
        hashes[kind].update(text.encode("utf-8"))
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="source tree whose src/cvcluster is run")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--count", type=int, default=500)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for kind, digest in digests(args.seed, args.count).items():
            print(f"{kind} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
