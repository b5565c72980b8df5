"""Seeded inputs for the three benchmark workloads.

Every op is a pure function of (workload, seed, op index), built with
`random.Random` seeded from a string, so the same seed gives byte-identical
inputs on any machine and the caller can generate op i lazily, outside the
timed region.  Categorical shares (network, level band, jitter, loss,
output format, sweep axis, ...) are drawn from shuffled decks with exact
counts, so every full deck of consecutive ops holds the same mix.

An op is a dict:

* ``config``: a scenario config in the report's config-section format;
* ``sweep``: ``{"axis", "start", "stop", "steps"}`` for sweep ops;
* ``argv``: the ``cvcluster`` CLI arguments, for cli-process ops.
"""

from __future__ import annotations

import functools
import json
import random

WORKLOADS = ("sweep-grid", "scenario-mix", "cli-process")

BUILTIN_NETWORKS = ("linear4", "square4", "tshape4")
LINEAR_EDGES = [[1, 2], [2, 3], [3, 4]]

# Realistic band around configs/measured_gap.json (-6.3 dB squeezing, 11 dB
# antisqueezing, eta 0.93, sigma 0.04 rad on every mode).
SQUEEZING_BAND = (-7.0, -5.5)
ANTISQUEEZING_BAND = (9.0, 12.5)
LOSS_BAND = (0.88, 0.97)
JITTER_BAND = (0.02, 0.06)

# scenario-mix: slots per 100-op deck.  No record of how cvcluster is used
# exists, so every share is an assumption; perfbench/README.md ("Traffic
# shares") gives the reason for each number.
LEVEL_BANDS = {"band": (-15.0, -1.0), "deep": (-82.0, -20.0), "abyss": (-90.0, -82.0)}
SCENARIO_SHARES = {
    "network": (("linear4", 25), ("square4", 25), ("tshape4", 25), ("netlist", 25)),
    # (level band, jittered, lossless): 84 % in the band, 8 % deep, 8 % abyss,
    # each split evenly over jitter on/off and lossless/lossy
    "inputs": tuple(
        ((band, jittered, lossless), slots)
        for band, slots in (("band", 21), ("deep", 2), ("abyss", 2))
        for jittered in (True, False)
        for lossless in (True, False)
    ),
    "placement": (("pre", 50), ("post", 50)),
    "format": (("text", 50), ("json", 50)),
    "verify": ((True, 3), (False, 97)),
}

SWEEP_STEPS = 200
SWEEP_AXES = ("loss", "jitter", "squeezing_db", "antisqueezing_db")
SWEEP_PAIRS = tuple(((axis, network), 1) for axis in SWEEP_AXES for network in BUILTIN_NETWORKS)
DECK_SIZE = 100

# Ops 0 .. COUNTED_OPS-1 of each workload are the counted sample: every run
# runs at least these ops (past --seconds if need be) and reports `attempted`,
# `failed` and `ok_frac` over them alone, so those figures depend on the seed
# only, not on how many ops a run's time allowed.  Whole decks: 3 rounds of
# the 12 sweep pairs, 40 scenario decks (about 70 % of the 8 abyss ops of a
# deck fail, which ones depending on the seed, so the sample is large to keep
# ok_frac's spread over seeds small), 20 rounds of the 2:1 CLI mix.
COUNTED_OPS = {"sweep-grid": 36, "scenario-mix": 40 * DECK_SIZE, "cli-process": 60}

# The 13-point sweep from the README's CLI section.
README_SWEEP_ARGV = [
    "sweep", "--network", "linear4", "--squeezing-db=-6",
    "--axis", "squeezing_db", "--from", "-12", "--to", "0", "--steps", "13",
]
README_SWEEP_CONFIG = {"network": "linear4", "squeezing_db": -6.0, "antisqueezing_db": 6.0}
README_SWEEP = {"axis": "squeezing_db", "start": -12.0, "stop": 0.0, "steps": 13}
CLI_CONFIG_POOL = 16


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


@functools.lru_cache(maxsize=4096)
def _deck(workload: str, seed: int, name: str, counts: tuple, rnd: int) -> tuple:
    """Seeded shuffle of `counts`, a tuple of (value, number of slots) pairs.

    Each round of the deck `rnd` is shuffled afresh, so the slots of two
    decks pair up differently from round to round, not the same way all run.
    """
    slots = [value for value, k in counts for _ in range(k)]
    _rng(workload, seed, "deck", name, rnd).shuffle(slots)
    return tuple(slots)


def _draw(workload: str, seed: int, name: str, counts: tuple, i: int):
    """The slot of op `i` in the named deck."""
    size = sum(k for _, k in counts)
    return _deck(workload, seed, name, counts, i // size)[i % size]


def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _sig(x: float) -> float:
    """Six significant digits, for log-uniform draws."""
    return float(f"{x:.6g}")


def _band_inputs(rng: random.Random) -> dict:
    """Impure inputs, loss and jitter from the realistic band."""
    return {
        "squeezing_db": [_r(rng.uniform(*SQUEEZING_BAND)) for _ in range(4)],
        "antisqueezing_db": [_r(rng.uniform(*ANTISQUEEZING_BAND)) for _ in range(4)],
        "loss": [_r(rng.uniform(*LOSS_BAND)) for _ in range(4)],
        "loss_placement": rng.choice(("pre", "post")),
        "jitter": [_r(rng.uniform(*JITTER_BAND)) for _ in range(4)],
    }


def sweep_grid_op(seed: int, i: int) -> dict:
    """One 200-point sweep over a realistic base config.

    Every round of 12 ops (0-11, 12-23, ...) holds each (axis, network)
    pair once.  Each axis range crosses the witness bound, so both verdicts
    appear in the CSV of almost every op.
    """
    axis, network = _draw("sweep-grid", seed, "axis-network", SWEEP_PAIRS, i)
    rng = _rng("sweep-grid", seed, i)
    config = {"network": network, **_band_inputs(rng)}
    if axis == "loss":
        start, stop = _r(rng.uniform(0.05, 0.3)), 1.0
    elif axis == "jitter":
        start, stop = 0.0, _r(rng.uniform(0.4, 0.7))
    elif axis == "squeezing_db":
        # impure modes keep their antisqueezing, which bounds the deepest level
        start, stop = -min(config["antisqueezing_db"]), _r(rng.uniform(-0.5, 0.0))
    else:
        start, stop = max(-s for s in config["squeezing_db"]), _r(rng.uniform(30.0, 40.0))
    return {"config": config, "sweep": {"axis": axis, "start": start, "stop": stop, "steps": SWEEP_STEPS}}


def scenario_mix_op(seed: int, i: int, netlist_path: str) -> dict:
    """One scenario: mixed networks, inputs and output formats, with a deep tail.

    Levels are mostly in -15..-1 dB.  A tail of 16 % goes down to -90 dB,
    half of it at or below -82 dB, half of it with tiny jitter (1e-7..1e-4
    rad): that is where the shipped numerics lose precision or reject the
    state.  Every categorical share comes from a deck (`SCENARIO_SHARES`).
    """
    pick = {name: _draw("scenario-mix", seed, name, counts, i) for name, counts in SCENARIO_SHARES.items()}
    band, jittered, lossless = pick["inputs"]
    rng = _rng("scenario-mix", seed, i)
    lo, hi = LEVEL_BANDS[band]
    squeezing, antisqueezing = [], []
    for _ in range(4):
        s = _r(rng.uniform(lo, hi))
        squeezing.append(s)
        antisqueezing.append(-s if rng.random() < 0.5 else _r(-s + rng.uniform(0.5, 6.0)))
    loss = [1.0] * 4 if lossless else [_r(rng.uniform(0.8, 1.0)) for _ in range(4)]
    if not jittered:
        jitter = [0.0] * 4
    elif band == "band":
        jitter = [_r(rng.uniform(0.005, 0.08)) for _ in range(4)]
    else:
        jitter = [_sig(10.0 ** rng.uniform(-7.0, -4.0)) for _ in range(4)]
    config = {
        "network": netlist_path if pick["network"] == "netlist" else pick["network"],
        "squeezing_db": squeezing,
        "antisqueezing_db": antisqueezing,
        "loss": loss,
        "loss_placement": pick["placement"],
        "jitter": jitter,
        "output_format": pick["format"],
        "verify_decompositions": pick["verify"],
    }
    if pick["network"] == "netlist":
        config["graph_edges"] = LINEAR_EDGES
    return {"config": config}


def cli_configs(seed: int) -> list[dict]:
    """The pool of config files the cli-process simulate ops read."""
    configs = []
    for k in range(CLI_CONFIG_POOL):
        rng = _rng("cli-process", seed, "config", k)
        configs.append({"network": BUILTIN_NETWORKS[k % 3], **_band_inputs(rng), "output_format": "text"})
    return configs


def cli_config_path(run_dir: str, k: int) -> str:
    return f"{run_dir}/cli-config-{k:02d}.json"


def netlist_path(run_dir: str) -> str:
    return f"{run_dir}/linear4.net"


def cli_process_op(seed: int, i: int, run_dir: str) -> dict:
    """Two `simulate --config <cfg> --format json` ops, then the README sweep.

    With a 1:1 mix the median latency would fall in the gap between the
    simulate and the sweep latencies and jump from run to run.
    """
    if i % 3 == 2:
        return {"config": README_SWEEP_CONFIG, "sweep": README_SWEEP, "argv": README_SWEEP_ARGV}
    k = (i - i // 3) % CLI_CONFIG_POOL
    config = dict(cli_configs(seed)[k], output_format="json")
    argv = ["simulate", "--config", cli_config_path(run_dir, k), "--format", "json"]
    return {"config": config, "argv": argv}


def make_op(workload: str, seed: int, i: int, run_dir: str) -> dict:
    """Op `i` of a workload; `run_dir` (relative to the checkout) holds its input files."""
    if workload == "sweep-grid":
        return sweep_grid_op(seed, i)
    if workload == "scenario-mix":
        return scenario_mix_op(seed, i, netlist_path(run_dir))
    if workload == "cli-process":
        return cli_process_op(seed, i, run_dir)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, root, run_dir: str, netlist_text: str) -> None:
    """Write the files the ops of a workload read, under `root / run_dir`."""
    if workload == "scenario-mix":
        (root / netlist_path(run_dir)).write_text(netlist_text, encoding="utf-8")
    elif workload == "cli-process":
        for k, config in enumerate(cli_configs(seed)):
            text = json.dumps(config, sort_keys=True, indent=2) + "\n"
            (root / cli_config_path(run_dir, k)).write_text(text, encoding="utf-8")
