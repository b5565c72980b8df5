"""Tests of the benchmark itself: inputs, tracing, checks and metric names.

Run with `PYTHONPATH=src python -m pytest perfbench` from the checkout root.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cvcluster  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from cvcluster.networks import emit_netlist, linear_program  # noqa: E402
from cvcluster.scenarios import ScenarioConfig, run_sweep  # noqa: E402
from worker import library_op  # noqa: E402

RUN_DIR = "run-dir"


def ops(workload, seed, count, run_dir=RUN_DIR):
    return [workloads.make_op(workload, seed, i, run_dir) for i in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(ops(workload, 7, 200), sort_keys=True)
    assert json.dumps(ops(workload, 7, 200), sort_keys=True) == first
    assert json.dumps(ops(workload, 8, 200), sort_keys=True) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_input_is_accepted_by_the_validator(workload):
    for op in ops(workload, 3, 300):
        cfg = ScenarioConfig.from_dict(op["config"])
        if "sweep" in op:
            # both ends of the grid pass the validator too
            sweep = dict(op["sweep"], steps=2)
            assert len(run_sweep(cfg, **sweep).reports) == 2


def test_scenario_mix_keeps_the_deep_tail():
    configs = [op["config"] for op in ops("scenario-mix", 11, workloads.DECK_SIZE)]
    abyss = [c for c in configs if min(c["squeezing_db"]) <= -82.0]
    assert len(abyss) >= 5
    assert any(0 < min(c["jitter"]) and max(c["jitter"]) <= 1e-4 for c in abyss)


def test_sweep_ranges_show_both_witness_verdicts():
    verdicts = set()
    for op in ops("sweep-grid", 5, 8):
        result = run_sweep(ScenarioConfig.from_dict(op["config"]), **dict(op["sweep"], steps=12))
        verdicts |= {r.witness.fully_inseparable for r in result.reports}
    assert verdicts == {True, False}


def traced_ops(tracer, op_list):
    for i, op in enumerate(op_list):
        tracer.op_id = i
        with tracer.install():
            library_op(op)


def small_ops(tmp_path):
    (tmp_path / "linear4.net").write_text(emit_netlist(linear_program()))
    mix = [op for op in ops("scenario-mix", 1, 40, str(tmp_path)) if min(op["config"]["squeezing_db"]) >= -15]
    sweep = dict(workloads.sweep_grid_op(1, 0))
    sweep["sweep"] = dict(sweep["sweep"], steps=5)
    return mix[:8] + [sweep]


def originals():
    found = {}
    for name in spans.MODULES:
        mod = sys.modules[name]
        found.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    table = sys.modules["cvcluster.scenarios"].NETWORK_UNITARIES
    found.update({("NETWORK_UNITARIES", k): v for k, v in table.items()})
    for _, home, cls_name, attrs in spans.METHOD_SPANS:
        cls = getattr(sys.modules[home], cls_name)
        found.update({(cls_name, a): cls.__dict__[a] for a in attrs})
    return found


def test_tracing_wrappers_are_gone_after_a_traced_run(tmp_path):
    import cvcluster.cli  # noqa: F401  (the cli module holds references too)

    before = originals()
    tracer = spans.Tracer()
    traced_ops(tracer, small_ops(tmp_path))
    assert len(tracer) > 0
    after = originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert cvcluster.scenarios.apply_unitary is cvcluster.gaussian.apply_unitary
    assert cvcluster.analysis.combination_variance is cvcluster.gaussian.combination_variance


def test_traced_run_gives_the_same_output(tmp_path):
    for i, op in enumerate(small_ops(tmp_path)):
        tracer = spans.Tracer()
        tracer.op_id = i
        with tracer.install():
            traced = library_op(op)
        assert traced == library_op(op)


def test_child_spans_lie_within_their_parent(tmp_path):
    tracer = spans.Tracer()
    traced_ops(tracer, small_ops(tmp_path))
    child_total = {}
    for k, (_, start, end, parent, _, _) in enumerate(tracer.rows()):
        assert end >= start
        if parent >= 0:
            assert tracer.start[parent] <= start and end <= tracer.end[parent]
            child_total[parent] = child_total.get(parent, 0) + end - start
    for parent, total in child_total.items():
        assert total <= tracer.end[parent] - tracer.start[parent]
    assert min(tracer.self_times()) >= 0


def test_sweep_counts_one_scenario_per_grid_point(tmp_path):
    tracer = spans.Tracer()
    traced_ops(tracer, small_ops(tmp_path)[-1:])
    metrics = tracer.layer_metrics([0])
    assert metrics["scenarios.run_scenario.calls_per_op"][0] == 5
    assert metrics["scenarios.run_sweep.calls_per_op"][0] == 1


def test_reference_matches_the_simulator_in_the_band(tmp_path):
    checker = Checker("scenario-mix", 1)
    for op in small_ops(tmp_path)[:-1]:
        out, levels = library_op(op)
        record = {"i": 0, "error": None, "out": out, "levels": levels}
        assert checker.check(op, record) is None
    assert checker.checked > 0 and checker.misses == 0


def test_reference_reproduces_the_analytic_residuals():
    config = {"network": "tshape4", "squeezing_db": [-6.0, -3.0, -9.0, -12.0],
              "antisqueezing_db": [6.0, 3.0, 9.0, 12.0]}
    e = [10 ** (s / 10) / 4 for s in config["squeezing_db"]]
    arm = 0.5 * e[0] + e[2] + 0.5 * e[3]
    expected = [4 * e[1] / 1.0, 2 * e[0] / 0.5, arm / 0.5, arm / 0.5]
    for got, want in zip(reference.nullifier_levels(config), expected):
        assert math.isclose(float(got), 10 * math.log10(want), abs_tol=1e-12)


def test_checker_rejects_wrong_outputs(tmp_path):
    op = small_ops(tmp_path)[-1]
    csv, _ = library_op(op)
    checker = Checker("sweep-grid", 1)
    assert checker.check(op, {"i": 0, "error": None, "out": csv}) is None
    lines = csv.splitlines()
    swapped = "\n".join(lines[:1] + [lines[2], lines[1]] + lines[3:]) + "\n"
    assert "grid order" in checker.check(op, {"i": 0, "error": None, "out": swapped})
    flipped = csv.replace(",true\n", ",false\n", 1) if ",true\n" in csv else csv.replace(",false\n", ",true\n", 1)
    assert "witness" in checker.check(op, {"i": 0, "error": None, "out": flipped})


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = set(spans.Tracer().layer_metrics([]))
    layer_names |= {"trace.overhead_frac", "trace.coverage_frac", "analysis.max_err_db"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_scenario_mix_decks_hold_their_shares():
    assert all(sum(n for _, n in counts) == workloads.DECK_SIZE for counts in workloads.SCENARIO_SHARES.values())
    every = [op["config"] for op in ops("scenario-mix", 5, 2 * workloads.DECK_SIZE)]
    for configs in (every[:workloads.DECK_SIZE], every[workloads.DECK_SIZE:]):
        assert sum(c["verify_decompositions"] for c in configs) == 3
        assert sum(c["output_format"] == "json" for c in configs) == 50
        assert sum(min(c["squeezing_db"]) <= -82.0 for c in configs) == 8
    # each round is shuffled afresh
    assert [c["output_format"] for c in every[:100]] != [c["output_format"] for c in every[100:]]


def test_counted_sample_holds_whole_rounds():
    # attempted/failed are counted over these ops, so each holds the full mix
    counted = workloads.COUNTED_OPS
    assert set(counted) == set(workloads.WORKLOADS)
    assert counted["sweep-grid"] % len(workloads.SWEEP_PAIRS) == 0
    assert counted["scenario-mix"] % workloads.DECK_SIZE == 0
    assert counted["cli-process"] % 3 == 0
