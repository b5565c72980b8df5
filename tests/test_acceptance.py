"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from independent computations: hand
transcriptions of the network matrices, dB arithmetic done inline, and
covariance propagation cross-checked against the closed-form residuals.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from cvcluster.analysis import (
    WitnessReport,
    analytic_residual_variances,
    full_inseparability_verdict,
    linear4,
    nullifier_report,
    tshape4,
)
from cvcluster.gaussian import (
    apply_unitary,
    impure_squeezed_inputs,
    lossy_channel,
    phase_jitter,
    squeezing_db_to_r,
    symplectic_form,
    vacuum,
)
from cvcluster.networks import (
    NetworkProgram,
    beam_splitter,
    element_matrix,
    fourier,
    inverse_fourier,
    linear_cluster_unitary,
    linear_program,
    linear_to_square_phases,
    program_matrix,
    square_cluster_unitary,
    swap,
    tshape_cluster_unitary,
    tshape_program,
)
from cvcluster.scenarios import load_config, run_scenario

from helpers import (
    NETWORKS,
    cluster_state,
    db_to_variance,
    equivalence_identities_check,
    graph_for,
    pure_inputs,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def check(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_matrix_fidelity():
    """Network constants match an independent hand transcription."""
    s2 = math.sqrt(0.5)
    s10 = 1.0 / math.sqrt(10.0)
    expected_linear = np.array([
        [s2, s10, 2j * s10, 0],
        [1j * s2, -1j * s10, 2 * s10, 0],
        [0, -2 * s10, 1j * s10, 1j * s2],
        [0, -2j * s10, -s10, s2],
    ])
    expected_square = np.array([
        [-s2, -s10, -2j * s10, 0],
        [s2, -s10, -2j * s10, 0],
        [0, -2j * s10, -s10, -s2],
        [0, -2j * s10, -s10, s2],
    ])
    expected_tshape = np.array([
        [1j * s2, 0.5, 0.5j, 0],
        [s2, 0.5j, -0.5, 0],
        [0, 0.5j, 0.5, s2],
        [0, 0.5j, 0.5, -s2],
    ])
    devs = {
        "linear": np.max(np.abs(linear_cluster_unitary().matrix - expected_linear)),
        "square": np.max(np.abs(square_cluster_unitary().matrix - expected_square)),
        "tshape": np.max(np.abs(tshape_cluster_unitary().matrix - expected_tshape)),
    }
    relation = np.max(np.abs(
        linear_to_square_phases().matrix @ linear_cluster_unitary().matrix
        - square_cluster_unitary().matrix
    ))
    ok = all(d < 1e-15 for d in devs.values()) and relation < 1e-12
    check(1, ok, f"matrix fidelity devs {[f'{k}={v:.1e}' for k, v in devs.items()]}, "
                 f"square = phases * linear dev {relation:.1e}")


def test_criterion_2_decomposition_oracle():
    """Factor strings reproduce the constant matrices entrywise."""
    results = {}
    for name, program, constant in (
        ("linear", linear_program(), linear_cluster_unitary()),
        ("tshape", tshape_program(), tshape_cluster_unitary()),
    ):
        product = program_matrix(program)
        results[name] = np.max(np.abs(product.matrix - constant.matrix))
        # covariance fallback check, also expected to agree
        probe = pure_inputs([0.3, 0.5, 0.7, 0.9])
        cov_dev = np.max(np.abs(apply_unitary(probe, product).cov - apply_unitary(probe, constant).cov))
        results[name + "_cov"] = cov_dev
    ok = all(v < 1e-12 for v in results.values())
    check(2, ok, "decomposition residuals " + ", ".join(f"{k}={v:.1e}" for k, v in results.items()))


def test_criterion_3_analytic_residuals():
    """Simulated nullifier variances equal the closed forms; vacuum sums check."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for name in sorted(NETWORKS):
        for _ in range(100):
            r = rng.uniform(-0.3, 1.5, 4)
            simulated = np.array(nullifier_report(cluster_state(name, r), graph_for(name)).variances)
            worst = max(worst, float(np.max(np.abs(simulated - analytic_residual_variances(name, r)))))
    vacuum_sums = {
        "linear4": (0.5, 0.75, 0.75, 0.5),
        "square4": (0.75, 0.75, 0.75, 0.75),
        "tshape4": (1.0, 0.5, 0.5, 0.5),
    }
    sums_ok = True
    for name, expected in vacuum_sums.items():
        computed = analytic_residual_variances(name, (0.0,) * 4)
        simulated = nullifier_report(apply_unitary(vacuum(4), NETWORKS[name][0]()), graph_for(name)).variances
        sums_ok &= bool(np.allclose(computed, expected, atol=1e-12))
        sums_ok &= bool(np.allclose(simulated, expected, atol=1e-12))
    ok = worst < 1e-10 and sums_ok
    check(3, ok, f"closed form vs simulation: max dev {worst:.1e} over 300 draws; "
                 f"vacuum sums {'match' if sums_ok else 'MISMATCH'} "
                 f"(linear (.5,.75,.75,.5), square (.75 x4), tshape (1,.5,.5,.5))")


def test_criterion_4_antisqueezing_elimination():
    """Nullifier variances are untouched by the antisqueezing level."""
    s = -6.3
    worst = 0.0
    for name in sorted(NETWORKS):
        baseline = None
        for extra in (0.0, 6.0, 12.0):
            state = impure_squeezed_inputs((s,) * 4, (-s + extra,) * 4)
            out = apply_unitary(state, NETWORKS[name][0]())
            variances = np.array(nullifier_report(out, graph_for(name)).variances)
            if baseline is None:
                baseline = variances
            else:
                worst = max(worst, float(np.max(np.abs(variances - baseline))))
    ok = worst < 1e-12
    check(4, ok, f"antisqueezing swept +0/+6/+12 dB above pure at s={s} dB: max variance shift {worst:.1e}")


def test_criterion_5_reported_witness_values():
    """Measured dB levels reconstruct the published witness sums."""
    refs_l = (0.5, 0.75, 0.75, 0.5)
    v = [db_to_variance(db, ref) for db, ref in zip((-5.4, -5.8, -5.3, -5.8), refs_l)]
    linear_lhs = WitnessReport.for_graph(linear4(), [v[0] + v[1], v[2] + v[1], v[2] + v[3]]).lhs_values
    refs_t = (1.0, 0.5, 0.5, 0.5)
    w = [db_to_variance(db, ref) for db, ref in zip((-6.0, -5.2, -4.9, -5.2), refs_t)]
    tshape_lhs = WitnessReport.for_graph(tshape4(), [w[1] + w[0], w[2] + w[0], w[3] + w[0]]).lhs_values
    linear_ok = np.allclose(linear_lhs, (0.34, 0.42, 0.35), atol=0.01)
    tshape_ok = np.allclose(tshape_lhs, (0.42, 0.43, 0.42), atol=0.03)
    below_bound = all(x < 1 for x in linear_lhs + tshape_lhs)
    ok = linear_ok and tshape_ok and below_bound
    check(5, ok, f"linear lhs {[round(x, 3) for x in linear_lhs]} vs (0.34, 0.42, 0.35) +-0.01; "
                 f"tshape lhs {[round(x, 3) for x in tshape_lhs]} vs (0.42, 0.43, 0.42) +-0.03; all < 1")


def test_criterion_6_equivalence_identities():
    """The four linear/square identities hold, clean and under loss."""
    rng = np.random.default_rng(99)
    worst_clean = 0.0
    worst_lossy = 0.0
    for _ in range(20):
        state = cluster_state("linear4", rng.uniform(-0.3, 1.5, 4))
        worst_clean = max(worst_clean, max(equivalence_identities_check(state).residuals))
        lossy = state
        for mode in range(1, 5):
            lossy = lossy_channel(lossy, mode, 0.9)
        worst_lossy = max(worst_lossy, max(equivalence_identities_check(lossy).residuals))
    ok = worst_clean < 1e-12 and worst_lossy < 1e-12
    check(6, ok, f"identity residuals: ideal max {worst_clean:.1e}, eta=0.9 max {worst_lossy:.1e}")


def test_criterion_7_property_suite():
    """Symplectic, uncertainty, purity, and strong-squeezing properties."""
    rng = np.random.default_rng(7)
    omega = symplectic_form(4)

    constructed = [
        linear_cluster_unitary(), square_cluster_unitary(), tshape_cluster_unitary(),
        linear_to_square_phases(),
        program_matrix(linear_program()), program_matrix(tshape_program()),
        element_matrix(fourier(2), 4), element_matrix(inverse_fourier(1), 4),
        element_matrix(swap(1, 3), 4), element_matrix(beam_splitter(2, 4, 0.6, -1), 4),
        program_matrix(NetworkProgram(4, (fourier(1), beam_splitter(1, 2, 1 / math.sqrt(5), +1), swap(2, 3)))),
    ]
    symplectic_dev = max(
        float(np.max(np.abs(s @ omega @ s.T - omega)))
        for s in (u.symplectic for u in constructed)
    )

    uncertainty_floor = 0.0
    for _ in range(10):
        state = pure_inputs(rng.uniform(-0.5, 1.5, 4))
        state = apply_unitary(state, NETWORKS["linear4"][0]())
        state = lossy_channel(state, int(rng.integers(1, 5)), float(rng.uniform(0, 1)))
        state = phase_jitter(state, int(rng.integers(1, 5)), float(rng.uniform(0, 0.3)))
        herm = state.cov + 0.25j * symplectic_form(4)
        uncertainty_floor = min(uncertainty_floor, float(np.min(np.linalg.eigvalsh(herm))))

    purity_dev = max(
        abs(float(np.linalg.det(cluster_state(name, rng.uniform(0, 1.2, 4)).cov)) - (1 / 16) ** 4)
        for name in sorted(NETWORKS)
    )

    r60 = squeezing_db_to_r(-60.0)
    level_dev = max(
        float(np.max(np.abs(np.array(nullifier_report(cluster_state(name, [r60] * 4), graph_for(name)).levels_db) + 60.0)))
        for name in sorted(NETWORKS)
    )

    ok = symplectic_dev < 1e-10 and uncertainty_floor > -1e-10 and purity_dev < 1e-9 and level_dev < 1e-6
    check(7, ok, f"symplectic dev {symplectic_dev:.1e}; uncertainty floor {uncertainty_floor:.1e}; "
                 f"purity dev {purity_dev:.1e}; -60 dB level dev {level_dev:.1e}")


def test_criterion_8_measured_gap_calibration():
    """The shipped config maps -6.3 dB inputs into the measured -6.0..-4.9 dB window."""
    cfg = load_config(CONFIG_DIR / "measured_gap.json")
    report = run_scenario(cfg)
    assert cfg.squeezing_db == (-6.3,) * 4
    assert any(eta < 1.0 for eta in cfg.loss) and any(sig > 0.0 for sig in cfg.jitter)
    levels = report.nullifiers.levels_db
    ok = all(-6.0 <= level <= -4.9 for level in levels) and report.witness.fully_inseparable
    check(8, ok, f"levels {[round(l, 2) for l in levels]} dB within [-6.0, -4.9], "
                 f"witness {'holds' if report.witness.fully_inseparable else 'FAILS'} "
                 f"(eta={cfg.loss[0]}, sigma={cfg.jitter[0]})")


def test_ideal_linear_verdict_values():
    """Companion check: the -6 dB ideal state certifies with the expected sums."""
    r = squeezing_db_to_r(-6.0)
    report = full_inseparability_verdict(cluster_state("linear4", [r] * 4), linear4())
    expected = (1.25 * 10 ** -0.6, 1.5 * 10 ** -0.6, 1.25 * 10 ** -0.6)
    assert report.lhs_values == pytest.approx(expected, rel=1e-12)
    assert report.fully_inseparable


def test_shipped_config_parses_cleanly():
    raw = json.loads((CONFIG_DIR / "measured_gap.json").read_text())
    cfg = load_config(CONFIG_DIR / "measured_gap.json")
    assert cfg.to_dict() == raw
