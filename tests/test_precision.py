"""Nullifier variances and witness sums against one high-precision reference.

The reference is an independent mpmath computation of the covariance from a
config: impure squeezed inputs at the configured per-mode levels, loss
before or after the network as the beam-splitter admixture of vacuum, the
network's quadrature matrix S = [[A, -B], [B, A]] of U = A + iB (its float64
entries taken exactly, for the built-in networks and netlists alike, so only
the simulator's arithmetic is tested), and the closed-form covariance of a
Gaussian-distributed rotation on each jittered mode.  Every config value is
taken as the exact double the simulator receives.  square4's witness is
measured on the linear4 state the local phases are undone from.  At deep
squeezing a nullifier is a tiny difference of huge antisqueezed variances,
the regime where a plain c^T cov c contraction loses every digit; the
working precision grows with the 2|level|/10 decades between the largest
antisqueezed and the smallest squeezed variance, so the reference resolves
the deepest level the config boundary accepts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import mpmath
import pytest

from cvcluster.analysis import WITNESS_PAIRS, graph_by_name, witness_tested_on
from cvcluster.gaussian import LEVEL_LIMIT_DB
from cvcluster.networks import emit_netlist, linear_program, linear_to_square_phases
from cvcluster.scenarios import ScenarioConfig, _resolve_network, run_scenario

DIGITS = 60
REL_BOUND = 1e-9
LINEAR_EDGES = ((1, 2), (2, 3), (3, 4))


@pytest.fixture(scope="module")
def linear_netlist(tmp_path_factory):
    path = tmp_path_factory.mktemp("netlist") / "linear.net"
    path.write_text(emit_netlist(linear_program()))
    return str(path)


def _exact(matrix) -> list:
    return [[mpmath.mpf(float(v)) for v in row] for row in matrix]


def _jitter(cov, ix: int, ip: int, sigma: float):
    """Covariance of the mode (ix, ip) rotated by theta ~ N(0, sigma^2), averaged over theta."""
    s2 = mpmath.mpf(sigma) ** 2
    c1, c2 = mpmath.exp(-s2 / 2), mpmath.exp(-2 * s2)
    out = [row[:] for row in cov]
    for k in range(len(cov)):
        if k not in (ix, ip):
            for q in (ix, ip):
                out[q][k] = out[k][q] = c1 * cov[q][k]
    vxx, vpp, vxp = cov[ix][ix], cov[ip][ip], cov[ix][ip]
    out[ix][ix] = ((1 + c2) * vxx + (1 - c2) * vpp) / 2
    out[ip][ip] = ((1 - c2) * vxx + (1 + c2) * vpp) / 2
    out[ix][ip] = out[ip][ix] = c2 * vxp
    return out


def _variances(rows, cov) -> list:
    dim = range(len(cov))
    out = []
    for c in rows.tolist():
        support = [i for i in dim if c[i]]
        out.append(mpmath.fsum(c[i] * cov[i][j] * c[j] for i in support for j in support))
    return out


def reference(cfg: ScenarioConfig) -> tuple[list, list | None]:
    """The config's nullifier variances and witness sums (None without a pairing), as mpmath numbers."""
    unitary, graph = _resolve_network(cfg)
    deepest = max(max(-s for s in cfg.squeezing_db), max(cfg.antisqueezing_db))
    with mpmath.workdps(DIGITS + round(2 * deepest / 10)):
        n = cfg.n_modes
        dim = range(2 * n)
        s = _exact(unitary.symplectic)
        var = [mpmath.power(10, mpmath.mpf(v) / 10) / 4 for v in cfg.antisqueezing_db + cfg.squeezing_db]
        eta = [mpmath.mpf(e) for e in cfg.loss] * 2
        if cfg.loss_placement == "pre":
            var = [e * v + (1 - e) / 4 for e, v in zip(eta, var)]
        cov = [[mpmath.fsum(s[i][k] * var[k] * s[j][k] for k in dim) for j in dim] for i in dim]
        if cfg.loss_placement == "post":
            gain = [mpmath.sqrt(e) for e in eta]
            cov = [[cov[i][j] * gain[i] * gain[j] + ((1 - eta[i]) / 4 if i == j else 0) for j in dim] for i in dim]
        for mode, sigma in enumerate(cfg.jitter):
            if sigma > 0.0:
                cov = _jitter(cov, mode, n + mode, sigma)
        nullifiers = _variances(graph.coefficients, cov)
        tested = witness_tested_on(graph)
        if tested is None:
            return nullifiers, None
        if tested != graph.name:  # the linear state P^dagger-rotated back: S_P^T cov S_P, S_P a signed permutation
            p = _exact(linear_to_square_phases().symplectic)
            half = [[mpmath.fsum(cov[i][k] * p[k][j] for k in dim) for j in dim] for i in dim]
            cov = [[mpmath.fsum(p[k][i] * half[k][j] for k in dim) for j in dim] for i in dim]
        tested_variances = _variances(graph_by_name(tested).coefficients, cov)
        return nullifiers, [tested_variances[a - 1] + tested_variances[b - 1] for a, b in WITNESS_PAIRS[tested]]


def relative_errors(cfg: ScenarioConfig) -> list:
    """Each reported variance's, then each witness sum's, relative error against the reference."""
    report = run_scenario(cfg)
    variances, lhs = reference(cfg)
    got = list(report.nullifiers.variances) + (list(report.witness.lhs_values) if lhs is not None else [])
    return [float(abs(mpmath.mpf(g) - w) / w) for g, w in zip(got, variances + (lhs or []))]


@pytest.mark.parametrize("network", ["linear4", "square4", "tshape4"])
@pytest.mark.parametrize("level_db", [-30.0, -60.0, -LEVEL_LIMIT_DB])
@pytest.mark.parametrize("sigma", [0.0, 1e-6, 1e-3, 0.04])
def test_jittered_nullifiers_match_reference(network, level_db, sigma):
    cfg = ScenarioConfig(network, squeezing_db=level_db, antisqueezing_db=-level_db, jitter=sigma)
    assert max(relative_errors(cfg)) < REL_BOUND


@pytest.mark.parametrize("network", ["linear4", "square4", "tshape4"])
@pytest.mark.parametrize("level_db", [-30.0, -60.0, -LEVEL_LIMIT_DB])
def test_per_mode_jitter_matches_reference(network, level_db):
    # a different sigma on each mode, one of them 0: each mode gets its own rotation
    cfg = ScenarioConfig(network, squeezing_db=level_db, antisqueezing_db=-level_db, jitter=[1e-3, 0.0, 0.04, 1e-6])
    assert max(relative_errors(cfg)) < REL_BOUND


# Three configs a forward factor G S D misses: it rounds each S_ij amp_j before the antisqueezed amplitudes cancel.
# A jitter gain that rounds to 1 (0.5005 for node 4 against 0.50075); a netlist whose rounded factors do not cancel
# exactly (0.00390625 for node 1 against 0.0030815); mixed transmissivities at a deep level (off by 2.6e-7).
@pytest.mark.parametrize("case", ["jitter_gain_near_1", "netlist_at_-300_dB", "mixed_gains"])
def test_the_cancellations_a_forward_factor_misses(case, linear_netlist):
    cfg = {
        "jitter_gain_near_1": ScenarioConfig("linear4", squeezing_db=[-6.0, -300.0, -6.0, 0.0],
                                             jitter=[0.0, 0.0, 0.0, 1e-8]),
        "netlist_at_-300_dB": ScenarioConfig(linear_netlist, squeezing_db=-300.0, graph_edges=LINEAR_EDGES),
        "mixed_gains": ScenarioConfig("linear4", squeezing_db=[-6.0, -1750.0, -6.0, -6.0],
                                      loss=[0.0, 0.5, 1.0, 1.0 - 1e-9], loss_placement="post"),
    }[case]
    assert max(relative_errors(cfg)) < 1e-12


LEVEL = st.floats(-20.0, 0.0) | st.floats(-LEVEL_LIMIT_DB, 0.0) | st.just(-LEVEL_LIMIT_DB) | st.just(0.0)
ETA = st.sampled_from([0.0, 1.0 - 1e-9, 1.0]) | st.floats(0.0, 1.0)
SIGMA = st.sampled_from([0.0, 1e-8]) | st.floats(1e-8, 0.5) | st.floats(1e-8, 10.0)


@st.composite
def accepted_configs(draw, netlist):
    """An accepted config: any network or the linear netlist, per-mode impure levels, eta, sigma and placement."""
    network = draw(st.sampled_from(["linear4", "square4", "tshape4", netlist]))
    squeezing = draw(st.lists(LEVEL, min_size=4, max_size=4))
    excess = draw(st.lists(st.none() | st.floats(0.0, 10.0), min_size=4, max_size=4))
    return ScenarioConfig(
        network,
        squeezing_db=squeezing,
        antisqueezing_db=[0.0 - s if e is None else min(e - s, LEVEL_LIMIT_DB) for s, e in zip(squeezing, excess)],
        loss=draw(st.lists(ETA, min_size=4, max_size=4)),
        loss_placement=draw(st.sampled_from(["pre", "post"])),
        jitter=draw(st.lists(SIGMA, min_size=4, max_size=4)),
        graph_edges=LINEAR_EDGES if network == netlist else None,
    )


# Worst relative error seen: 2.6e-14 over these 200 examples, 5.3e-14 over 1800 random ones of the same space.
# It comes from a level near -3000 dB: its variance 0.25 * 10^(level/10) carries the rounding of level/10,
# amplified by ln(10) |level|/10.
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_accepted_config_matches_the_reference(data, linear_netlist):
    cfg = data.draw(accepted_configs(linear_netlist))
    assert max(relative_errors(cfg)) < REL_BOUND
