"""Nullifier variances under phase jitter against a high-precision reference.

The reference is an independent mpmath computation of the covariance: pure
squeezed inputs at the configured dB level, the network's symplectic matrix
S = [[A, -B], [B, A]] of U = A + iB (its float64 entries taken exactly, so
only the simulator's arithmetic is tested), and the closed-form covariance of
a Gaussian-distributed rotation on each jittered mode or, for the Monte-Carlo
path, the average of the covariances explicitly rotated by the same seeded
draws.  At deep squeezing the nullifiers are tiny differences of huge
antisqueezed variances, the regime where a plain c^T cov c contraction
loses every digit.  The working precision grows with the level, by the
2|level|/10 decades between the antisqueezed and the squeezed variance, so
the reference resolves the deepest level the config boundary accepts.
"""

import mpmath
import numpy as np
import pytest

from cvcluster.analysis import nullifier_coefficients
from cvcluster.gaussian import LEVEL_LIMIT_DB
from cvcluster.scenarios import NETWORK_UNITARIES, ScenarioConfig, run_scenario

from helpers import graph_for

DIGITS = 50
REL_BOUND = 1e-9
MC_SAMPLES, MC_SEED = 16, 5


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


def _rotated_average(cov, ix: int, ip: int, thetas):
    """Average of R cov R^T over the rotations R of the mode (ix, ip) by each of `thetas`."""
    dim = range(len(cov))
    total = [[mpmath.mpf(0)] * len(cov) for _ in dim]
    for theta in thetas:
        c, s = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
        out = [row[:] for row in cov]
        for k in dim:
            out[ix][k], out[ip][k] = c * cov[ix][k] - s * cov[ip][k], s * cov[ix][k] + c * cov[ip][k]
        for k in dim:
            out[k][ix], out[k][ip] = c * out[k][ix] - s * out[k][ip], s * out[k][ix] + c * out[k][ip]
        total = [[t + o for t, o in zip(trow, orow)] for trow, orow in zip(total, out)]
    return [[t / len(thetas) for t in row] for row in total]


def reference_variances(network: str, level_db: float, sigma: float, mc: bool = False) -> list:
    with mpmath.workdps(DIGITS + round(2 * abs(level_db) / 10)):
        n = 4
        u = NETWORK_UNITARIES[network]().matrix
        a = [[mpmath.mpf(float(v.real)) for v in row] for row in u]
        b = [[mpmath.mpf(float(v.imag)) for v in row] for row in u]
        s = [a[i] + [-v for v in b[i]] for i in range(n)] + [b[i] + a[i] for i in range(n)]
        x_var, p_var = (mpmath.power(10, mpmath.mpf(v) / 10) / 4 for v in (-level_db, level_db))
        diag = [x_var] * n + [p_var] * n
        dim = range(2 * n)
        cov = [[mpmath.fsum(s[i][k] * diag[k] * s[j][k] for k in dim) for j in dim] for i in dim]
        for mode in range(n):
            if mc:
                # the draws run_scenario takes for this mode: seed + mode - 1
                thetas = np.random.default_rng(MC_SEED + mode).normal(0.0, sigma, size=MC_SAMPLES)
                cov = _rotated_average(cov, mode, n + mode, thetas)
            else:
                cov = _jitter(cov, mode, n + mode, sigma)
        variances = []
        for node in range(1, n + 1):
            c = [mpmath.mpf(float(v)) for v in nullifier_coefficients(graph_for(network), node)]
            variances.append(mpmath.fsum(c[i] * cov[i][j] * c[j] for i in dim for j in dim))
        return variances


@pytest.mark.parametrize("network", ["linear4", "tshape4"])
@pytest.mark.parametrize("level_db", [-30.0, -60.0, -LEVEL_LIMIT_DB])
@pytest.mark.parametrize("sigma", [0.0, 1e-6, 1e-3, 0.04])
def test_jittered_nullifiers_match_reference(network, level_db, sigma):
    cfg = ScenarioConfig(network, squeezing_db=level_db, antisqueezing_db=-level_db, jitter=sigma)
    _assert_matches(run_scenario(cfg).nullifiers.variances, reference_variances(network, level_db, sigma))


@pytest.mark.parametrize("network", ["linear4", "tshape4"])
@pytest.mark.parametrize("level_db", [-30.0, -60.0, -LEVEL_LIMIT_DB])
@pytest.mark.parametrize("sigma", [1e-6, 1e-3, 0.04])
def test_monte_carlo_nullifiers_match_same_draw_reference(network, level_db, sigma):
    cfg = ScenarioConfig(
        network, squeezing_db=level_db, antisqueezing_db=-level_db, jitter=sigma, jitter_mc=(MC_SAMPLES, MC_SEED),
    )
    _assert_matches(run_scenario(cfg).nullifiers.variances, reference_variances(network, level_db, sigma, mc=True))


def _assert_matches(got, want):
    rel = [float(abs(mpmath.mpf(g) - w) / w) for g, w in zip(got, want)]
    assert max(rel) < REL_BOUND, rel
