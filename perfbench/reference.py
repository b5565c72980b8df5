"""50-digit reference for nullifier levels, independent of the simulator.

The network matrices are written from their exact entries (1/sqrt2,
1/sqrt10, 2/sqrt10, 1/2), loss is the beam-splitter admixture of vacuum, and
phase jitter uses the closed-form Gaussian moments E[cos t] = exp(-s^2/2) and
E[cos 2t] = exp(-2 s^2).  Config values are taken as the exact binary
doubles the simulator receives.  The netlist used by the benchmark is the
factor program of the linear network, so it is checked against the exact
linear matrix.
"""

from __future__ import annotations

import mpmath

DIGITS = 50

_GRAPH_EDGES = {
    "linear4": ((1, 2), (2, 3), (3, 4)),
    "square4": ((1, 3), (1, 4), (2, 3), (2, 4)),
    "tshape4": ((1, 2), (1, 3), (1, 4)),
}


def _unitary(name: str):
    mp = mpmath.mp
    r2, r10, j = 1 / mp.sqrt(2), 1 / mp.sqrt(10), mp.mpc(0, 1)
    half = mp.mpf(1) / 2
    if name == "linear4":
        return [
            [r2, r10, 2 * j * r10, 0],
            [j * r2, -j * r10, 2 * r10, 0],
            [0, -2 * r10, j * r10, j * r2],
            [0, -2 * j * r10, -r10, r2],
        ]
    if name == "square4":
        return [
            [-r2, -r10, -2 * j * r10, 0],
            [r2, -r10, -2 * j * r10, 0],
            [0, -2 * j * r10, -r10, -r2],
            [0, -2 * j * r10, -r10, r2],
        ]
    if name == "tshape4":
        return [
            [j * r2, half, half * j, 0],
            [r2, half * j, -half, 0],
            [0, half * j, half, r2],
            [0, half * j, half, -r2],
        ]
    raise ValueError(f"no exact matrix for network {name!r}")


def _per_mode(value) -> list:
    return [value] * 4 if isinstance(value, (int, float)) else list(value)


def _apply_loss(cov, loss):
    n = len(loss)
    scale = [mpmath.sqrt(mpmath.mpf(eta)) for eta in loss] * 2
    cov = [[cov[i][k] * scale[i] * scale[k] for k in range(2 * n)] for i in range(2 * n)]
    for m, eta in enumerate(loss):
        extra = (1 - mpmath.mpf(eta)) / 4
        cov[m][m] += extra
        cov[n + m][n + m] += extra
    return cov


def _apply_jitter(cov, mode: int, sigma: float, n: int):
    s2 = mpmath.mpf(sigma) ** 2
    c1, c2 = mpmath.exp(-s2 / 2), mpmath.exp(-2 * s2)
    ix, ip = mode, n + mode
    vxx, vpp, vxp = cov[ix][ix], cov[ip][ip], cov[ix][ip]
    out = [row[:] for row in cov]
    for k in range(2 * n):
        if k not in (ix, ip):
            for q in (ix, ip):
                out[q][k] = out[k][q] = cov[q][k] * c1
    out[ix][ix] = ((1 + c2) * vxx + (1 - c2) * vpp) / 2
    out[ip][ip] = ((1 - c2) * vxx + (1 + c2) * vpp) / 2
    out[ix][ip] = out[ip][ix] = c2 * vxp
    return out


def nullifier_levels(config: dict) -> list:
    """Reference nullifier dB levels (mpf) for a scenario config dict."""
    with mpmath.workdps(DIGITS):
        network = config["network"]
        exact_name = network if network in _GRAPH_EDGES else "linear4"
        edges = _GRAPH_EDGES.get(network) or tuple(tuple(e) for e in config["graph_edges"])
        s_db = _per_mode(config["squeezing_db"])
        a_db = _per_mode(config.get("antisqueezing_db", 0.0))
        loss = _per_mode(config.get("loss", 1.0))
        jitter = _per_mode(config.get("jitter", 0.0))
        placement = config.get("loss_placement", "post")
        n = len(s_db)

        diag = [mpmath.power(10, mpmath.mpf(a) / 10) / 4 for a in a_db]
        diag += [mpmath.power(10, mpmath.mpf(s) / 10) / 4 for s in s_db]
        cov = [[diag[i] if i == k else mpmath.mpf(0) for k in range(2 * n)] for i in range(2 * n)]
        if placement == "pre":
            cov = _apply_loss(cov, loss)
        u = _unitary(exact_name)
        a = [[mpmath.re(u[i][k]) for k in range(n)] for i in range(n)]
        b = [[mpmath.im(u[i][k]) for k in range(n)] for i in range(n)]
        sym = [a[i] + [-v for v in b[i]] for i in range(n)] + [b[i] + a[i] for i in range(n)]
        sc = [[mpmath.fdot(sym[i], [cov[m][k] for m in range(2 * n)]) for k in range(2 * n)] for i in range(2 * n)]
        cov = [[mpmath.fdot(sc[i], sym[k]) for k in range(2 * n)] for i in range(2 * n)]
        if placement == "post":
            cov = _apply_loss(cov, loss)
        for mode, sigma in enumerate(jitter):
            if sigma > 0:
                cov = _apply_jitter(cov, mode, sigma, n)

        levels = []
        for node in range(1, n + 1):
            neighbors = sorted({b for e in edges for b in e if node in e and b != node})
            coeffs = {n + node - 1: 1}
            coeffs.update({b - 1: -1 for b in neighbors})
            var = mpmath.fsum(ci * ck * cov[i][k] for i, ci in coeffs.items() for k, ck in coeffs.items())
            ref = mpmath.mpf(1 + len(neighbors)) / 4
            levels.append(10 * mpmath.log10(var / ref))
        return levels


def sweep_point_config(config: dict, axis: str, value: float) -> dict:
    """Config of one sweep grid point, following `run_sweep`'s override rule."""
    point = dict(config)
    point[axis] = [value] * 4
    if axis == "squeezing_db":
        s_db, a_db = _per_mode(config["squeezing_db"]), _per_mode(config["antisqueezing_db"])
        point["antisqueezing_db"] = [-value if a == -s else a for s, a in zip(s_db, a_db)]
    return point
