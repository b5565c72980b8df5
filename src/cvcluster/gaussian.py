"""Multimode Gaussian states, passive linear optics, and imperfection channels.

The library path builds states.  A state is its covariance factor F; cov =
F F^T is derived on request, in the hbar = 1/2 convention (vacuum variance
1/4) with quadratures stacked as (x_1 .. x_n, p_1 .. p_n).  States are
zero-mean: a displacement changes no variance, and variances are all this
package reports.  One function does each job: `impure_squeezed_inputs`
makes the inputs; a passive network given as a complex unitary U = A + iB
maps to the real quadrature transform S = [[A, -B], [B, A]] (symplectic,
orthogonal, built once) and `apply_unitary` sends F to S F; loss and phase
jitter scale a mode's rows and append two noise columns, all modes of a kind
in one pass (`lossy_channels`, `phase_jitters`).  Channel-built states are
physical and are checked only for shape and finiteness; a caller-supplied
covariance is checked physically, once, and factored.  Combination
variances are sums of squares ||F^T c||^2, but F rounds each S_ij amp_j
before the antisqueezed amplitudes cancel, so deep levels lose precision
(the README states the measured depths).

Runs take the other path: `InputFrame` measures fixed combinations of a
pass of points without a state, each row pulled back through the channels
and the network to the inputs, where the paper's nullifiers hold no
antisqueezed quadrature; it keeps their precision at every accepted level.

All objects are immutable after construction and every operation returns a new
value, so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

# Vacuum quadrature variance in the hbar = 1/2 convention.
VACUUM_VARIANCE = 0.25

# Constructor-level validation tolerance, relative to the largest matrix
# entry; produced objects are held to the tighter identity-level tolerances
# by the test suite.
CONSTRUCTOR_TOL = 1e-8

LN10 = math.log(10.0)

# Largest accepted |dB| of a squeezing or antisqueezing level.  The input
# variances 0.25 * 10^(+-level/10) overflow a double from about 3082 dB; at
# 3000 dB the largest stays a factor of about 7e8 below the overflow, room
# for the sums the channels and analysis form from it, and the squeezed
# variance stays a normal (not subnormal) double.
LEVEL_LIMIT_DB = 3000.0


def is_real(value) -> bool:
    """A real number that is not a bool: int, float, a numpy scalar, a Fraction."""
    # exact float and int first: the common case, and cheaper than the ABC check
    return type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def as_integer(value) -> int | None:
    """`value` as an int if it is a real number equal to one (numpy ints and 2.0 pass), else None."""
    if is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    return None


def _integer(name: str, value) -> int:
    """`value` as an int by :func:`as_integer`; a bool, a string or a fraction is a ValueError naming `name`."""
    integer = as_integer(value)
    if integer is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return integer


def _checked_mode(mode, n: int) -> int:
    """`mode` as a 1-based mode index of an n-mode state; anything else is a ValueError naming it."""
    if type(mode) is int and 1 <= mode <= n:
        return mode
    mode = _integer("mode", mode)
    if not 1 <= mode <= n:
        raise ValueError(f"mode index {mode} out of range 1..{n}")
    return mode


def symplectic_form(n_modes: int) -> np.ndarray:
    """Canonical form Omega = [[0, I], [-I, 0]] in (x..., p...) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ComplexUnitary:
    """An n x n complex unitary acting on annihilation operators.

    Represents any passive linear-optical network (beam splitters, phase
    shifts, swaps): output operators are a'_i = sum_j U_ij a_j.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"unitary must be a square matrix, got shape {m.shape}")
        dev = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if dev > CONSTRUCTOR_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", _read_only(m))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def symplectic(self) -> np.ndarray:
        """The read-only quadrature transform of U = A + iB, S = [[A, -B], [B, A]], built once."""
        a, b = self.matrix.real, self.matrix.imag
        return _read_only(np.block([[a, -b], [b, a]]))

    def adjoint(self) -> "ComplexUnitary":
        """Inverse network, U-dagger."""
        return ComplexUnitary(self.matrix.conj().T)


def _factor_covariance(cov) -> np.ndarray:
    """Validate a caller-supplied covariance and return F with F F^T = cov.

    Tolerances scale with the matrix magnitude, as does the rounding deep
    squeezing leaves in a physical covariance; the eigendecomposition factor
    clips eigenvalues that rounding pushed below zero.
    """
    cov = np.array(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0 or cov.size == 0:
        raise ValueError(f"covariance must be a square matrix of even size, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
    tol = CONSTRUCTOR_TOL * (1.0 + np.max(np.abs(cov)))
    asym = np.max(np.abs(cov - cov.T))
    if asym > tol:
        raise ValueError(f"covariance is not symmetric (deviation {asym:.3e})")
    cov = (cov + cov.T) / 2.0
    min_eig = float(np.min(np.linalg.eigvalsh(cov + 0.25j * symplectic_form(cov.shape[0] // 2))))
    if min_eig < -tol:
        raise ValueError(f"covariance violates the uncertainty relation (min eigenvalue {min_eig:.3e})")
    w, v = np.linalg.eigh(cov)
    return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True, eq=False, repr=False)
class GaussianState:
    """A zero-mean Gaussian state of n optical modes: its covariance factor.

    Attributes:
        cov_factor: real 2n x m factor F of the covariance, the state itself,
            with rows ordered (x_1 .. x_n, p_1 .. p_n).
        cov: the derived, read-only covariance F F^T.

    Channels construct states with ``cov_factor=``; such a factor is physical
    by construction, so only its shape and finiteness are checked: a float64
    array is taken over and made read-only, not copied, and anything else is
    converted to one.  ``GaussianState(cov)`` is the physically validated
    entry point: the covariance must be finite, symmetric and satisfy the
    uncertainty relation cov + (i/4) Omega >= 0, and is factored once.  The
    vacuum state saturates the relation with cov = (1/4) I.
    """

    cov_factor: np.ndarray

    def __init__(self, cov=None, *, cov_factor=None):
        if (cov is None) == (cov_factor is None):
            raise ValueError("a state needs exactly one of cov and cov_factor")
        factor = _factor_covariance(cov) if cov_factor is None else np.asarray(cov_factor, dtype=float)
        if factor.ndim != 2 or len(factor) % 2 or not len(factor):
            raise ValueError(f"cov_factor must be 2-D with an even, nonzero row count, got shape {factor.shape}")
        if not np.isfinite(factor).all():
            raise ValueError("cov_factor must be finite")
        object.__setattr__(self, "cov_factor", _read_only(factor))

    @property
    def cov(self) -> np.ndarray:
        f = self.cov_factor
        return _read_only(f @ f.T)

    @property
    def n_modes(self) -> int:
        return len(self.cov_factor) // 2

    def __repr__(self):
        return f"GaussianState(n_modes={self.n_modes}, cov={self.cov!r})"


@dataclass(frozen=True)
class SqueezedInputSpec:
    """Single-mode squeezed-vacuum levels in dB relative to vacuum.

    Attributes:
        squeezing_db: p-quadrature variance level, in [-LEVEL_LIMIT_DB, 0].
        antisqueezing_db: x-quadrature variance level, in [0, LEVEL_LIMIT_DB].
            Physicality requires antisqueezing_db >= -squeezing_db; a pure
            state has exactly antisqueezing_db = -squeezing_db.
    """

    squeezing_db: float
    antisqueezing_db: float

    def __post_init__(self):
        s, a = self.squeezing_db, self.antisqueezing_db
        if not (math.isfinite(s) and math.isfinite(a)):
            raise ValueError("squeezing levels must be finite")
        if not -LEVEL_LIMIT_DB <= s <= 0:
            raise ValueError(f"squeezing_db must lie in [-{LEVEL_LIMIT_DB}, 0], got {s}")
        if not 0 <= a <= LEVEL_LIMIT_DB:
            raise ValueError(f"antisqueezing_db must lie in [0, {LEVEL_LIMIT_DB}], got {a}")
        if a < -s:
            raise ValueError(f"unphysical levels: antisqueezing_db {a} < -squeezing_db {-s}")


def squeezing_db_to_r(squeezing_db: float) -> float:
    """Squeezing parameter r with p-variance exp(-2r)/4 at the given dB level."""
    return -squeezing_db * LN10 / 20.0


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: covariance (1/4) I.

    Args:
        n: number of modes, an integer >= 1.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    return impure_squeezed_inputs([0.0] * n, [0.0] * n)


def impure_squeezed_vacuum(spec: SqueezedInputSpec) -> GaussianState:
    """The one-mode :func:`impure_squeezed_inputs` of `spec`."""
    return impure_squeezed_inputs((spec.squeezing_db,), (spec.antisqueezing_db,))


def impure_squeezed_inputs(squeezing_db, antisqueezing_db) -> GaussianState:
    """Independent squeezed thermal inputs, one per pair of p (squeezing) and x (antisqueezing) dB levels.

    Real sources show more antisqueezing than squeezing; mode j's covariance
    is diag(0.25 * 10^(a_j/10), 0.25 * 10^(s_j/10)), its x row holding the
    square root of the first in column 2j and its p row that of the second
    in column 2j + 1.  The lists must have one, nonzero length, and each pair
    must pass the rule of :class:`SqueezedInputSpec`; else a ValueError.
    """
    n = len(squeezing_db)
    if not n or len(antisqueezing_db) != n:
        raise ValueError(f"expected as many antisqueezing as squeezing levels, at least one, "
                         f"got {len(antisqueezing_db)} and {n}")
    factor = np.zeros((2 * n, 2 * n))
    for j, (s, a) in enumerate(zip(squeezing_db, antisqueezing_db)):
        SqueezedInputSpec(s, a)  # checks the pair
        factor[j, 2 * j] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (a / 10.0))
        factor[n + j, 2 * j + 1] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (s / 10.0))
    return GaussianState(cov_factor=factor)


def tensor(states: list[GaussianState]) -> GaussianState:
    """Compose independent states into one, preserving mode order.

    The result keeps the global (x..., p...) ordering: the x block is the
    direct sum of the parts' x blocks, likewise for p, and the factor is the
    block-diagonal union of the parts' factor columns.
    """
    if not states:
        raise ValueError("tensor requires at least one state")
    n = sum(s.n_modes for s in states)
    factor = np.zeros((2 * n, sum(s.cov_factor.shape[1] for s in states)))
    offset = 0
    col = 0
    for s in states:
        k = s.n_modes
        idx = np.concatenate([np.arange(offset, offset + k), np.arange(n + offset, n + offset + k)])
        cols = s.cov_factor.shape[1]
        factor[idx, col:col + cols] = s.cov_factor
        col += cols
        offset += k
    return GaussianState(cov_factor=factor)


def apply_unitary(state: GaussianState, unitary: ComplexUnitary) -> GaussianState:
    """Propagate a state through a passive network: F -> S F."""
    if unitary.n_modes != state.n_modes:
        raise ValueError(f"unitary acts on {unitary.n_modes} modes but state has {state.n_modes}")
    return GaussianState(cov_factor=unitary.symplectic @ state.cov_factor)


def _mode_channels(factor: np.ndarray, modes: tuple[int, ...], gains, noises) -> np.ndarray:
    """Scale the rows of mode modes[j] (checked, 1-based) by gains[j] and append its 2 x 2 noise factor.

    noises[j] = (a, b, c) fills two new columns, (a, 0) in the mode's x row
    and (b, c) in its p row.  A channel touches only its mode's rows, so for
    distinct modes one pass equals the chained one-mode channels, bit for bit.
    """
    rows, m = factor.shape
    n = rows // 2
    out = np.zeros((rows, m + 2 * len(modes)))
    scale = [1.0] * rows
    for col, mode, gain, (a, b, c) in zip(range(m, out.shape[1], 2), modes, gains, noises):
        scale[mode - 1] = scale[n + mode - 1] = gain
        out[mode - 1, col] = a
        out[n + mode - 1, col] = b
        out[n + mode - 1, col + 1] = c
    np.multiply(np.array(scale)[:, None], factor, out=out[:, :m])
    return out


def lossy_channels(state: GaussianState, etas: dict[int, float]) -> GaussianState:
    """:func:`lossy_channel` on every mode of `etas` (1-based mode -> eta), in one pass."""
    n = state.n_modes
    modes = tuple(_checked_mode(mode, n) for mode in etas)
    for eta in etas.values():
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if not modes:
        return state
    vacua = [math.sqrt((1.0 - eta) * VACUUM_VARIANCE) for eta in etas.values()]
    gains = [math.sqrt(eta) for eta in etas.values()]
    return GaussianState(cov_factor=_mode_channels(state.cov_factor, modes, gains, [(v, 0.0, v) for v in vacua]))


def lossy_channel(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Mix one mode with vacuum on a beam splitter of transmissivity eta.

    The mode's factor rows scale by sqrt(eta) and the admixed vacuum adds two
    factor columns with variance (1 - eta)/4 on its x and p; eta = 1 is the
    identity, eta = 0 replaces the mode by vacuum and removes all
    correlations to it.

    Args:
        state: input state.
        mode: 1-based mode index.
        eta: transmissivity in [0, 1].
    """
    return lossy_channels(state, {mode: eta})


def _rotation_noise(gram, vcc: float, vss: float) -> tuple[float, float, float]:
    """The lower Cholesky factor [[lxx, 0], [lpx, lpp]] of the noise N = E[D G D^T] a random rotation adds to one mode.

    R = cos theta I + sin theta J = E[R] + D, J = [[0, -1], [1, 0]], with
    D = dc I + ds J of centred moments vcc = E[dc^2], vss = E[ds^2] and
    E[dc ds] = 0 (theta is symmetric about 0); `gram` = ((gxx, gxp), (gpx, gpp))
    is G = F_m F_m^T, the mode's covariance block: N = vcc G + vss J G J^T.
    """
    (gxx, gxp), (_, gpp) = gram
    nxx = vcc * gxx + vss * gpp
    npp = vcc * gpp + vss * gxx
    nxp = (vcc - vss) * gxp
    # clipped against rounding
    lxx = math.sqrt(max(nxx, 0.0))
    lpx = nxp / lxx if lxx > 0.0 else 0.0
    lpp = math.sqrt(max(npp - lpx * lpx, 0.0))
    return lxx, lpx, lpp


def phase_jitters(state: GaussianState, sigmas: dict[int, float]) -> GaussianState:
    """:func:`phase_jitter` on every mode of `sigmas` (1-based mode -> sigma), in one pass."""
    n = state.n_modes
    modes = [_checked_mode(mode, n) for mode in sigmas]
    for sigma in sigmas.values():
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise ValueError(f"jitter sigma must be finite and >= 0, got {sigma}")
    jittered = {mode: sigma for mode, sigma in zip(modes, sigmas.values()) if sigma > 0.0}
    if not jittered:
        return state
    factor = state.cov_factor
    block = factor[[(mode - 1, n + mode - 1) for mode in jittered]]  # (J, 2, m)
    grams = (block @ block.transpose(0, 2, 1)).tolist()
    moments = [_jitter_moments(sigma) for sigma in jittered.values()]
    noises = [_rotation_noise(gram, vcc, vss) for gram, (vcc, vss, _) in zip(grams, moments)]
    return GaussianState(cov_factor=_mode_channels(factor, tuple(jittered), [gain for *_, gain in moments], noises))


def _jitter_moments(sigma: float) -> tuple[float, float, float]:
    """E[dc^2], E[ds^2] and the gain E[cos theta] of theta ~ N(0, sigma^2), from `math` (see :func:`phase_jitter`).

    sigma is squared here, as a Python float: past about 1.34e154 the square
    is inf and gives the limits 1/2, 1/2 and 0, without numpy's overflow warning.
    """
    v = sigma * sigma
    return 0.5 * math.expm1(-v) ** 2, -0.5 * math.expm1(-2.0 * v), math.exp(-v / 2.0)


def phase_jitter(state: GaussianState, mode: int, sigma: float) -> GaussianState:
    """Average one mode over a random phase-space rotation theta ~ N(0, sigma^2).

    E[R] = c1 I with c1 = E[cos theta] = e^{-sigma^2/2}: the mode's rows scale
    by c1 and two columns factor the noise of :func:`_rotation_noise`, with
    the exact moments E[dc^2] = E[cos^2] - c1^2 = expm1(-sigma^2)^2 / 2,
    E[ds^2] = E[sin^2] = -expm1(-2 sigma^2) / 2 and E[dc ds] = 0.

    Args:
        state: input state.
        mode: 1-based mode index.
        sigma: phase standard deviation in radians, >= 0.
    """
    return phase_jitters(state, {mode: sigma})


def combination_variance(state: GaussianState, coeffs: np.ndarray) -> float:
    """Variance of the quadrature combination sum_k c_k q_k, i.e. c^T cov c.

    The coefficient vector follows the (x..., p...) ordering.  It is
    evaluated as ||F^T c||^2, which stays accurate even when huge
    antisqueezed variances cancel out of the combination.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (2 * state.n_modes,):
        raise ValueError(f"coefficient vector has length {c.size}, expected {2 * state.n_modes}")
    return float(combination_variances(state.cov_factor, c[None])[0])


def combination_variances(factor: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """:func:`combination_variance` of each row c_j of a (J, 2n) `coeffs` on a (2n, m) factor: (J,) variances.

    w = c_j^T F is one vector-matrix product per row, and w . w one dot, so
    each row rounds as it does alone (one product C F would not, on dense
    graphs from 8 modes up).
    """
    w = np.matmul(coeffs[:, None, :], factor)  # (J, 1, m)
    return np.matmul(w, w.transpose(0, 2, 1))[:, 0, 0]


class InputFrame:
    """Variances of fixed combinations of a network's outputs, measured in the network's input frame.

    Built once from the network's quadrature matrix S and (R, 2n) rows c,
    each +-1 on at most one quadrature per mode.  With output gains g_m
    (sqrt(eta_m) c1_m for loss after the network, else the jitter gain
    c1_m = e^{-sigma_m^2/2}) and P_m = S^T c_m, a row's variance is
    sum_j V_j u_j^2 + sum_m [(1 - eta_m)/4 c1_m^2 + c_m^T N_m c_m], with
    u = sum_m g_m P_m, V the input variances (after loss before the network),
    the loss term for loss after it, and N_m the jitter noise of
    :func:`phase_jitter`, of which a row reads the diagonal.  The paper's
    nullifiers hold no antisqueezed input: at equal gains their antisqueezed
    weights in S^T c cancel exactly.  So u_j = g_r (S^T c)_j + sum_m
    (g_m - g_r) P_mj, with S^T c correctly rounded by `math.fsum` (the P_mj
    are exact), r the mode of the largest |P_mj|, and each g_m - g_r formed
    from the transmissivities and sigmas, never from rounded gains.

    `terms` holds each row's S^T c, then its P_m over the row's modes, and
    `picks` the entry of a point's gain table that scales each: g_r at r, 0
    at n, and g_m - g_q at n + 1 + i for the i-th mode pair m < q (the part
    is negated where it takes g_q - g_m).  `point_bytes` bounds what one
    point adds to a pass.  The last 16 jitters, losses and (loss, jitter)
    pairs keep their scalars: a sweep moves one field, and lossless or
    jitter-free scenarios share theirs.
    """

    def __init__(self, symplectic: np.ndarray, rows: np.ndarray):
        n = len(symplectic) // 2
        row_of, quads = np.nonzero(rows)  # one (row, quadrature) per mode of each row, in row order
        modes = quads % n
        parts = rows[row_of, quads][:, None] * symplectic[quads]  # (K, 2n)
        starts = np.searchsorted(row_of, np.arange(len(rows)))
        spans = [(a, b, modes[a:b].tolist()) for a, b in zip(starts.tolist(), starts[1:].tolist() + [len(quads)])]
        refs = [[support[i] for i in np.abs(parts[a:b]).argmax(axis=0).tolist()] for a, b, support in spans]
        pairs = sorted({(min(m, r), max(m, r)) for (*_, ms), rs in zip(spans, refs) for m in ms for r in rs if m != r})
        index = {pair: (n + 1 + i, 1.0) for i, pair in enumerate(pairs)}
        index.update({(q, m): (n + 1 + i, -1.0) for i, (m, q) in enumerate(pairs)})  # g_q - g_m = -(g_m - g_q)
        terms, picks = [], []
        for (a, b, support), ref in zip(spans, refs):
            steps = [[index.get((m, r), (n, 1.0)) for r in ref] for m in support]
            terms += [[math.fsum(col) for col in parts[a:b].T.tolist()]]
            terms += [[sign * x for (_, sign), x in zip(row, part)] for row, part in zip(steps, parts[a:b].tolist())]
            picks += [ref, *([i for i, _ in row] for row in steps)]
        self.n = n
        self.pairs = tuple(pairs)
        self.starts = _read_only(starts)
        self.quads = _read_only(quads)
        self.swap = _read_only(np.roll(np.arange(2 * n), n))  # x_m <-> p_m
        self.halves = _read_only(np.arange(2 * n) % n)  # each quadrature's mode
        self.term_starts = _read_only(starts + np.arange(len(rows)))
        self.terms = _read_only(np.array(terms))
        self.picks = _read_only(np.array(picks))
        self.squares = _read_only(symplectic * symplectic)
        self.point_bytes = 8 * (3 * self.terms.size + symplectic.size + 12 * n + len(pairs))
        frame = weakref.proxy(self)  # a bound method in a cache would make a cycle and keep an evicted frame alive
        for name in ("_jitter_terms", "_loss_terms", "_gains"):
            setattr(self, name, functools.lru_cache(maxsize=16)(functools.partial(getattr(InputFrame, name), frame)))

    def _jitter_terms(self, jitter: tuple) -> tuple:
        """Per mode E[dc^2], E[ds^2] and c1 (:func:`_jitter_moments`), and c1_m - c1_q for each of `pairs`."""
        moments = {sigma: _jitter_moments(sigma) for sigma in set(jitter)}
        vcc, vss, c1 = zip(*map(moments.get, jitter))
        s = [min(sigma, 1e100) for sigma in jitter]  # c1 is 0 far below where sigma^2 overflows
        # c1_m - c1_q = max(c1_m, c1_q) (e^x - 1 if x <= 0 else 1 - e^-x), x = sigma_q^2/2 - sigma_m^2/2
        xs = [(s[q] - s[m]) * (s[q] + s[m]) * 0.5 for m, q in self.pairs]
        return vcc, vss, c1, [max(c1[m], c1[q]) * math.copysign(math.expm1(-abs(x)), x) if x else 0.0
                              for (m, q), x in zip(self.pairs, xs)]

    def _loss_terms(self, loss: tuple, post: bool) -> tuple:
        """Per mode eta, (1 - eta)/4 and sqrt(eta) (1, 0, 1 before the network), and each pair's eta step."""
        etas = loss if post else (1.0,) * self.n
        vacua = [(1.0 - eta) * VACUUM_VARIANCE for eta in etas]
        roots = [math.sqrt(eta) for eta in etas]
        return etas, vacua, roots, [(etas[m] - etas[q]) / (roots[m] + roots[q]) if etas[m] != etas[q] else 0.0
                                    for m, q in self.pairs]

    def _gains(self, loss: tuple, jitter: tuple, post: bool) -> tuple:
        """A point's gain table, then per mode the alpha, beta and gamma of its jitter and loss noise
        alpha G + beta J G J^T + gamma, G the mode's block after the network."""
        etas, vacua, roots, ratios = self._loss_terms(loss, post)
        vcc, vss, c1, c1_steps = self._jitter_terms(jitter)
        # g_m - g_q = (eta_m - eta_q) / (sqrt eta_m + sqrt eta_q) c1_m + sqrt eta_q (c1_m - c1_q); g_q - g_m negates it
        steps = [ratio * c1[m] + roots[q] * c1_step for (m, q), ratio, c1_step in zip(self.pairs, ratios, c1_steps)]
        gains = [root * gain for root, gain in zip(roots, c1)]
        alpha = [x * eta for x, eta in zip(vcc, etas)]
        beta = [x * eta for x, eta in zip(vss, etas)]
        gamma = [(x + y) * b + b * c * c for x, y, b, c in zip(vcc, vss, vacua, c1)]
        return (*gains, 0.0, *steps, *alpha, *beta, *gamma)

    def variances(self, levels, loss, jitter, post: bool) -> np.ndarray:
        """The (k, R) row variances of k points, each a row of the (k, 2n) `levels` and (k, n) `loss` and `jitter`.

        A point's levels are its antisqueezing, then its squeezing levels in
        dB, and its loss acts after the network if `post`; nothing is checked.
        Its scalars are Python floats of the point alone, whatever the pass.
        """
        n, k = self.n, len(loss)
        flat = []
        for point_levels, point_loss, point_jitter in zip(levels, loss, jitter):
            v = [VACUUM_VARIANCE * 10.0 ** (level / 10.0) for level in point_levels]
            if not post:
                v = [eta * x + (1.0 - eta) * VACUUM_VARIANCE for eta, x in zip(point_loss + point_loss, v)]
            flat += v
            flat += self._gains(point_loss, point_jitter, post)
        values = np.array(flat).reshape(k, -1)
        width, noise_at = 2 * n, values.shape[1] - 3 * n
        v = values[:, :width]
        u = np.add.reduceat(values[:, width:noise_at].take(self.picks, axis=1) * self.terms, self.term_starts, axis=1)
        u *= np.sqrt(v).reshape(k, 1, width)
        variances = (u * u).sum(axis=2)
        alpha, beta, noise = values[:, noise_at:].reshape(k, 3, n).take(self.halves, axis=2).transpose(1, 0, 2)
        if beta.any():  # jitter; without it alpha is 0 too
            gram = (v.reshape(k, 1, width) * self.squares).sum(axis=2)  # each output quadrature's variance
            noise = alpha * gram + beta * gram.take(self.swap, axis=1) + noise
        if noise.any():  # a zero noise would add nothing
            variances += np.add.reduceat(noise.take(self.quads, axis=1), self.starts, axis=1)
        return variances


def variance_to_db(v: float, v_ref: float) -> float:
    """Variance ratio in decibels, 10 log10(v / v_ref).

    For a nullifier with k unit-coefficient terms the natural reference is
    its vacuum-input variance k/4.
    """
    if not (v > 0.0 and v_ref > 0.0):
        raise ValueError(f"variances must be positive, got v={v}, v_ref={v_ref}")
    return 10.0 * math.log10(v / v_ref)
