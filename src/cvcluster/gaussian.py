"""Multimode Gaussian states, passive linear optics, and imperfection channels.

A state is its covariance factor F; cov = F F^T is derived on request, in the
hbar = 1/2 convention (vacuum variance 1/4) with quadratures stacked as
(x_1 .. x_n, p_1 .. p_n).  States are zero-mean: a displacement changes no
variance, and variances are all this package reports.  A passive network
given as a complex unitary U = A + iB maps to the real quadrature transform
S = [[A, -B], [B, A]] (symplectic, orthogonal, built once) and sends F to S F;
loss and phase jitter scale a mode's rows and append two noise columns, all
modes of a kind in one pass.  Channel-built states are physical and are not
re-validated; only a caller-supplied covariance is checked, once, and
factored.  Combination variances are sums of squares ||F^T c||^2, accurate
even when huge antisqueezed variances cancel.

All objects are immutable after construction and every operation returns a new
value, so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import functools
import math
import numbers
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
        """The read-only quadrature transform S of :func:`unitary_to_symplectic`, built once."""
        return _read_only(unitary_to_symplectic(self))

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
    by construction, so only its shape is checked: a float64 array is taken
    over and made read-only, not copied, and anything else is converted to
    one.  ``GaussianState(cov)`` is the physically validated entry point: the
    covariance must be finite, symmetric and satisfy the uncertainty
    relation cov + (i/4) Omega >= 0, and is factored once.  The vacuum state
    saturates the relation with cov = (1/4) I.
    """

    cov_factor: np.ndarray

    def __init__(self, cov=None, *, cov_factor=None):
        if (cov is None) == (cov_factor is None):
            raise ValueError("a state needs exactly one of cov and cov_factor")
        factor = _factor_covariance(cov) if cov_factor is None else np.asarray(cov_factor, dtype=float)
        if factor.ndim != 2 or len(factor) % 2 or not len(factor):
            raise ValueError(f"cov_factor must be 2-D with an even, nonzero row count, got shape {factor.shape}")
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


def squeezed_vacuum(r: float) -> GaussianState:
    """Single-mode p-squeezed vacuum with x-variance e^{2r}/4 and p-variance e^{-2r}/4.

    The mode operator is a = e^{+r} x0 + i e^{-r} p0 with (x0, p0) vacuum
    quadratures, so r > 0 squeezes p and antisqueezes x.
    """
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter must be finite, got {r!r}")
    variances = [VACUUM_VARIANCE * math.exp(2 * r), VACUUM_VARIANCE * math.exp(-2 * r)]
    return GaussianState(cov_factor=np.diag(np.sqrt(variances)))


def impure_squeezed_vacuum(spec: SqueezedInputSpec) -> GaussianState:
    """Single-mode squeezed thermal state with independent x and p dB levels.

    Real sources show more antisqueezing than squeezing; the covariance is
    diag(0.25 * 10^(a/10), 0.25 * 10^(s/10)) for antisqueezing a and
    squeezing s in dB.
    """
    return impure_squeezed_inputs((spec.squeezing_db,), (spec.antisqueezing_db,))


def impure_squeezed_inputs(squeezing_db, antisqueezing_db) -> GaussianState:
    """The :func:`tensor` of an :func:`impure_squeezed_vacuum` per level pair, in one step; levels go unchecked."""
    n = len(squeezing_db)
    factor = np.zeros((2 * n, 2 * n))
    for k, (s, a) in enumerate(zip(squeezing_db, antisqueezing_db)):
        factor[k, 2 * k] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (a / 10.0))
        factor[n + k, 2 * k + 1] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (s / 10.0))
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


def unitary_to_symplectic(unitary: ComplexUnitary) -> np.ndarray:
    """Quadrature image of a passive unitary: U = A + iB gives S = [[A, -B], [B, A]]."""
    a, b = unitary.matrix.real, unitary.matrix.imag
    return np.block([[a, -b], [b, a]])


def apply_unitary(state: GaussianState, unitary: ComplexUnitary) -> GaussianState:
    """Propagate a state through a passive network: F -> S F."""
    if unitary.n_modes != state.n_modes:
        raise ValueError(f"unitary acts on {unitary.n_modes} modes but state has {state.n_modes}")
    return GaussianState(cov_factor=unitary.symplectic @ state.cov_factor)


def _mode_channels(state: GaussianState, modes, gains, noises) -> GaussianState:
    """Scale each mode's factor rows by its gain and append its 2 x 2 noise factor (x and p rows).

    A channel touches only its mode's rows, from which its noise is computed, and its own new
    columns; so for distinct modes one pass equals the chained one-mode channels, bit for bit.
    `modes` are checked 1-based indices.
    """
    if not modes:
        return state
    rows, m = state.cov_factor.shape
    n = rows // 2
    scale = [1.0] * rows
    factor = np.zeros((rows, m + 2 * len(modes)))
    for col, mode, gain, (noise_x, noise_p) in zip(range(m, factor.shape[1], 2), modes, gains, noises):
        ix, ip = mode - 1, n + mode - 1
        scale[ix] = scale[ip] = gain
        factor[ix, col:col + 2] = noise_x
        factor[ip, col:col + 2] = noise_p
    factor[:, :m] = np.array(scale)[:, None] * state.cov_factor
    return GaussianState(cov_factor=factor)


def lossy_channels(state: GaussianState, etas: dict[int, float]) -> GaussianState:
    """:func:`lossy_channel` on every mode of `etas` (1-based mode -> eta), in one pass."""
    n = state.n_modes
    modes = [_checked_mode(mode, n) for mode in etas]
    for eta in etas.values():
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    vacua = [math.sqrt((1.0 - eta) * VACUUM_VARIANCE) for eta in etas.values()]
    return _mode_channels(state, modes, [math.sqrt(eta) for eta in etas.values()], [((v, 0.0), (0.0, v)) for v in vacua])


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


def _rotation_noise(state: GaussianState, mode: int, vcc: float, vss: float):
    """Rows of the lower Cholesky factor of the noise N = E[D G D^T] a random rotation adds to one mode.

    R = cos theta I + sin theta J = E[R] + D, J = [[0, -1], [1, 0]], with
    D = dc I + ds J of centred moments vcc = E[dc^2], vss = E[ds^2] and
    E[dc ds] = 0 (theta is symmetric about 0); G = F_m F_m^T is the mode's
    covariance block: N = vcc G + vss J G J^T.
    """
    n = state.cov_factor.shape[0] // 2
    rows = state.cov_factor[mode - 1::n]  # the mode's x and p rows
    (gxx, gxp), (_, gpp) = (rows @ rows.T).tolist()
    nxx = vcc * gxx + vss * gpp
    npp = vcc * gpp + vss * gxx
    nxp = (vcc - vss) * gxp
    # clipped against rounding
    lxx = math.sqrt(max(nxx, 0.0))
    lpx = nxp / lxx if lxx > 0.0 else 0.0
    lpp = math.sqrt(max(npp - lpx * lpx, 0.0))
    return (lxx, 0.0), (lpx, lpp)


def phase_jitters(state: GaussianState, sigmas: dict[int, float]) -> GaussianState:
    """:func:`phase_jitter` on every mode of `sigmas` (1-based mode -> sigma), in one pass."""
    n = state.n_modes
    modes = [_checked_mode(mode, n) for mode in sigmas]
    for sigma in sigmas.values():
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise ValueError(f"jitter sigma must be finite and >= 0, got {sigma}")
    s2 = {mode: sigma * sigma for mode, sigma in zip(modes, sigmas.values()) if sigma > 0.0}
    noises = [_rotation_noise(state, mode, 0.5 * math.expm1(-v) ** 2, -0.5 * math.expm1(-2.0 * v))
              for mode, v in s2.items()]
    return _mode_channels(state, s2, [math.exp(-v / 2.0) for v in s2.values()], noises)


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
    w = state.cov_factor.T @ c
    return float(w @ w)


def variance_to_db(v: float, v_ref: float) -> float:
    """Variance ratio in decibels, 10 log10(v / v_ref).

    For a nullifier with k unit-coefficient terms the natural reference is
    its vacuum-input variance k/4.
    """
    if not (v > 0.0 and v_ref > 0.0):
        raise ValueError(f"variances must be positive, got v={v}, v_ref={v_ref}")
    return 10.0 * math.log10(v / v_ref)
