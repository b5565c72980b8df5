"""Multimode Gaussian states, passive linear optics, and imperfection channels.

A state is its covariance factor F; cov = F F^T is derived on request, in the
hbar = 1/2 convention (vacuum variance 1/4) with quadratures stacked as
(x_1 .. x_n, p_1 .. p_n).  States are zero-mean: a displacement changes no
variance, and variances are all this package reports.  A passive network
given as a complex unitary U = A + iB maps to the real quadrature transform
S = [[A, -B], [B, A]] (symplectic, orthogonal, built once) and sends F to S F;
loss and phase jitter scale a mode's rows and append two noise columns, all
modes of a kind in one pass.  Each stage is one kernel on a stack of k
factors of shape (k, 2n, m) (`input_factors`, `loss_factors`,
`network_factors`, `jitter_factors`); the state functions are its k = 1
calls, and a sweep sends all its points through each kernel at once.  The
channel kernels run a small stack point by point (the scalar form) and a
larger one as whole-stack array operations (the array form,
`ARRAY_FORM_MIN_POINTS`); both give the same bits.
Channel-built states are physical and are checked only for shape and
finiteness; a caller-supplied covariance is checked physically, once, and
factored.  Combination variances are sums of squares ||F^T c||^2, accurate
even when huge antisqueezed variances cancel, for a whole stack at once
(`combination_variances`).

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
    return GaussianState(cov_factor=input_factors([squeezing_db], [antisqueezing_db])[0])


# Smallest stack the channel kernels take in array form: whole-stack ufuncs
# and writes through cached flat indices, in the scalar form's order of
# operations and so in its bits.  A smaller stack, a single scenario's stack
# of one included, runs the scalar form: `math` calls and item writes per
# point and mode, which is also the reference the tests hold the array form
# to.  The array form costs a few dozen numpy calls per pass whatever k is.
# Measured on a `measured_gap` pass with loss and jitter on every mode (one
# core of a 2-vCPU host, one BLAS thread, loss, jitter and squeezing sweeps):
# the scalar form is about 2x faster at 1 point and still faster at 2 and 3;
# at 4 the two are even (117-144 us against 127-172 us), at 5 the array form
# is even or ahead, and at 200 it takes 0.9-1.4 ms against 3.6-5.3 ms.
ARRAY_FORM_MIN_POINTS = 5


def _per_value(scalar, x: np.ndarray) -> np.ndarray:
    """`scalar` of each element of `x`, called once per distinct value: x's shape, plus a tuple result's length.

    `scalar` is a `math` function of a Python float: numpy's transcendental
    functions round some inputs differently, so their values come from the
    same calls as in the scalar form, and only the arithmetic around them
    runs on the whole stack.
    """
    ranked = np.sort(x, axis=None)
    distinct = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    return np.array([scalar(v) for v in distinct.tolist()])[np.searchsorted(distinct, x)]


def input_factors(squeezing_db, antisqueezing_db) -> np.ndarray:
    """The (k, 2n, 2n) stacked factors of k product inputs; point i has the n levels of row i of each argument.

    Mode j's x row holds sqrt(0.25 * 10^(a/10)) in column 2j and its p row
    sqrt(0.25 * 10^(s/10)) in column 2j + 1.  Levels go unchecked.
    """
    k, n = len(squeezing_db), len(squeezing_db[0])
    factor = np.zeros((k, 2 * n, 2 * n))
    if k < ARRAY_FORM_MIN_POINTS:
        for i, levels in enumerate(zip(squeezing_db, antisqueezing_db)):
            for j, (s, a) in enumerate(zip(*levels)):
                factor[i, j, 2 * j] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (a / 10.0))
                factor[i, n + j, 2 * j + 1] = math.sqrt(VACUUM_VARIANCE * 10.0 ** (s / 10.0))
        return factor
    levels = np.concatenate((antisqueezing_db, squeezing_db), axis=1)  # (k, 2n): x rows, then p rows
    powers = _per_value(lambda level: 10.0 ** (level / 10.0), levels)
    factor.reshape(k, -1)[:, _input_cells(n)] = np.sqrt(VACUUM_VARIANCE * powers)
    return factor


@functools.lru_cache(maxsize=64)
def _input_cells(n: int) -> np.ndarray:
    """The flat indices of the x cells and then of the p cells of :func:`input_factors` in a (2n, 2n) factor."""
    width = 2 * n
    return _read_only(np.array([j * width + 2 * j for j in range(n)] + [(n + j) * width + 2 * j + 1 for j in range(n)]))


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
    return GaussianState(cov_factor=network_factors(state.cov_factor[None], unitary)[0])


def network_factors(factor: np.ndarray, unitary: ComplexUnitary) -> np.ndarray:
    """:func:`apply_unitary` on a (k, 2n, m) stack of factors: each F_i -> S F_i, one matrix product per point."""
    return np.matmul(unitary.symplectic, factor)


def _mode_channels(factor: np.ndarray, modes: tuple[int, ...], gains, noises) -> np.ndarray:
    """Scale each mode's rows by its gain and append its 2 x 2 noise factor, on a (k, 2n, m) stack.

    Point i scales the rows of mode modes[j] by gains[i][j] and appends two
    columns holding the lower triangular noise factor noises[i][j] =
    (a, b, c): (a, 0) in the mode's x row and (b, c) in its p row.  A
    channel touches only its mode's rows, from which its noise is computed,
    and its own new columns; so for distinct modes one pass equals the
    chained one-mode channels, bit for bit.  `modes` are checked 1-based
    indices.
    """
    k, rows, m = factor.shape
    n = rows // 2
    out = np.zeros((k, rows, m + 2 * len(modes)))
    scales = []
    for i, (point_gains, point_noises) in enumerate(zip(gains, noises)):
        scale = [1.0] * rows
        for col, mode, gain, (a, b, c) in zip(range(m, out.shape[2], 2), modes, point_gains, point_noises):
            scale[mode - 1] = scale[n + mode - 1] = gain
            out[i, mode - 1, col] = a
            out[i, n + mode - 1, col] = b
            out[i, n + mode - 1, col + 1] = c
        scales.append(scale)
    np.multiply(np.array(scales)[:, :, None], factor, out=out[:, :, :m])
    return out


def _mode_channels_array(factor: np.ndarray, modes: tuple[int, ...], gains: np.ndarray, noises) -> np.ndarray:
    """:func:`_mode_channels` in array form: (k, J) `gains` and `noises` = (a, b, c), each (k, J) or a float."""
    k, rows, m = factor.shape
    out = np.zeros((k, rows, m + 2 * len(modes)))
    x_rows, p_rows = _mode_rows(rows // 2, modes).T
    scale = np.ones((k, rows))
    scale[:, x_rows] = gains
    scale[:, p_rows] = gains
    np.multiply(scale[:, :, None], factor, out=out[:, :, :m])
    flat = out.reshape(k, -1)
    for cells, values in zip(_noise_cells(rows, m, modes), noises):
        flat[:, cells] = values
    return out


@functools.lru_cache(maxsize=64)
def _noise_cells(rows: int, m: int, modes: tuple[int, ...]) -> np.ndarray:
    """The (3, J) flat indices of each mode's a, b and c noise cells in a (rows, m + 2J) :func:`_mode_channels` output."""
    width = m + 2 * len(modes)
    x_rows, p_rows = _mode_rows(rows // 2, modes).T
    cols = np.arange(m, width, 2)
    return _read_only(np.array([x_rows * width + cols, p_rows * width + cols, p_rows * width + cols + 1]))


def lossy_channels(state: GaussianState, etas: dict[int, float]) -> GaussianState:
    """:func:`lossy_channel` on every mode of `etas` (1-based mode -> eta), in one pass."""
    n = state.n_modes
    modes = [_checked_mode(mode, n) for mode in etas]
    for eta in etas.values():
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if not modes:
        return state
    return GaussianState(cov_factor=loss_factors(state.cov_factor[None], tuple(modes), [list(etas.values())])[0])


def loss_factors(factor: np.ndarray, modes: tuple[int, ...], etas) -> np.ndarray:
    """:func:`lossy_channels` on a (k, 2n, m) stack: point i has transmissivity etas[i][j] on mode modes[j].

    `modes` must be checked and nonempty; transmissivities go unchecked.
    """
    if len(etas) < ARRAY_FORM_MIN_POINTS:
        gains = [[math.sqrt(eta) for eta in row] for row in etas]
        vacua = [[math.sqrt((1.0 - eta) * VACUUM_VARIANCE) for eta in row] for row in etas]
        return _mode_channels(factor, modes, gains, [[(v, 0.0, v) for v in row] for row in vacua])
    etas = np.array(etas, dtype=float)
    vacua = np.sqrt((1.0 - etas) * VACUUM_VARIANCE)
    return _mode_channels_array(factor, modes, np.sqrt(etas), (vacua, 0.0, vacua))


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


@functools.lru_cache(maxsize=64)
def _mode_rows(n: int, modes: tuple[int, ...]) -> np.ndarray:
    """The (J, 2) indices of the x and p rows of each of `modes` (checked, 1-based) in a 2n-row factor, built once."""
    return _read_only(np.array([(mode - 1, n + mode - 1) for mode in modes]))


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


def _rotation_noises(grams: np.ndarray, vcc: np.ndarray, vss: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_rotation_noise` in array form: (..., 2, 2) `grams` and (...) moments give (...) lxx, lpx and lpp.

    The same operations in the same order, so the same bits.  No noise term
    can be -0.0, the one input on which the clip and Python's `max` differ.
    """
    gxx, gxp, gpp = grams[..., 0, 0], grams[..., 0, 1], grams[..., 1, 1]
    nxx = vcc * gxx + vss * gpp
    npp = vcc * gpp + vss * gxx
    nxp = (vcc - vss) * gxp
    lxx = np.sqrt(np.maximum(nxx, 0.0))
    lpx = np.divide(nxp, lxx, out=np.zeros_like(nxp), where=lxx > 0.0)
    lpp = np.sqrt(np.maximum(npp - lpx * lpx, 0.0))
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
    factor = jitter_factors(state.cov_factor[None], tuple(jittered), [list(jittered.values())])
    return GaussianState(cov_factor=factor[0])


def jitter_factors(factor: np.ndarray, modes: tuple[int, ...], sigmas) -> np.ndarray:
    """:func:`phase_jitters` on a (k, 2n, m) stack: point i has sigma sigmas[i][j] > 0 on mode modes[j].

    `modes` must be checked and nonempty; sigmas go unchecked.
    """
    block = factor.take(_mode_rows(factor.shape[1] // 2, modes), axis=1)  # (k, J, 2, m)
    grams = block @ block.swapaxes(2, 3)
    del block  # as large as the factor
    if len(sigmas) < ARRAY_FORM_MIN_POINTS:
        moments = [[_jitter_moments(sigma) for sigma in row] for row in sigmas]
        noises = [[_rotation_noise(gram, vcc, vss) for gram, (vcc, vss, _) in zip(point_grams, row)]
                  for point_grams, row in zip(grams.tolist(), moments)]
        return _mode_channels(factor, modes, [[gain for _, _, gain in row] for row in moments], noises)
    vcc, vss, gains = _per_value(_jitter_moments, np.array(sigmas, dtype=float)).transpose(2, 0, 1)
    return _mode_channels_array(factor, modes, gains, _rotation_noises(grams, vcc, vss))


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
    return float(combination_variances(state.cov_factor[None], c[None])[0, 0])


def combination_variances(factor: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """:func:`combination_variance` of each row c_j of a (J, 2n) `coeffs` on a (k, 2n, m) stack: (k, J) variances.

    w = c_j^T F_i is one vector-matrix product per point and row, and its
    square sum w . w one dot; both round as the k = 1 call does.  One matrix
    product C F_i per point would be faster, but it sums the terms of a
    combination in another order, and rounds differently once a combination
    has more than a few terms (dense graphs from 8 modes up).
    """
    w = np.matmul(coeffs[None, :, None, :], factor[:, None])[..., 0, :]  # (k, J, m)
    return np.matmul(w[..., None, :], w[..., :, None])[..., 0, 0]


def variance_to_db(v: float, v_ref: float) -> float:
    """Variance ratio in decibels, 10 log10(v / v_ref).

    For a nullifier with k unit-coefficient terms the natural reference is
    its vacuum-input variance k/4.
    """
    if not (v > 0.0 and v_ref > 0.0):
        raise ValueError(f"variances must be positive, got v={v}, v_ref={v_ref}")
    return 10.0 * math.log10(v / v_ref)
