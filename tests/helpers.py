"""Shared builders for the test suite."""

import math
from dataclasses import dataclass

import numpy as np

from cvcluster.analysis import linear4, square4, tshape4
from cvcluster.gaussian import (
    ComplexUnitary,
    GaussianState,
    SqueezedInputSpec,
    apply_unitary,
    combination_variance,
    impure_squeezed_vacuum,
    squeezed_vacuum,
    tensor,
)
from cvcluster.networks import (
    linear_cluster_unitary,
    linear_to_square_phases,
    square_cluster_unitary,
    tshape_cluster_unitary,
)

NETWORKS = {
    "linear4": (linear_cluster_unitary, linear4),
    "square4": (square_cluster_unitary, square4),
    "tshape4": (tshape_cluster_unitary, tshape4),
}


def pure_inputs(r) -> GaussianState:
    """Four p-squeezed vacua with the given squeezing parameters."""
    return tensor([squeezed_vacuum(ri) for ri in r])


def impure_inputs(squeezing_db, antisqueezing_db) -> GaussianState:
    return tensor([
        impure_squeezed_vacuum(SqueezedInputSpec(s, a))
        for s, a in zip(squeezing_db, antisqueezing_db)
    ])


def cluster_state(name: str, r) -> GaussianState:
    """Ideal cluster state: pure squeezed inputs through the named network."""
    make_unitary, _ = NETWORKS[name]
    return apply_unitary(pure_inputs(r), make_unitary())


def graph_for(name: str):
    return NETWORKS[name][1]()


def haar_unitary(n: int, rng: np.random.Generator) -> ComplexUnitary:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, rr = np.linalg.qr(z)
    return ComplexUnitary(q @ np.diag(np.diag(rr) / np.abs(np.diag(rr))))


def db_to_variance(level_db: float, reference: float) -> float:
    """Variance at a dB level relative to a reference, the inverse of variance_to_db."""
    if reference <= 0.0:
        raise ValueError(f"reference must be positive, got {reference}")
    if not math.isfinite(level_db):
        raise ValueError(f"dB level must be finite, got {level_db}")
    return reference * 10.0 ** (level_db / 10.0)


def _combo(n: int, terms) -> np.ndarray:
    c = np.zeros(2 * n)
    for sign, quad, mode in terms:
        c[(0 if quad == "x" else n) + mode - 1] = sign
    return c


# Quadrature identities connecting the square state (phases applied to the
# linear state) with combinations measured directly on the linear state.
# Each pair (square-side combination, linear-side combination) is an exact
# operator identity, so the variances agree on any state.
_EQUIVALENCE_IDENTITIES = (
    ([(1, "p", 1), (-1, "x", 3), (-1, "x", 4)], [(-1, "p", 1), (1, "p", 3), (-1, "x", 4)]),
    ([(1, "p", 2), (-1, "x", 3), (-1, "x", 4)], [(-1, "x", 2), (1, "p", 3), (-1, "x", 4)]),
    ([(1, "p", 3), (-1, "x", 1), (-1, "x", 2)], [(1, "x", 1), (-1, "p", 2), (1, "x", 3)]),
    ([(1, "p", 4), (-1, "x", 1), (-1, "x", 2)], [(1, "x", 1), (-1, "p", 2), (1, "p", 4)]),
)


@dataclass(frozen=True)
class IdentityCheckResult:
    ok: bool
    residuals: tuple[float, ...]
    tolerance: float


def equivalence_identities_check(linear_state: GaussianState, tolerance: float = 1e-12) -> IdentityCheckResult:
    """Check the four linear/square quadrature identities on a given state.

    The square-side combination is evaluated on the state after the local
    phases that map the linear network to the square one; the linear-side
    combination is evaluated directly.  Both are operator identities, so the
    residuals stay at float noise for any input, including lossy states.

    Args:
        linear_state: a 4-mode state produced by the linear-cluster network.
        tolerance: maximum allowed absolute variance difference.

    Returns:
        Flag plus the four absolute variance differences.
    """
    if linear_state.n_modes != 4:
        raise ValueError(f"expected a 4-mode state, got {linear_state.n_modes} modes")
    square_state = apply_unitary(linear_state, linear_to_square_phases())
    residuals = []
    for square_terms, linear_terms in _EQUIVALENCE_IDENTITIES:
        v_square = combination_variance(square_state, _combo(4, square_terms))
        v_linear = combination_variance(linear_state, _combo(4, linear_terms))
        residuals.append(abs(v_square - v_linear))
    residuals = tuple(residuals)
    return IdentityCheckResult(ok=max(residuals) < tolerance, residuals=residuals, tolerance=tolerance)
