"""Shared builders for the test suite."""

import numpy as np

from cvcluster.analysis import linear4, square4, tshape4
from cvcluster.gaussian import (
    ComplexUnitary,
    GaussianState,
    SqueezedInputSpec,
    apply_unitary,
    impure_squeezed_vacuum,
    squeezed_vacuum,
    tensor,
)
from cvcluster.networks import (
    linear_cluster_unitary,
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


def db_variance(level_db: float, reference: float) -> float:
    return reference * 10.0 ** (level_db / 10.0)
