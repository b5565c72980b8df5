"""Gaussian simulation of four-mode continuous-variable cluster states.

The package builds multimode Gaussian states from squeezed vacuum, propagates
them through passive linear-optical networks (given either as complex unitaries
or as Fourier/beam-splitter/swap factor sequences), and evaluates the cluster
correlations: nullifier variances, their dB levels against the vacuum-input
reference, and the pairwise variance inequalities that certify full
inseparability.

Conventions used throughout:

* hbar = 1/2, so every vacuum quadrature variance is 1/4.
* Quadrature vectors are ordered (x_1 .. x_n, p_1 .. p_n).
* Mode and graph-node indices are 1-based in the public API, matching the
  labels used in optical-bench diagrams and netlist files.
"""

from cvcluster.gaussian import (
    ComplexUnitary,
    GaussianState,
    SqueezedInputSpec,
    apply_unitary,
    combination_variance,
    impure_squeezed_vacuum,
    lossy_channel,
    phase_jitter,
    squeezed_vacuum,
    squeezing_db_to_r,
    tensor,
    unitary_to_symplectic,
    vacuum,
    variance_to_db,
)
from cvcluster.networks import (
    NetworkElement,
    NetworkProgram,
    element_matrix,
    linear_cluster_unitary,
    linear_program,
    linear_to_square_phases,
    parse_netlist,
    program_matrix,
    square_cluster_unitary,
    tshape_cluster_unitary,
    tshape_program,
)
from cvcluster.analysis import (
    GraphSpec,
    NullifierReport,
    UnsupportedGraphError,
    WitnessReport,
    analytic_residual_variances,
    full_inseparability_verdict,
    linear4,
    nullifier_coefficients,
    nullifier_report,
    square4,
    tshape4,
)
from cvcluster.scenarios import (
    ConfigError,
    ScenarioConfig,
    ScenarioReport,
    run_scenario,
    run_sweep,
    verify_decompositions,
)

__all__ = [
    "ComplexUnitary",
    "ConfigError",
    "GaussianState",
    "GraphSpec",
    "NetworkElement",
    "NetworkProgram",
    "NullifierReport",
    "ScenarioConfig",
    "ScenarioReport",
    "SqueezedInputSpec",
    "UnsupportedGraphError",
    "WitnessReport",
    "analytic_residual_variances",
    "apply_unitary",
    "combination_variance",
    "element_matrix",
    "full_inseparability_verdict",
    "impure_squeezed_vacuum",
    "linear4",
    "linear_cluster_unitary",
    "linear_program",
    "linear_to_square_phases",
    "lossy_channel",
    "nullifier_coefficients",
    "nullifier_report",
    "parse_netlist",
    "phase_jitter",
    "program_matrix",
    "run_scenario",
    "run_sweep",
    "square4",
    "square_cluster_unitary",
    "squeezed_vacuum",
    "squeezing_db_to_r",
    "tensor",
    "tshape4",
    "tshape_cluster_unitary",
    "tshape_program",
    "unitary_to_symplectic",
    "vacuum",
    "variance_to_db",
    "verify_decompositions",
]

__version__ = "0.1.0"
