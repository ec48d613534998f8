"""shadowkit: classical shadow estimation with circuit reuse.

The package has three layers:

* simulation: ``stabilizer`` (Pauli strings, tableaux of n stabilizer
  rows, Z-basis support), ``clifford`` (symplectic group elements, exactly
  uniform sampling, enumeration for n <= 2), ``dense`` (the dense-size
  budget), ``ensembles`` (Haar, Clifford, and T-gate-interpolated circuit
  families);
* estimation: ``protocol`` (single-shot estimator evaluated once per circuit,
  acquisition with reuse, median of means, conditional-mean variances);
* analysis: ``moments`` (commutant bases, exact Gram/Weingarten matrices,
  closed-form variances), ``tails`` (exact estimator moments, tail bounds,
  reuse-cost optimizer), ``experiments``/``cli`` (reproducible runs).

numpy is the only runtime dependency.  The dense and sparse reference
implementations (frame operators, the commutant operators R_T and Pi4) are
test oracles and live with the tests.
"""

from .clifford import CliffordElement, clifford_order, enumerate_group, sample_uniform
from .ensembles import EnsembleSpec, SampledCircuit, inverse_frame_apply, sample_circuit
from .protocol import (ObservableSpec, RunConfig, ShadowRecord, acquire, estimate,
                       estimate_vstar, median_of_means, single_shot, stabilizer_pair)
from .stabilizer import PauliString, StabilizerTableau
from .moments import (commutant_labels, gram_matrix, sigma_tt_enumerate,
                      stabilizer_pair_variance, thrifty_variance_predict,
                      variance_3design, weingarten_matrix)
from .tails import (CostModel, bernstein_tail, clifford_moment, limiting_moment,
                    mgf_bound_haar, optimal_reuse, tail_experiment)

__version__ = "0.1.0"

__all__ = [
    "CliffordElement", "CostModel", "EnsembleSpec", "ObservableSpec",
    "PauliString", "RunConfig", "SampledCircuit", "ShadowRecord",
    "StabilizerTableau", "acquire", "bernstein_tail", "clifford_moment",
    "clifford_order", "commutant_labels", "enumerate_group",
    "estimate", "estimate_vstar", "gram_matrix", "inverse_frame_apply",
    "limiting_moment", "median_of_means", "mgf_bound_haar", "optimal_reuse",
    "sample_circuit", "sample_uniform", "sigma_tt_enumerate",
    "single_shot", "tail_experiment", "stabilizer_pair", "stabilizer_pair_variance",
    "thrifty_variance_predict", "variance_3design", "weingarten_matrix",
]
