"""shadowkit: classical shadow estimation with circuit reuse.

The package has three layers:

* simulation: ``stabilizer`` (Pauli strings, tableaux of n stabilizer
  rows, Z-basis support), ``clifford`` (symplectic group elements, exactly
  uniform sampling, one Pauli-row conjugation kernel), ``bits`` (F2 rank
  and row-echelon form), ``dense`` (the dense-size budget), ``ensembles``
  (Haar, Clifford, and T-gate-interpolated circuit families), all on one
  F2 row layout: an (x|z) row is one int64 word;
* estimation: ``protocol`` (single-shot estimator evaluated a chunk of
  circuits at a time, acquisition with reuse, records written and replayed
  on the same chunked path, median of means, conditional-mean variances);
* analysis: ``moments`` (commutant bases, exact Gram/Weingarten matrices,
  closed-form variances), ``tails`` (exact estimator moments, tail bounds,
  reuse-cost optimizer), ``experiments``/``cli`` (reproducible runs).

numpy is the only runtime dependency.  The dense and sparse reference
implementations (Pauli, observable and Clifford matrices, frame operators
and their inverse, the commutant operators R_T and Pi4, the brute-force
commutant enumeration, enumeration of C_n for n <= 2, the uint8
conjugation kernel) are test oracles and live with the tests.
"""

from .clifford import CliffordElement, sample_uniform
from .ensembles import EnsembleSpec, SampledCircuit, sample_circuit
from .protocol import (ObservableSpec, RunConfig, ShadowRecord, acquire, estimate,
                       estimate_vstar, median_of_means, read_records, record_values,
                       single_shot, stabilizer_pair, write_records)
from .stabilizer import PauliString, StabilizerTableau
from .moments import (commutant_labels, gram_matrix, stabilizer_pair_variance,
                      thrifty_variance_predict, weingarten_matrix)
from .tails import (CostModel, bernstein_tail, clifford_moment, limiting_moment,
                    mgf_bound_haar, optimal_reuse, tail_experiment)

__version__ = "0.1.0"

# the names README.md's library tour lists, and no others
__all__ = [
    "CliffordElement", "CostModel", "EnsembleSpec", "ObservableSpec",
    "PauliString", "RunConfig", "SampledCircuit", "ShadowRecord",
    "StabilizerTableau", "acquire", "bernstein_tail", "clifford_moment",
    "commutant_labels", "estimate", "estimate_vstar", "gram_matrix",
    "limiting_moment", "median_of_means", "mgf_bound_haar", "optimal_reuse",
    "read_records", "record_values", "sample_circuit", "sample_uniform", "single_shot",
    "stabilizer_pair", "stabilizer_pair_variance", "tail_experiment",
    "thrifty_variance_predict", "weingarten_matrix", "write_records",
]
