"""Model-free causal-influence testing via partial coherence.

The package computes partial coherence between signal sequences, tests
the null hypothesis of non-causality against its exact Wilks Lambda
law, and reproduces the built-in simulation experiments (coherence
direction maps and the ARMA power/ROC study).
"""
from .covariance import (
    BlockDims,
    CompositeCovariance,
    CovarianceError,
    northwest_readout,
    schur_complement,
)
from .coherence import (
    InformationMeasures,
    PartialCoherenceResult,
    SpectralCoherence,
    block_diag_transform,
    information_measures,
    partial_coherence,
    partial_coherence_one_onto_two,
    spectral_partial_coherence,
)
from .nulldist import (
    WilksLambdaSpec,
    bartlett_critical_value,
    bartlett_pvalue,
    critical_value,
    make_spec,
    null_law,
    p_value,
    sample_null,
)
from .inference import (
    DataPanel,
    LagSpec,
    Role,
    TestOutcome,
    lag_embed,
    likelihood_ratio,
    read_sequence_csv,
    sample_covariance,
    test_causal_influence,
)
from .simulate import (
    BarnettModelSpec,
    CovarianceSequences,
    MAFilterSpec,
    analytic_covariances,
    composite_from_sequences,
    gen_barnett,
    gen_ma_case,
    lag_window_covariance,
    write_sequence_csv,
)
from .experiments import (
    CoherenceMap,
    PowerPoint,
    ROCPoint,
    SizeEstimate,
    calibrate_size,
    coherence_map,
    power_curve,
    roc_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDims",
    "CompositeCovariance",
    "CovarianceError",
    "northwest_readout",
    "schur_complement",
    "InformationMeasures",
    "PartialCoherenceResult",
    "SpectralCoherence",
    "block_diag_transform",
    "information_measures",
    "partial_coherence",
    "partial_coherence_one_onto_two",
    "spectral_partial_coherence",
    "WilksLambdaSpec",
    "bartlett_critical_value",
    "bartlett_pvalue",
    "critical_value",
    "make_spec",
    "null_law",
    "p_value",
    "sample_null",
    "DataPanel",
    "LagSpec",
    "Role",
    "TestOutcome",
    "lag_embed",
    "likelihood_ratio",
    "read_sequence_csv",
    "sample_covariance",
    "test_causal_influence",
    "BarnettModelSpec",
    "CovarianceSequences",
    "MAFilterSpec",
    "analytic_covariances",
    "composite_from_sequences",
    "gen_barnett",
    "gen_ma_case",
    "lag_window_covariance",
    "write_sequence_csv",
    "CoherenceMap",
    "PowerPoint",
    "ROCPoint",
    "SizeEstimate",
    "calibrate_size",
    "coherence_map",
    "power_curve",
    "roc_curve",
]
