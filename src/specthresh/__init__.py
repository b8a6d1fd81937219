"""High-dimensional spectral density estimation by thresholding averaged
periodograms, with VARMA simulation, frequency-domain threshold tuning,
shrinkage and coherence-network utilities."""

from .dft import FourierGrid
from .errors import (
    DataError,
    ModelError,
    NumericalError,
    ParameterError,
    SpecthreshError,
)
from .estimator import (
    SpectralEstimate,
    ThresholdOperator,
    aggregate_coherence_graph,
    coherence,
    threshold_estimate,
)
from .metrics import (
    EvaluationReport,
    RocCurve,
    replicate_summary,
    rmise,
    roc_points,
    support_scores,
)
from .model import (
    TimeSeriesMatrix,
    VarmaModel,
    autocov,
    block_varma_model,
    l_n,
    omega_n,
    simulate,
    simulate_ensemble,
    stability_measure,
    true_spectral_density,
)
from .tuning import default_span, theoretical_threshold, tuned_estimates

__version__ = "0.1.0"
