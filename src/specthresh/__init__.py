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
    block_varma_model,
    simulate,
    simulate_ensemble,
)
from .tuning import default_span, tuned_estimates

__version__ = "0.1.0"
