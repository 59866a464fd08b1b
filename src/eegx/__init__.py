"""Extreme-value analysis of multichannel EEG recordings.

The pipeline: load a recording, decompose channels into the standard
frequency bands, model each tail with a generalized Pareto distribution,
quantify pairwise extremal dependence with chi/chibar, and fit the
conditional extremes model given a reference channel is extreme, with
pre/post seizure-onset comparison.
"""

from .cond_extremes import (
    ConditionalSample,
    HtFit,
    MarginalTransform,
    conditional_model,
    conditional_summary,
    fit_ht,
    fit_marginal,
    from_laplace,
    laplace_cdf,
    laplace_quantile,
    simulate_conditional,
    to_laplace,
)
from .errors import (
    ChannelLookupError,
    DataError,
    DesignError,
    DomainError,
    EegxError,
    FitError,
    FormatError,
    SizeError,
    SparseTailError,
    UsageError,
    ValidationError,
)
from .evt_univariate import (
    ClusterSet,
    GpdFit,
    ThresholdDiagnostics,
    decluster_runs,
    fit_channel_tail,
    fit_gpd,
    mean_residual_life,
    parameter_stability,
    return_level,
)
from .extremal_dep import (
    ChiEstimate,
    ChiMatrix,
    chi_matrices,
    chi_matrix,
    chi_u,
    uniform_scores,
)
from .oracle_sim import (
    SimSpec,
    gen_exponential,
    gen_gaussian_copula_pair,
    gen_gpd,
    gen_independent_pair,
    gen_comonotone_pair,
    gen_synthetic_eeg,
    generate,
)
from .preprocess import (
    DEFAULT_BANDS,
    BandDecomposition,
    BandDefinition,
    FilterSpec,
    apply_zero_phase,
    decompose_bands,
    design_bandpass,
    detrend,
)
from .signal_io import (
    EegRecording,
    EpochPair,
    load_recording,
    save_recording,
    select_channels,
    split_at_onset,
)
from .spectral import SpectrumEstimate, band_power, periodogram, welch

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # recordings
    "EegRecording",
    "EpochPair",
    "load_recording",
    "save_recording",
    "select_channels",
    "split_at_onset",
    # preprocessing
    "BandDefinition",
    "BandDecomposition",
    "FilterSpec",
    "DEFAULT_BANDS",
    "design_bandpass",
    "apply_zero_phase",
    "detrend",
    "decompose_bands",
    # spectra
    "SpectrumEstimate",
    "periodogram",
    "welch",
    "band_power",
    # univariate tails
    "GpdFit",
    "ThresholdDiagnostics",
    "ClusterSet",
    "mean_residual_life",
    "parameter_stability",
    "decluster_runs",
    "fit_gpd",
    "return_level",
    "fit_channel_tail",
    # extremal dependence
    "ChiEstimate",
    "ChiMatrix",
    "uniform_scores",
    "chi_u",
    "chi_matrix",
    "chi_matrices",
    # conditional extremes
    "MarginalTransform",
    "HtFit",
    "ConditionalSample",
    "laplace_quantile",
    "laplace_cdf",
    "fit_marginal",
    "to_laplace",
    "from_laplace",
    "fit_ht",
    "conditional_model",
    "simulate_conditional",
    "conditional_summary",
    # oracles
    "SimSpec",
    "gen_gpd",
    "gen_exponential",
    "gen_gaussian_copula_pair",
    "gen_comonotone_pair",
    "gen_independent_pair",
    "gen_synthetic_eeg",
    "generate",
    # errors
    "EegxError",
    "ValidationError",
    "FormatError",
    "DataError",
    "UsageError",
    "ChannelLookupError",
    "SizeError",
    "DesignError",
    "DomainError",
    "FitError",
    "SparseTailError",
]
