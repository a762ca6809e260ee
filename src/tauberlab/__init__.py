"""tauberlab: a numerical laboratory for quantified decay bounds.

Growth-rate calculus, transform quadrature, strip-decay kernels, witness
certificates, half-plane splitting checks, and semigroup decay comparisons,
with a deterministic command-line front end.

The public surface is re-exported here; submodules stay importable directly
(``tauberlab.growth``, ``tauberlab.witness``, ...) for everything else.
"""

from .errors import ConfigurationError, DomainError, FitError, TauberlabError
from .growth import (
    Envelope,
    GrowthFunction,
    RateParams,
    RegularGrowthReport,
    check_regularly_growing,
    constant,
    exponential,
    from_table,
    logarithmic,
    m_k,
    m_log,
    parse_growth_spec,
    poly,
    right_inverse,
)
from .regions import sample
from .specialfn import (
    StripFunction,
    StripKernel,
    build_kernel,
    build_strip_function,
    load_kernel,
    reality_ratio,
    roundtrip_max_deviation,
    save_kernel,
    verify_strip_decay,
)
from .truncate import (
    AgreementReport,
    HalfplaneReport,
    SplitPair,
    split,
    verify_agreement,
    verify_halfplane_bounds,
)
from .witness import (
    WitnessCertificate,
    calibrate_kappa,
    modulated_translate,
    optimize_R,
    sharpness_curve,
    x_norm,
)
from .xforms import (
    SampledComplexFunction,
    fourier_invert,
    l1_norm_samples,
    laplace,
    laplace_many,
)
from .semigroup import (
    DecayReport,
    MultSemigroupSpec,
    compare_rates,
    decay_norm,
    geometric_frequencies,
    mult_decay_report,
    mult_semigroup,
    shift_witness_lower,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "ConfigurationError",
    "DecayReport",
    "DomainError",
    "Envelope",
    "FitError",
    "GrowthFunction",
    "HalfplaneReport",
    "MultSemigroupSpec",
    "RateParams",
    "RegularGrowthReport",
    "SampledComplexFunction",
    "SplitPair",
    "StripFunction",
    "StripKernel",
    "TauberlabError",
    "WitnessCertificate",
    "build_kernel",
    "build_strip_function",
    "calibrate_kappa",
    "check_regularly_growing",
    "compare_rates",
    "constant",
    "decay_norm",
    "exponential",
    "from_table",
    "geometric_frequencies",
    "fourier_invert",
    "l1_norm_samples",
    "laplace",
    "laplace_many",
    "load_kernel",
    "logarithmic",
    "m_k",
    "m_log",
    "modulated_translate",
    "mult_decay_report",
    "mult_semigroup",
    "optimize_R",
    "parse_growth_spec",
    "poly",
    "reality_ratio",
    "right_inverse",
    "roundtrip_max_deviation",
    "sample",
    "save_kernel",
    "sharpness_curve",
    "shift_witness_lower",
    "split",
    "verify_agreement",
    "verify_halfplane_bounds",
    "verify_strip_decay",
    "x_norm",
    "__version__",
]
