"""Phase-type distributions, inhomogeneous extensions, and the
transformed heavy-tailed families they generate.

The package is organized bottom-up:

    matfun    matrix functions of sub-intensity matrices
    phcore    phase-type representations and their evaluators
    iph       time-inhomogeneous generalizations and samplers
    families  matrix-Pareto/-Weibull/-Gumbel/-GEV transforms
    emfit     EM fitting on the transformed scale
    modelio   parameter-document serialization
    cli       command-line front end
"""

from .errors import (
    ConfigError,
    DataFileError,
    DegenerateConditioningError,
    DegenerateStateError,
    DegenerateStateWarning,
    DivergentMomentError,
    DomainError,
    IntegrationError,
    IphError,
    ModelDocumentError,
    NonConvergenceError,
    ShiftError,
    SingularMatrixError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .matfun import (
    AnalyticFunction,
    mat_exp,
    mat_fun,
    mat_log_neg,
    mat_power_base,
)
from .phcore import (
    PHDist,
    erlang_rep,
    gen_erlang_rep,
    mixture_rep,
    ph_cdf,
    ph_frac_moment,
    ph_log_moment,
    ph_mean,
    ph_new,
    ph_pdf,
    ph_quantile,
    ph_sample,
    ph_sf,
)
from .iph import (
    IPHDist,
    MatrixRatePath,
    RateFunction,
    constant_rate,
    inverse_linear_rate,
    iph_alpha_moment,
    iph_cdf,
    iph_new,
    iph_overshoot,
    iph_pdf,
    iph_sample,
    iph_sf,
    iph_general_sf,
    path_new,
    piecewise_path,
    power_rate,
    product_integral,
    rate_function,
    scaled_path,
    thinning_sample,
)
from .families import (
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    ShiftedTransform,
    TransformedPH,
    ep_laplace,
    ep_mean,
    erlang_oracle,
    mixture_density,
    mixture_tph,
    mp_conditional_excess,
    mp_laplace,
    mp_shifted_frac_moment,
    mw_mgf,
    mw_moment,
    sp_mean,
    tph_cdf,
    tph_new,
    tph_pdf,
    tph_quantile,
    tph_sample,
    tph_sf,
)
from .emfit import (
    FitConfig,
    FitResult,
    em_step,
    fit_erlang_rate,
    fit_ph_em,
    fit_transformed,
    ph_loglik,
)
from .modelio import load_model, model_mean, model_to_doc, save_model

__version__ = "0.1.0"
