"""Spatial function-on-function regression.

A functional response observed over spatial units is regressed on a functional
predictor while a spatially lagged response term captures dependence between
units. Curves are smoothed onto a B-spline basis, decomposed by spatial
(response) and classical (predictor) functional principal components, and the
resulting score matrices follow a multivariate spatial autoregression
estimated by least squares. The fitted score-space matrices map back to the
bivariate surfaces rho(u, t) and beta(s, t).
"""

from types import ModuleType as _ModuleType

from .exceptions import (
    DataError,
    DivergenceError,
    DomainError,
    GenerationError,
    NumericalError,
    ParameterError,
    PreconditionError,
    SfofrError,
    SingularityError,
    UndefinedStatisticError,
)
from .fdbasis import (
    BasisCoefficients,
    BSplineBasis,
    FunctionalDataset,
    center,
    evaluate_basis,
    make_bspline_basis,
    smooth_curves,
    smoothing_residual_rms,
    trapezoid_weights,
)
from .fpca import (
    FpcDecomposition,
    choose_k,
    fit_fpc,
    fit_sfpc,
    project,
    reconstruct,
)
from .msar import (
    MsarData,
    MsarFit,
    MsarParams,
    apply_S,
    fit_msar,
    gradient,
    objective,
    preconditioner_m,
    reduced_form_solve,
    spectral_radius,
)
from .pipeline import (
    SfofrFit,
    SurfaceEstimate,
    compare_fits,
    contraction_diagnostic,
    fit_fofr_fpc,
    fit_sfofr,
    fitted_values,
    ise_surface,
    mse_curves,
    predict,
    r_squared,
    reconstruct_beta,
    reconstruct_rho,
    represent_response,
)
from .simgen import (
    SimConfig,
    SimTruth,
    gen_predictors,
    gen_response,
    generate,
    run_benchmark,
    run_replication,
    summarize_benchmark,
    true_beta,
    true_rho,
)
from .spatial import (
    GeoCoordinates,
    SpatialWeights,
    exponential_weights,
    functional_morans_i,
    haversine_km,
    inverse_distance_weights,
    knn_weights,
    morans_i,
    row_normalize,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule: without this list, a star
# import after ``import sfofr.cli`` would shadow the standard library's io
__all__ = sorted(
    n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))
)
