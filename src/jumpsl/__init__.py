"""jumpsl: forward and inverse spectral solver for Sturm-Liouville
problems -y'' + q y = lambda y on [0, pi] with interior transmission
(jump) conditions and Robin or eigenparameter-dependent boundary
conditions."""

from .errors import (
    BoundaryConstraintError,
    ConfigParseError,
    ContourTooCloseError,
    DomainError,
    InterlacingError,
    JumpOrderError,
    JumpSignError,
    JumpSLError,
    MismatchError,
    MissedEigenvalueError,
    NonconvergenceError,
    NumericalError,
    PoleError,
    PotentialError,
    QuadratureError,
    ToleranceError,
    ValidationError,
    VariantError,
)
from .problem import (
    PI,
    EigenparameterBC,
    JumpCondition,
    PiecewisePolynomial,
    ProblemSpec,
    RobinBC,
    SampledGrid,
    ValidatedProblem,
    constant_potential,
    gauge_transform,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate,
)
from .propagation import (
    SpectralPoint,
    fundamental_solution,
    initial_state,
    modified_wronskian,
    propagate_interval,
)
from .asymptotics import asymptotic_eval, eigenvalue_guesses, reflection_terms, sine_sum
from .quadrature import weighted_abs_norm_sq, weighted_norm_sq
from .spectrum import (
    EigenRecord,
    SpectralData,
    char_delta,
    char_delta_derivative,
    char_delta_forms,
    count_zeros_contour,
    delta_batch,
    eigenvalues,
    export_csv,
    export_json,
    load_csv,
    spectral_data,
)
from .weyl import (
    TwoSpectra,
    WeylSample,
    m_from_two_spectra,
    numerical_residue,
    partial_fraction_m,
    secondary_spectrum,
    weyl_m,
    weyl_theta,
)
from .eigenparameter import (
    BoundaryFunctionals,
    VectorState,
    boundary_functionals,
    gamma_sum_partial,
    vector_norm_sq,
)
from .inverse import (
    FitResult,
    FitSpec,
    fit,
    load_fitspec,
    pack_parameters,
    residuals,
    unpack_parameters,
)

__version__ = "0.1.0"
