"""relaxkit: the standard non-Debye dielectric relaxation models, numerically.

Evaluate, cross-verify and fit the Debye, Cole-Cole, Cole-Davidson, mirror
Cole-Davidson, Havriliak-Negami, Jurlewicz-Weron-Stanislavsky and KWW
relaxation laws: spectral functions and permittivities, time-domain response
and relaxation functions built on the three-parameter Mittag-Leffler
(Prabhakar) function, relaxation-rate mixture densities, memory kernels with
their Sonine pairing and evolution equations, subordination identities, and
least-squares parameter recovery from frequency- or time-domain data.
"""

from .exceptions import (
    ContourOverflow,
    DegenerateJacobian,
    DomainError,
    EmptyDataset,
    NonConvergent,
    ParseError,
    QuadratureFailure,
    RelaxkitError,
)
from .fitio import (
    FitResult,
    SpectrumDataset,
    TimeDataset,
    compare,
    fit,
    parse_csv,
    synthesize,
)
from .kernels import (
    KernelConfig,
    caputo_rl_identity_residual,
    characteristic_exponent,
    evolution_residual,
    kernel_singular_weight,
    memory_M_hat,
    memory_M_time,
    memory_k_hat,
    memory_k_time,
)
from .laplace import (
    LaplaceImage,
    efros_compose,
    forward_laplace,
    inverse_laplace,
    subordination_kernel,
    subordination_pdf,
)
from .models import (
    KINDS,
    ModelSpec,
    PermittivityScale,
    TimeResponse,
    asymptotic,
    laplace_image,
    pdf_g,
    pdf_g_hypergeometric,
    permittivity,
    relaxation,
    relaxation_derivatives,
    response,
    spectral,
    theta,
    time_response,
)
from .specfun import (
    PrabhakarParams,
    RationalOrder,
    hyper_pfq,
    levy_stable_density,
    pochhammer,
    prabhakar,
    prabhakar_derivative,
    prabhakar_eval,
    prabhakar_rational,
)

__version__ = "0.1.0"
