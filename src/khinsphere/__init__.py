"""Sharp Khinchin-type constants for sums of sphere-uniform random vectors.

Modules: ``specfun`` (gamma family, normalized Bessel, 2F1), ``constants``
(closed-form sharp constants), ``quad`` (oscillatory quadrature and certified
bounds), ``verify`` (lemma verifiers), ``phase`` (phase-transition roots),
``sample`` (Monte Carlo checks), ``cli`` (command-line front end).
"""

from .constants import C2, C_infty, D, MomentQuery, NormalizerSet, c_inf, c_two, normalizers
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    KhinsphereError,
    MultipleRootsError,
    NoBracketError,
    PoleError,
    ToleranceError,
)
from .phase import PhaseTransitionResult, q_star
from .quad import (
    F,
    G,
    G_tilde,
    H,
    H_tilde,
    IntegralParams,
    U,
    product_moment,
)
from .sample import SampleStats, estimate_moment, polydisc_slice_volume
from .specfun import digamma, gamma, hyp2f1, jj, jj1, log_gamma, pochhammer
from .verify import VerificationReport

__version__ = "0.1.0"
