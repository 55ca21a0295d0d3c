"""Sobolev natural-gradient optimization toolkit.

Closed-form Sobolev reproducing kernels, RKHS-projected pullback metrics,
kernel-weighted Kronecker-factored preconditioning, NTK and Gauss-Newton
baselines, an exact quadrature metric oracle, coordinate-free flatness, and
Riemannian primal/mirror descent with certified rates -- all at desk scale.
"""

from . import data, flatness, kfac, kernel, linalg, losses, metric, network, optimizers, riemann, rkhs
from .errors import (
    BudgetExceeded,
    DegenerateGram,
    DimensionMismatch,
    Diverged,
    InconsistentWidth,
    NotPositiveDefinite,
    ParseError,
    RateViolation,
    SingularProbeSet,
    SobnatError,
    TooLarge,
    UnboundedRegion,
    UnsupportedOrder,
)
from .kernel import GramMatrix, KernelSpec, gram, point_kernel
from .network import BatchCache, LayerSpec, MlpNetwork
from .optimizers import ExperimentLog, OptimConfig, train
from .rkhs import KernelExpansion

__version__ = "0.1.0"
