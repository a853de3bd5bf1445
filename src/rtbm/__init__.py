"""Riemann-Theta Boltzmann machine densities, conditionals and fitting."""

__version__ = "0.1.0"

from .density import condition_on, log_marginal, log_pdf, log_pdf_many
from .errors import (FitError, InsufficientSamplesError,
                     NotPositiveDefiniteError, RtbmError, ThetaTruncationError)
from .fit import FitConfig, FitResult, fit_density, negative_log_likelihood
from .model import RtbmParams, ValidationReport, load_model, save_model, validate
from .sampling import (HiddenDistribution, Histogram, empirical_conditional,
                       hidden_distribution, make_histogram, sample_visible)
from .theta import Lattice, log_theta_many

__all__ = [
    "FitConfig", "FitError", "FitResult",
    "HiddenDistribution", "Histogram",
    "InsufficientSamplesError", "Lattice", "NotPositiveDefiniteError",
    "RtbmParams", "RtbmError", "ThetaTruncationError", "ValidationReport",
    "condition_on", "empirical_conditional", "fit_density",
    "hidden_distribution", "load_model", "log_marginal", "log_pdf",
    "log_pdf_many", "log_theta_many", "make_histogram",
    "negative_log_likelihood", "sample_visible", "save_model", "validate",
]
