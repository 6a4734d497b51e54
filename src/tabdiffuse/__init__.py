"""Diffusion-based imputation for numeric tabular data."""

__version__ = "0.1.0"

from .denoisers import ARCHITECTURES, DenoiserConfig, build_denoiser
from .sampling import MaskedTable, SamplerOptions, impute
from .training import TrainingConfig, train

__all__ = [
    "__version__",
    "ARCHITECTURES",
    "DenoiserConfig",
    "build_denoiser",
    "MaskedTable",
    "SamplerOptions",
    "impute",
    "TrainingConfig",
    "train",
]
