"""Exact arithmetic-statistics experiments on binary forms and norm forms."""

__version__ = "0.1.0"

from .chatelet import (
    ChateletInstance,
    classify_coeffs,
    count_Nc,
    localized_Nc,
    make_instance,
    padic_solvable,
    search_rational_point,
    sigma_mod,
)
from .chowla_bh import bh_correlation, chowla_block, singular_series
from .errors import ConfigError, ResourceLimitError
from .forms import BinaryForm, CombinatorialCube
from .harness import ExperimentConfig, make_config, run, summarize, verify_battery
from .normforms import (
    DensityProfile,
    NormForm,
    NumberField,
    RegionB,
    field_presets,
)
from .sieve import SieveTable, build_sieve

__all__ = [
    "BinaryForm",
    "ChateletInstance",
    "CombinatorialCube",
    "ConfigError",
    "DensityProfile",
    "ExperimentConfig",
    "NormForm",
    "NumberField",
    "RegionB",
    "ResourceLimitError",
    "SieveTable",
    "bh_correlation",
    "build_sieve",
    "chowla_block",
    "classify_coeffs",
    "count_Nc",
    "field_presets",
    "localized_Nc",
    "make_config",
    "make_instance",
    "padic_solvable",
    "run",
    "search_rational_point",
    "sigma_mod",
    "singular_series",
    "summarize",
    "verify_battery",
    "__version__",
]
