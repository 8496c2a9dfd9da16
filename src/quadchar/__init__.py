"""Quadratic character sums over fundamental discriminants: exact S_d(x)
scans, mean values against their main terms, three resonator constructions
with exact moment ratios, Gal-type GCD sums, and smooth-number counts.

Importing the package loads none of its modules.  Each public name, and each
submodule, is imported on first access (PEP 562), so a CLI request compiles
and runs only the modules it uses.
"""

import importlib

_EXPORTS = {
    "arith": (
        "Discriminant", "SmoothnessParams", "SquarefreeDecomposition", "divisor_count",
        "enumerate_fundamental", "enumerate_smooth", "error_factors", "factorize",
        "fundamental_flags", "is_fundamental", "kronecker", "largest_prime_factor",
        "primes_up_to", "psi_count", "squarefree_decompose",
    ),
    "charsums": (
        "CharSumProfile", "EmptyWindowError", "MaxSearchResult", "char_sum",
        "char_sum_prefix", "delta_max", "pv_baseline",
    ),
    "gcdsum": ("GcdSet", "construct_extremal_set", "gcd_sum", "gcd_sum_reference"),
    "meanvalues": (
        "MeanValueReport", "mean_value_main_term", "mean_value_report", "mean_value_sum",
        "mean_value_window_sum",
    ),
    "resonance": (
        "LongResonator", "MediumResonator", "RatioReport", "ResonatorSpec",
        "ShortChainReport", "ShortResonator", "build_resonator", "lemma_dd_ratio",
        "moment_ratio", "resonator_value", "short_chain_bound",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "verify"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
