"""Equal-time spin-spin correlators of the XX chain, by mutually independent routes.

The package namespace is lazy (PEP 562): ``import xxchain`` loads no
submodule and so no numpy.  A public name, or a submodule such as
``xxchain.ed``, is imported on first access.  This lets the command line
(:mod:`xxchain.cli`) set up the process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("amplitude", "asymptotics", "cli", "ed", "errors", "exact", "greens", "special", "tables")
_EXPORTS = {
    "greens": ("INFINITE", "LatticeSpec", "g0"),
    "exact": ("CorrelatorSample", "LogProduct", "Route", "correlator", "correlator_det",
              "log_r_table", "r_det", "r_value"),
    "ed": ("ed_correlator", "ed_ground_state", "ed_spectral_gap", "spin_sector"),
    "special": ("bernoulli_numbers", "polygamma", "zeta_em", "zeta_odd"),
    "amplitude": ("ConstantsReport", "amplitude_report", "asymptotic_params", "first_term_comparison",
                  "glaisher", "log_r_barnes", "log_r_gamma_product", "log_r_series",
                  "lukyanov_integral"),
    "asymptotics": ("AsymptoticParams", "LuttingerParams", "asym_finite", "asym_infinite",
                    "finite_size_energy", "luttinger_from_lambda"),
    "errors": ("DomainError", "SizeError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    # bound here, as an eager import would: later lookups are plain attribute reads
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
