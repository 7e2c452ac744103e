"""Orlicz-norm calculus over finite-dimensional trace algebras.

Blockwise matrix algebras with weighted traces, their spectral and
polar toolkit, GNS/standard-form modular theory, Luxemburg gauge norms
for arbitrary Young functions, a step-valued model of the weighted
half-line extension carrying the canonical rescaling trace, and
isometry verification for block isomorphisms.

``import ncorlicz`` loads no submodule.  A public name, or one of the
submodules listed in ``_EXPORTS``, is imported on first access (PEP 562)
and the name is then kept in the package namespace.
"""

import importlib

_EXPORTS = {
    "algebra": ("AlgebraDescriptor", "Element", "Functional", "Reduction", "Spectrum",
                "absolute", "eigen_spectrum", "functional_polar", "make_algebra",
                "operator_norm", "polar_decompose", "power_on_support",
                "reduce_to_support", "spectral_calculus", "support_projection", "trace"),
    "core_model": ("CoreElement", "Interval", "canonical_trace", "core_luxemburg_norm",
                   "core_luxemburg_report", "core_modular_value", "core_rearrangement",
                   "dual_action", "embed", "interval", "weighted_trace"),
    "errors": ("ConvergenceError", "InputError", "ValidationError"),
    "functorial": ("Isomorphism", "IsometryReport", "apply_isomorphism", "compose",
                   "identity_isomorphism", "lift_to_core", "norm_ratio_diagnostic",
                   "verify_isometry"),
    "modular": ("GNSData", "ModularOperator", "StandardForm", "connes_cocycle", "gns",
                "modular_flow", "radon_nikodym_sqrt", "relative_modular", "standard_form"),
    "orliczfn": ("CoshMinusOne", "ExpMinusOne", "JumpFunction", "OrliczFunction",
                 "PowerFunction", "TabulatedFunction", "check_delta2", "check_n_function",
                 "numeric_conjugate_value", "registry", "young_conjugate"),
    "sampling": ("SplitMix64",),
    "trace_orlicz": ("MembershipFlags", "NormReport", "RearrangementFunction",
                     "dual_pairing", "e_space_gauge", "fk_integral", "luxemburg_norm",
                     "luxemburg_report", "membership", "modular_value", "rearrangement",
                     "rearrangement_csv"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
