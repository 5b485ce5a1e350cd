"""Simulation and analysis toolkit for high-dimensional 137Ba+ qudit SPAM.

Modules
-------
angmom       exact Clebsch-Gordan coefficients (the 3j symbol is internal)
atomstruct   hyperfine + Zeeman structure, state labeling by in-block energy rank
transitions  laser geometry factors and relative quadrupole strengths
noise        filter-function dephasing model and secondary error budget
spam         shelving protocol plans, exact forward outcome model,
             multinomial Monte Carlo, confusion analytics
calib        line/Rabi fitting, linear frequency calibration, field estimate
fixtures     bundled reference tables from the 13-level experiment
cli          command-line front end (`ba137qudit`)

Every public name here is re-exported from some module's ``__all__``.

Each library module loads on first use: ``import ba137qudit`` puts them all
into ``sys.modules`` unexecuted (``importlib.util.LazyLoader``), and the
first attribute read from one runs it.  So a CLI command compiles and runs
only the modules it reads, and code that looks a module up in
``sys.modules`` right after the import finds it there.  ``cli`` is an
ordinary submodule.
"""

# every re-exported name, by the module that defines it
_EXPORTS = {
    "angmom": ("HalfInt", "clebsch_gordan"),
    "atomstruct": (
        "BA137_D52",
        "BA137_S12",
        "MU_B_OVER_H",
        "EigenSystem",
        "LabeledEigenstate",
        "LevelConstants",
        "StateRef",
        "decomposition_scan",
        "diagonalize",
        "diagonalize_range",
        "field_sensitivity",
        "transition_frequency",
        "zero_field_energy",
    ),
    "calib": (
        "CalibrationModel",
        "CalSnapshot",
        "FrequencyScan",
        "RabiTrace",
        "detuned_rabi",
        "estimate_field",
        "fit_calibration",
        "fit_lorentzian",
        "fit_rabi_flop",
        "predict_frequency",
        "ratio_pi_calibration",
    ),
    "noise": (
        "NoiseModel",
        "TransitionNoiseParams",
        "chi_closed_form",
        "chi_numeric",
        "error_budget",
        "fit_error_scaling",
        "pi_pulse_error",
        "spam_error_from_pi",
    ),
    "spam": (
        "ConfusionMatrix",
        "ErrorParams",
        "QuditEncoding",
        "average_fidelity",
        "build_measurement_sequence",
        "enumerate_outcomes",
        "paper13_encoding",
        "post_select",
        "run_experiment",
        "scaling_analysis",
        "timing_budget",
    ),
    "transitions": (
        "PAPER13_GEOMETRY",
        "LaserGeometry",
        "StrengthTable",
        "encodable_states",
        "geometric_factor",
        "strength_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
del _EXPORTS


def _load_lazily(names):
    """Bind each submodule in ``names`` here and in ``sys.modules``, to be
    executed when an attribute is first read from it."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_load_lazily(("angmom", "_lsq", "fixtures", "atomstruct", "transitions", "noise", "spam", "calib"))
del _load_lazily

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted((globals().keys() - {"_HOME", "__getattr__", "__dir__"}) | _HOME.keys())
