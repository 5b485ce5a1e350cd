"""Simulation and analysis toolkit for high-dimensional 137Ba+ qudit SPAM.

Modules
-------
angmom       exact Clebsch-Gordan / Wigner 3j coefficients
atomstruct   hyperfine + Zeeman structure, state labeling by in-block energy rank
transitions  laser geometry factors and relative quadrupole strengths
noise        filter-function dephasing model and secondary error budget
spam         shelving protocol plans, exact forward outcome model,
             multinomial Monte Carlo, confusion analytics
calib        line/Rabi fitting, linear frequency calibration, field estimate
fixtures     bundled reference tables from the 13-level experiment
cli          command-line front end (`ba137qudit`)

Every public name here is re-exported from some module's ``__all__``.
"""

from .angmom import HalfInt, clebsch_gordan, wigner3j
from .atomstruct import (
    BA137_D52,
    BA137_S12,
    MU_B_OVER_H,
    EigenSystem,
    LabeledEigenstate,
    LevelConstants,
    StateRef,
    decomposition_scan,
    diagonalize,
    diagonalize_range,
    field_sensitivity,
    transition_frequency,
    zero_field_energy,
)
from .calib import (
    CalibrationModel,
    CalSnapshot,
    FrequencyScan,
    RabiTrace,
    detuned_rabi,
    estimate_field,
    fit_calibration,
    fit_lorentzian,
    fit_rabi_flop,
    predict_frequency,
    ratio_pi_calibration,
)
from .noise import (
    NoiseModel,
    TransitionNoiseParams,
    chi_closed_form,
    chi_numeric,
    error_budget,
    fit_error_scaling,
    pi_pulse_error,
    spam_error_from_pi,
)
from .spam import (
    ConfusionMatrix,
    ErrorParams,
    QuditEncoding,
    average_fidelity,
    build_measurement_sequence,
    enumerate_outcomes,
    paper13_encoding,
    post_select,
    run_experiment,
    scaling_analysis,
    timing_budget,
)
from .transitions import (
    PAPER13_GEOMETRY,
    LaserGeometry,
    StrengthTable,
    encodable_states,
    geometric_factor,
    strength_table,
)

__version__ = "0.1.0"
