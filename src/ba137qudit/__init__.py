"""Simulation and analysis toolkit for high-dimensional 137Ba+ qudit SPAM.

Modules
-------
angmom       exact Clebsch-Gordan / Wigner 3j coefficients
atomstruct   hyperfine + Zeeman structure, state labeling by in-block energy rank
transitions  laser geometry factors and relative quadrupole strengths
noise        filter-function dephasing model and secondary error budget
spam         shelving protocol plans, Monte Carlo, confusion analytics
calib        line/Rabi fitting, linear frequency calibration, field estimate
fixtures     bundled reference tables from the 13-level experiment
cli          command-line front end (`ba137qudit`)
"""

from .angmom import HalfInt, clebsch_gordan, wigner3j
from .atomstruct import (
    BA137_D52,
    BA137_S12,
    CONSTANTS,
    EigenSystem,
    LabeledEigenstate,
    LevelConstants,
    PhysicalConstants,
    StateRef,
    build_hamiltonian,
    decomposition_scan,
    diagonalize,
    diagonalize_range,
    field_sensitivity,
    transition_frequency,
    transition_frequency_at,
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
    filter_function_pi,
    fit_error_scaling,
    pi_pulse_error,
    psd,
    spam_error_from_pi,
)
from .spam import (
    AtomicState,
    ConfusionMatrix,
    ErrorParams,
    QuditEncoding,
    ShotRecord,
    average_fidelity,
    build_measurement_sequence,
    enumerate_outcomes,
    interpret,
    paper13_encoding,
    post_select,
    run_experiment,
    scaling_analysis,
    simulate_shot,
    timing_budget,
)
from .transitions import (
    PAPER13_GEOMETRY,
    LaserGeometry,
    StrengthTable,
    encodable_states,
    geometric_factor,
    relative_strength,
    strength_table,
)

__version__ = "0.1.0"
