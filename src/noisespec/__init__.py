"""noisespec: filter-function noise spectroscopy simulation and estimation."""

from .errors import (CalibrationError, ConfigError, DegenerateBasisError,
                     DegenerateComponentsError, EmptyOperatorError,
                     GridMismatchError, GridRangeError,
                     IllConditionedInversionError, NoiseSpecError,
                     UndefinedFidelityError, UndefinedObjectiveError,
                     UnsupportedOracleError)
from .spectra import (CompositeSignal, LorentzianComponent, SpectralDensity,
                      calibrate_amplitude)
from .modulation import (ContinuousModulation, ModulationSet, PulseSequence,
                         as_sequence, eval_continuous, eval_modulation,
                         fo_sequence, repair_switch_times, staircase_split,
                         to_step_function)
from .filterfn import (FilterFunction, FrequencyGrid, continuous_norm,
                       default_grid, filter_function, fourier_piecewise,
                       overlap_matrix, signal_overlap, transform_continuous)
from .probe import (MeasurementRecord, NoiseModel, autocorrelation,
                    chi_time_domain, invert_probability, measure,
                    relative_error_factor, survival_probability)
from .reconstruct import (FOBasis, ProtocolContext, ReconstructionResult,
                          ScanResult, as_reconstruct, fidelity,
                          fo_reconstruct, run_repetitions, scan_optimal_time)
from .fisher import (FisherOperator, build_fio, cramer_rao,
                     directional_fisher, fio_rank, ml_deviation_estimate)
from .ocf import (OcfProblem, OcfSolution, optimize_continuous,
                  optimize_discrete, solution_filter, xi_normalized,
                  xi_objective)
from .tracking import TrackingRun, track_fo, track_ocf
from .seeding import derive_seed, make_rng

__version__ = "0.1.0"
