"""Back-and-forth observer reconstruction of PDE initial states.

Reconstructs the initial state of conservative Schrodinger and wave systems
from partial, time-windowed observations by alternating damped forward and
backward observer sweeps: the round trip L of one forward and one backward
sweep gives (I - L) x = z, which the paper solves by its Neumann series and
this package by GMRES, with P1 finite elements in space and implicit finite
differences in time.
"""

from .fem import FemOperators, FieldSpec, Mesh1D, ObservationProfile, assemble
from .linalg import PencilEig, ShiftedSystem, SymTridiag, pencil_eigs
from .models import (NoiseSpec, ProblemInstance, add_noise,
                     generate_observation, read_trace, write_trace)
from .observers import (BackAndForth, EtaEstimate, ObservationTrace,
                        ReconstructionResult, SchrodingerStepper, WaveState,
                        WaveStepper, choose_truncation, run_schrodinger,
                        run_wave)
from .harness import (NoiseRow, RateFit, SweepPlan, SweepRow, fit_rate,
                      noise_study, run_sweep, reconstruction_error)

__all__ = [
    "BackAndForth", "EtaEstimate", "FemOperators", "FieldSpec", "Mesh1D",
    "NoiseRow", "NoiseSpec", "ObservationProfile", "ObservationTrace",
    "PencilEig", "ProblemInstance", "RateFit", "ReconstructionResult",
    "SchrodingerStepper", "ShiftedSystem", "SweepPlan", "SweepRow",
    "SymTridiag", "WaveState", "WaveStepper", "add_noise", "assemble",
    "choose_truncation", "fit_rate", "generate_observation", "noise_study",
    "pencil_eigs", "read_trace", "run_schrodinger",
    "run_sweep", "run_wave", "reconstruction_error", "write_trace",
]

__version__ = "0.1.0"
