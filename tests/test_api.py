import bafobs

# The public names are a contract: a change to this list is a deliberate
# API change and is recorded as one.
PUBLIC_NAMES = [
    "BackAndForth", "EtaEstimate", "FemOperators", "FieldSpec", "Mesh1D",
    "NoiseRow", "NoiseSpec", "ObservationProfile", "ObservationTrace",
    "PencilEig", "ProblemInstance", "RateFit", "ReconstructionResult",
    "SchrodingerStepper", "ShiftedSystem", "SweepPlan", "SweepRow",
    "SymTridiag", "WaveState", "WaveStepper", "add_noise", "assemble",
    "choose_truncation", "fit_rate", "generate_observation", "noise_study",
    "pencil_eigs", "read_trace", "run_schrodinger", "run_sweep", "run_wave",
    "reconstruction_error", "write_trace",
]


def test_public_api_is_pinned():
    assert bafobs.__all__ == PUBLIC_NAMES
    assert all(hasattr(bafobs, name) for name in PUBLIC_NAMES)
