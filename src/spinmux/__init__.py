"""spinmux: multiplexed microwave control of spin-qubit registers.

Model the field of a shared on-chip drive wire, map spins to frequency
addresses via the DC Zeeman gradient, simulate two-level dynamics under
shaped I/Q pulses, and synthesize pulses that flip one spin while leaving
spectrally close neighbors untouched.
"""

from .dynamics import (
    Propagator,
    PulseProgram,
    PulseStep,
    QubitState,
    crosstalk_bound,
    evolve,
    rect_pi_pulse,
    state_error,
    step_propagator,
)
from .errors import (
    DegeneratePoint,
    Diverged,
    NoSolution,
    ParseError,
    SpinmuxError,
    UsageError,
    ValidationError,
    ZeroDetuning,
)
from .experiments import (
    CrosstalkEntry,
    CrosstalkReport,
    crosstalk_landscape,
    simulate_odmr,
    simulate_rabi,
    simulate_ramsey,
)
from .fields import (
    AddressMap,
    AddressMapEntry,
    FieldEnvironment,
    FieldSample,
    WireDrive,
    WireGeometry,
    address_map,
    calibrate_wire,
    field_sample,
    rabi_frequency,
    wire_field,
    zeeman_shift,
)
from .config_io import RegisterConfig, demo_config_path, load_config
from .synthesis import (
    ControlScenario,
    CostBreakdown,
    OptimizationTrace,
    OptimizerConfig,
    SweepPoint,
    cost,
    gradient,
    optimize,
    regularization,
    sensitivity_sweep,
)
from .pulse_io import read_pulse, write_pulse
from .spins import (
    DipoleOrientation,
    HyperfineManifold,
    PhysicalConstants,
    SpinSite,
    dipole_axis,
    hyperfine_detunings,
    project_field,
    transition_frequencies,
)

__version__ = "0.1.0"
