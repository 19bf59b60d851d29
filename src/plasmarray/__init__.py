"""Steady-state entanglement of two quantum-dot qubits mediated by a
one-dimensional chain of metal nanoparticles.

The package converts laboratory inputs (Drude metal, host medium, chain
geometry, laser drive) into the bare rates of the driven dot-chain-dot
system, eliminates the fast chain modes to obtain the mediated two-dot
master equation, solves for its steady state and quantifies entanglement
through the concurrence.  An explicit Fock-space simulation of the full
chain validates the effective model on small systems, and a CLI runs the
named sweep experiments with CSV output.

The package needs numpy alone.  `FockConfig` and
`validate_against_effective` load `plasmarray.fullmodel` on first access,
which keeps that module's import off the start-up of the effective-model
pipeline.
"""

import importlib

from .config import ExperimentConfig, apply_overrides, parse_config, parse_config_text
from .effective import (
    ComplexPole,
    DecaySpectrum,
    DickeParams,
    MediatedParams,
    complex_pole,
    decay_spectrum,
    dicke_params,
    mediated_params,
)
from .exceptions import (
    ConfigError,
    ContractError,
    DomainError,
    MemoryBudgetError,
    NumericalError,
    PlasmarrayError,
)
from .numerics import (
    FitResult,
    fit_exponential_decay,
    fit_quadratic,
)
from .plasmonics import (
    ArrayGeometry,
    BareCouplings,
    DriveField,
    DrudeMetal,
    HostMedium,
    MaterialSystem,
    QdParams,
    bare_couplings,
    derive_material,
    drive_rates,
    qd_dipole_from_radius,
)
from .steadystate import (
    DickePopulations,
    TwoQubitState,
    concurrence,
    dicke_populations,
    steady_state,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("FockConfig", "validate_against_effective"):
        return getattr(importlib.import_module(".fullmodel", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
