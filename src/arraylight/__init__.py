"""Collective single-photon emission from regular arrays of multilevel atoms.

The package models N multilevel atoms (ground g, metastable f, excited
Zeeman triplet e_nu) sharing at most one excitation.  A classical drive
transfers amplitude from f to one excited sublevel; photon-mediated
dipole-dipole interactions couple the excited amplitudes across the array
and shape where and when the single photon comes out.

Layers, bottom up:

- ``greens``       vector coupling tensor between two dipoles
- ``hamiltonian``  non-Hermitian generator on the single-excitation sector
- ``dynamics``     propagation by diagonalization or adaptive ODE stepping
- ``farfield``     helicity-resolved emission maps and photon waveforms
- ``shaping``      adiabatic model, time reparametrization, inverse design
- ``oracles``      closed-form reference values for cross-checks
- ``cli``          command line front end over YAML run configs

Rates are in units of the single-atom decay rate and lengths in units of
the transition wavelength, so the lattice spacing d is dimensionless.
"""

from .core import (SUBLEVELS, AmplitudeState, AtomArray, LaserDrive,
                   build_lattice, single_f_excitation, timed_dicke_state)
from .dynamics import Trajectory, propagate_eigen, propagate_ode
from .envelope import PulseEnvelope
from .errors import (ArrayLightError, ConfigError, EigenConditionError,
                     InfeasibleTargetError, InvalidArgumentError,
                     NumericError)
from .farfield import (AngularGrid, AngularMap, HelicityFrame, Waveform,
                       angular_map, helicity_frame, integrate_flux,
                       intensity, intensity_map, waveform)
from .greens import (CouplingTensor, PolarizationBasis, coupling_block,
                     eval_f_g, fg_scalar_coefficients, spherical_basis)
from .hamiltonian import (EffectiveHamiltonian, ModeSpectrum, assemble,
                          eigenmodes)
from .oracles import (noninteracting_amplitudes, noninteracting_intensity,
                      two_atom_rates)
from .shaping import (AdiabaticModel, AdiabaticReference, ShapingReport,
                      TargetWaveform, adiabatic_simulate, design_envelope,
                      reparametrize, validate)
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SUBLEVELS", "AtomArray", "LaserDrive", "AmplitudeState",
    "build_lattice", "timed_dicke_state", "single_f_excitation",
    # envelope
    "PulseEnvelope",
    # greens
    "CouplingTensor", "PolarizationBasis", "spherical_basis",
    "fg_scalar_coefficients", "eval_f_g", "coupling_block",
    # hamiltonian
    "EffectiveHamiltonian", "ModeSpectrum", "assemble", "eigenmodes",
    # dynamics
    "Trajectory", "propagate_eigen", "propagate_ode",
    # farfield
    "HelicityFrame", "helicity_frame", "AngularGrid", "AngularMap",
    "Waveform", "intensity", "intensity_map", "angular_map",
    "integrate_flux", "waveform",
    # shaping
    "AdiabaticModel", "AdiabaticReference", "TargetWaveform",
    "ShapingReport", "adiabatic_simulate", "reparametrize",
    "design_envelope", "validate",
    # oracles
    "noninteracting_amplitudes", "noninteracting_intensity",
    "two_atom_rates",
    # config
    "RunConfig",
    # errors
    "ArrayLightError", "InvalidArgumentError", "ConfigError",
    "NumericError", "EigenConditionError", "InfeasibleTargetError",
]
