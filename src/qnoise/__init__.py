"""qnoise: frequency-domain quantum/thermal noise networks.

Scattering matrices for reactive multipoles terminated by noise lines,
fluctuation spectra propagated through passive and amplifying elements,
calibrated noise budgets, and a cold-damped capacitive accelerometer
reference model, driven by a small netlist language.
"""

from .accelerometer import (AccelerometerConfig, AccelerometerModel, MUSCOPE,
                            SensitivityReport, build_accelerometer,
                            mechanical_langevin_psd, sensitivity_report)
from .amplifier import (CommutatorReport, GainStage, IdealOpAmp,
                        OpAmpNoisePair, amplify_mode, commutator_audit,
                        decompose_noise_sources, noise_line_occupations,
                        opamp_scattering, recombine_noise_sources)
from .constants import HBAR, K_B
from .errors import DomainError, ModelError, QNoiseError
from .estimator import (EstimatorRow, NoiseBudget, added_noise_spectrum,
                        integrate_budget, normalize_estimator,
                        snr_degradation)
from .netlist import (NetlistDocument, NetlistParseError, format_netlist,
                      parse_netlist)
from .network import (ModeCoefficient, NoiseLine, ScatteringMap,
                      SpectrumTable, capacitor_impedance, impedance_matrix,
                      inductor_impedance, port_observables, propagate_spectra,
                      row_occupation, scattering_from_impedance)
from .spectra import (effective_temperature, johnson_nyquist_classical,
                      johnson_nyquist_voltage_psd, symmetrized_occupation)

__version__ = "0.1.0"

__all__ = [
    "AccelerometerConfig", "AccelerometerModel", "MUSCOPE",
    "SensitivityReport", "build_accelerometer", "mechanical_langevin_psd",
    "sensitivity_report",
    "CommutatorReport", "GainStage", "IdealOpAmp", "OpAmpNoisePair",
    "amplify_mode", "commutator_audit", "decompose_noise_sources",
    "noise_line_occupations", "opamp_scattering", "recombine_noise_sources",
    "HBAR", "K_B",
    "DomainError", "ModelError", "QNoiseError",
    "EstimatorRow", "NoiseBudget", "added_noise_spectrum",
    "integrate_budget", "normalize_estimator", "snr_degradation",
    "NetlistDocument", "NetlistParseError", "format_netlist", "parse_netlist",
    "ModeCoefficient", "NoiseLine", "ScatteringMap",
    "SpectrumTable", "capacitor_impedance", "impedance_matrix",
    "inductor_impedance", "port_observables", "propagate_spectra",
    "row_occupation", "scattering_from_impedance",
    "effective_temperature", "johnson_nyquist_classical",
    "johnson_nyquist_voltage_psd", "symmetrized_occupation",
    "__version__",
]
