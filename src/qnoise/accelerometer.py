"""Cold-damped capacitive accelerometer reference model.

A proof mass M with residual mechanical damping H_m (Langevin force PSD
2 H_m k_B Theta_m) is read out capacitively at a carrier frequency: mass
velocity couples with strength `transducer_coupling` into the input line of
an ideal op-amp with capacitive feedback, whose noise is carried by two
equivalent lines at the amplifier effective temperature.  A servo loop
derives a velocity-proportional force from the same readout (cold damping):
it adds damping whose fluctuations are those of the detection chain, not of
the mechanical bath, and the normalized force estimator is independent of
the loop gain.

The electromechanical transducer is a single coupling parameter (field
amplitude per m/s of mass velocity); detection-term magnitudes are model
outputs calibrated by that parameter, not measured ground truth.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .amplifier import IdealOpAmp, opamp_noise_energy, opamp_scattering
from .constants import HBAR, K_B
from .errors import DomainError, ModelError, QNoiseError
from .estimator import CompiledEstimator, NoiseBudget, evaluate
from .network import capacitor_impedance

__all__ = [
    "AccelerometerConfig",
    "AccelerometerModel",
    "SensitivityReport",
    "MUSCOPE",
    "mechanical_langevin_psd",
    "build_accelerometer",
    "sensitivity_report",
]

# Transducer calibration (field amplitude per m/s) placing the detection
# terms ~2% of the mechanical Langevin term at the reference parameters.
DEFAULT_TRANSDUCER_COUPLING = 1.24e13

MECH = "mechanical"
LINE_IN = "input_line"
LINE_OUT = "readout_line"
AMP_A = "amp_a"
AMP_AC = "amp_a_conj"


@dataclass(frozen=True)
class AccelerometerConfig:
    """Physical parameters of the accelerometer.

    Frequencies are angular (rad/s): `measure_omega` is the mechanical
    measurement frequency Omega, `carrier_omega` the detection carrier.
    `loop_gain` scales the servo damping in units of the mechanical damping
    (0 disables the loop).  `feedback_capacitance` defaults to the value
    giving |Z_f| = sqrt(R_a R_r) at the carrier, a positive double.
    """

    mass: float
    mech_damping: float
    measure_omega: float
    carrier_omega: float
    amp_impedance: float
    amp_temperature: float
    bath_temperature: float = 306.0
    readout_impedance: Optional[float] = None
    loop_gain: float = 1e3
    transducer_coupling: float = DEFAULT_TRANSDUCER_COUPLING
    feedback_capacitance: Optional[float] = None

    def __post_init__(self):
        for name in ("mass", "mech_damping", "measure_omega", "carrier_omega",
                     "amp_impedance", "amp_temperature", "bath_temperature",
                     "readout_impedance", "transducer_coupling",
                     "feedback_capacitance"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive, got {value}")
        if self.loop_gain < 0.0:
            raise DomainError("loop_gain must be >= 0")
        if self.measure_omega >= self.carrier_omega:
            raise DomainError("measurement frequency must sit far below "
                              "the detection carrier")
        if not 0.0 < self.c_feedback < math.inf:
            raise DomainError(f"feedback_capacitance: the default from "
                              "amp_impedance and readout_impedance is "
                              f"{self.c_feedback:.3g}, out of range")
        if not 0.0 < self.amp_impedance * self.r_readout < math.inf:
            raise DomainError("amp_impedance * readout_impedance is not a "
                              "positive finite double")
        if not HBAR * self.carrier_omega > 0.0:
            raise DomainError("carrier_omega: hbar * carrier_omega underflows "
                              "to 0 (below the smallest double)")
        if not self.carrier_omega * self.c_feedback > 0.0:
            raise DomainError("feedback_capacitance: carrier_omega * "
                              "feedback_capacitance underflows to 0")

    @property
    def r_readout(self) -> float:
        return (self.readout_impedance if self.readout_impedance is not None
                else self.amp_impedance)

    @property
    def c_feedback(self) -> float:
        if self.feedback_capacitance is not None:
            return self.feedback_capacitance
        z_f = self.carrier_omega * math.sqrt(self.amp_impedance
                                             * self.r_readout)
        return 1.0 / z_f if z_f > 0.0 else math.inf


MUSCOPE = AccelerometerConfig(
    mass=0.27,
    mech_damping=1.3e-5,
    measure_omega=2.0 * math.pi * 5e-4,
    carrier_omega=2.0 * math.pi * 1e5,
    amp_impedance=0.15e6,
    amp_temperature=1.5,
)


def mechanical_langevin_psd(mech_damping: float, bath_temperature: float,
                            ) -> float:
    """Langevin force PSD 2 H_m k_B Theta_m, flat in the measurement band."""
    if mech_damping <= 0.0:
        raise DomainError("mechanical damping must be positive")
    if bath_temperature < 0.0:
        raise DomainError("bath temperature must be >= 0")
    return 2.0 * mech_damping * K_B * bath_temperature


@dataclass(frozen=True)
class SensitivityReport:
    """Force noise PSD, acceleration amplitude spectral density and the
    per-source budget at the measurement frequency."""

    sigma_ff: float                     # (kg m s^-2)^2 / Hz
    acceleration_asd: float             # m s^-2 / sqrt(Hz)
    budget: NoiseBudget
    dominant: str
    mechanical_fraction: float


@dataclass
class AccelerometerModel:
    """Assembled accelerometer: the velocity-referred detection noise
    coefficients of the op-amp map at the carrier, and source spectra."""

    config: AccelerometerConfig
    detection_coefficients: Dict[str, complex]  # velocity-referred
    occupations: Dict[str, float]  # of the detection lines; the force PSD

    @property
    def loop_damping(self) -> float:
        return self.config.loop_gain * self.config.mech_damping

    @property
    def sources(self) -> List[str]:
        """The force estimator's sources, its signal first."""
        return [MECH, *self.detection_coefficients]

    def estimator(self, omegas: np.ndarray,
                  label: str = "force") -> CompiledEstimator:
        """Force estimator over the measurement frequencies `omegas`.

        The closed-loop readout is proportional to
        (F_ext + F_n + Z_m n_v) / (Z_m + H_loop), Z_m = H_m - i omega M;
        normalizing by the F_ext coefficient removes the loop gain exactly,
        which is the cold-damping invariance.  F_ext enters as the
        mechanical Langevin force F_n does, so F_n's row is the signal.
        """
        z_m = self.config.mech_damping - 1j * omegas * self.config.mass
        z_t = z_m + self.loop_damping
        return CompiledEstimator(
            label, self.sources, np.array([1.0 / z_t] + [
                z_m * c / z_t for c in self.detection_coefficients.values()]),
            0, np.array([[self.occupations[lab]] for lab in self.sources]))

    def budget(self, omega=None, label: str = "force") -> NoiseBudget:
        """Force-referred noise budget at omega (default: the measurement
        frequency), a number or an array over a sweep whose band is
        integrated over omega / 2 pi."""
        omegas = np.atleast_1d(self.config.measure_omega if omega is None
                               else omega)
        return evaluate(self.estimator(omegas, label),
                        omegas / (2.0 * math.pi))

    def detection_velocity_psd(self) -> float:
        """Velocity-equivalent PSD of the detection noise (m/s)^2 per the
        two-sided convention; this is what the servo feeds back."""
        return float(sum((c * c.conjugate()).real * self.occupations[lab]
                         for lab, c in self.detection_coefficients.items()))

    def loop_force_noise_psd(self) -> float:
        """Force PSD injected by the servo, H_loop^2 times the detection
        velocity noise.  Cold damping: far below 2 H_loop k_B Theta_m."""
        h = self.loop_damping
        return h * h * self.detection_velocity_psd()

    def loop_effective_temperature(self) -> float:
        """Temperature whose Langevin noise at damping H_loop would match
        the loop-injected noise; the cold-damping temperature."""
        if self.loop_damping == 0.0:
            return 0.0
        return self.loop_damping * self.detection_velocity_psd() / (2.0 * K_B)

    def report(self, label: str = "force") -> SensitivityReport:
        """Noise budget and acceleration sensitivity sqrt(Sigma_FF)/M at the
        measurement frequency, all finite: the kernel on its one-point grid."""
        budget = self.budget(label=label)
        sigma_ff = budget.band_total
        asd = math.sqrt(sigma_ff) / self.config.mass
        if not math.isfinite(asd):
            raise QNoiseError(f"estimator {label}: source acceleration_asd "
                              "has a non-finite noise budget (numeric "
                              "overflow)")
        return SensitivityReport(sigma_ff, asd, budget,
                                 "/".join(budget.dominant),
                                 budget.band[MECH] / sigma_ff
                                 if sigma_ff > 0.0 else 0.0)


def build_accelerometer(config: AccelerometerConfig) -> AccelerometerModel:
    """Assemble the detection chain and velocity-referred noise coefficients.

    The op-amp (left line = transducer mode at the amplifier impedance,
    right line = detection line, capacitive feedback) is decomposed at its
    matched impedance so its two noise lines are uncorrelated and sit at the
    amplifier effective temperature.  Demodulation from the carrier is
    ideal.
    """
    cfg = config
    energy = opamp_noise_energy(cfg.amp_temperature, cfg.carrier_omega,
                                "amplifier", "the carrier ")
    amp = IdealOpAmp(cfg.amp_impedance, cfg.r_readout, lambda w: (
        capacitor_impedance(cfg.c_feedback, w)))
    amplitude = opamp_scattering(amp, cfg.amp_impedance,
                                 cfg.carrier_omega).amplitude
    row = [complex(c) for c in amplitude[1]]  # the readout line's row
    # readout gain on the input line field, per unit of mass velocity
    gain = row[0] * cfg.transducer_coupling
    if gain == 0.0:
        raise ModelError("detection chain has zero signal gain")
    labels = (LINE_IN, LINE_OUT, AMP_A, AMP_AC)
    # the detection lines carry occupations demodulated from the carrier,
    # the mechanical source its force PSD (its coefficient is unity)
    sigma_amp = energy / (HBAR * cfg.carrier_omega)
    occupations = dict(zip(labels, (0.5, 0.5, sigma_amp, sigma_amp)))
    occupations[MECH] = mechanical_langevin_psd(cfg.mech_damping,
                                                cfg.bath_temperature)
    return AccelerometerModel(
        cfg, {lab: c / gain for lab, c in zip(labels, row)}, occupations)


def sensitivity_report(config: AccelerometerConfig) -> SensitivityReport:
    """`AccelerometerModel.report` of the model that `config` builds."""
    return build_accelerometer(config).report()
