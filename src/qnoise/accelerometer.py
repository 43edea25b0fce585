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
from typing import Dict, Optional

from .amplifier import IdealOpAmp, opamp_scattering
from .constants import HBAR, K_B
from .errors import DomainError, ModelError
from .estimator import EstimatorRow, NoiseBudget, added_noise_spectrum, \
    normalize_estimator
from .network import ModeCoefficient, SpectrumTable, capacitor_impedance

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
    giving |Z_f| = sqrt(R_a R_r) at the carrier.
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
                     "transducer_coupling"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be positive, got {value}")
        if self.loop_gain < 0.0:
            raise DomainError("loop_gain must be >= 0")
        if self.measure_omega >= self.carrier_omega:
            raise DomainError("measurement frequency must sit far below "
                              "the detection carrier")

    @property
    def r_readout(self) -> float:
        return (self.readout_impedance if self.readout_impedance is not None
                else self.amp_impedance)

    @property
    def c_feedback(self) -> float:
        if self.feedback_capacitance is not None:
            if self.feedback_capacitance <= 0.0:
                raise DomainError("feedback capacitance must be positive")
            return self.feedback_capacitance
        return 1.0 / (self.carrier_omega
                      * math.sqrt(self.amp_impedance * self.r_readout))


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
    detection_coefficients: Dict[str, ModeCoefficient]  # velocity-referred

    def mechanical_impedance(self, omega: float) -> complex:
        return self.config.mech_damping - 1j * omega * self.config.mass

    @property
    def loop_damping(self) -> float:
        return self.config.loop_gain * self.config.mech_damping

    def spectrum_table(self) -> SpectrumTable:
        """Source spectra: detection lines carry occupations demodulated
        from the carrier; the mechanical source carries its force PSD
        directly (its estimator coefficient is dimensionless unity)."""
        cfg = self.config
        sigma_amp = K_B * cfg.amp_temperature / (HBAR * cfg.carrier_omega)
        return SpectrumTable({
            MECH: mechanical_langevin_psd(cfg.mech_damping,
                                          cfg.bath_temperature),
            LINE_IN: 0.5,
            LINE_OUT: 0.5,
            AMP_A: sigma_amp,
            AMP_AC: sigma_amp,
        })

    def estimator_row(self, omega: Optional[float] = None) -> EstimatorRow:
        """Force estimator at measurement frequency omega (a number, or an
        array over a sweep), normalized to unit gain on the external force.

        The closed-loop readout is proportional to
        (F_ext + F_n + Z_m n_v) / (Z_m + H_loop); normalizing by the
        F_ext coefficient removes the loop gain exactly, which is the
        cold-damping invariance.
        """
        if omega is None:
            omega = self.config.measure_omega
        z_m = self.mechanical_impedance(omega)
        z_t = z_m + self.loop_damping
        raw = {MECH: ModeCoefficient(1.0 / z_t, False)}
        for lab, coef in self.detection_coefficients.items():
            raw[lab] = ModeCoefficient(z_m * coef.amplitude / z_t,
                                       coef.conjugated)
        return normalize_estimator(raw, 1.0 / z_t)

    def budget(self, omega: Optional[float] = None) -> NoiseBudget:
        """Force-referred noise budget at omega (default: the measurement
        frequency); an array of omega gives terms over the sweep."""
        return added_noise_spectrum(self.estimator_row(omega),
                                    self.spectrum_table())

    def detection_velocity_psd(self) -> float:
        """Velocity-equivalent PSD of the detection noise (m/s)^2 per the
        two-sided convention; this is what the servo feeds back."""
        table = self.spectrum_table()
        return float(sum(abs(c.amplitude) ** 2 * table.sigma(lab)
                         for lab, c in self.detection_coefficients.items()))

    def loop_force_noise_psd(self) -> float:
        """Force PSD injected by the servo, H_loop^2 times the detection
        velocity noise.  Cold damping: far below 2 H_loop k_B Theta_m."""
        return self.loop_damping ** 2 * self.detection_velocity_psd()

    def loop_effective_temperature(self) -> float:
        """Temperature whose Langevin noise at damping H_loop would match
        the loop-injected noise; the cold-damping temperature."""
        if self.loop_damping == 0.0:
            return 0.0
        return self.loop_force_noise_psd() / (2.0 * self.loop_damping * K_B)

    def report(self) -> SensitivityReport:
        """Noise budget and acceleration sensitivity sqrt(Sigma_FF)/M at the
        measurement frequency."""
        budget = self.budget(self.config.measure_omega)
        sigma_ff = budget.total
        dominant = budget.dominant[0] if len(budget.dominant) == 1 \
            else "/".join(budget.dominant)
        return SensitivityReport(
            sigma_ff=sigma_ff,
            acceleration_asd=math.sqrt(sigma_ff) / self.config.mass,
            budget=budget,
            dominant=dominant,
            mechanical_fraction=budget.terms[MECH] / sigma_ff,
        )


def build_accelerometer(config: AccelerometerConfig) -> AccelerometerModel:
    """Assemble the detection chain and velocity-referred noise coefficients.

    The op-amp (left line = transducer mode at the amplifier impedance,
    right line = detection line, capacitive feedback) is decomposed at its
    matched impedance so its two noise lines are uncorrelated and sit at the
    amplifier effective temperature.  Demodulation from the carrier is
    ideal.
    """
    cfg = config
    sigma_amp = K_B * cfg.amp_temperature / (HBAR * cfg.carrier_omega)
    if sigma_amp < 0.5:
        raise DomainError(f"amplifier noise occupation {sigma_amp:.3g} is "
                          "below the 1/2 vacuum floor at the carrier "
                          f"{cfg.carrier_omega / (2.0 * math.pi):.6g} Hz")
    c_f = cfg.c_feedback
    amp = IdealOpAmp(
        r_left=cfg.amp_impedance,
        r_right=cfg.r_readout,
        z_feedback=lambda w: capacitor_impedance(c_f, w),
    )
    smap = opamp_scattering(amp, cfg.amp_impedance, cfg.carrier_omega,
                            labels=(LINE_IN, LINE_OUT, AMP_A, AMP_AC))
    row = smap.row(LINE_OUT)
    c_signal = row[LINE_IN].amplitude  # readout gain on the input line field
    if c_signal == 0.0:
        raise ModelError("detection chain has zero signal gain")
    kappa = cfg.transducer_coupling
    nu = {}
    for lab, coef in row.items():
        nu[lab] = ModeCoefficient(coef.amplitude / (c_signal * kappa),
                                  coef.conjugated)
    return AccelerometerModel(cfg, nu)


def sensitivity_report(config: AccelerometerConfig) -> SensitivityReport:
    """`AccelerometerModel.report` of the model that `config` builds."""
    return build_accelerometer(config).report()
