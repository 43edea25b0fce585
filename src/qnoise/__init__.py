"""qnoise: frequency-domain quantum/thermal noise networks.

Scattering matrices for reactive multipoles terminated by noise lines,
fluctuation spectra propagated through passive and amplifying elements,
calibrated noise budgets, and a cold-damped capacitive accelerometer
reference model, driven by a small netlist language.
"""

__version__ = "0.1.0"
