"""Desk-scale verification toolkit for the golden-rotation tight-binding model.

Subpackages:
    phase     exact fixed-point circle arithmetic
    words     combinatorics of the binary coding sequence and its hull
    xfloat    extended-range (mantissa, exponent) arrays for doubly-exponential growth
    transfer  unimodular transfer-matrix products, traces, windowed norms
    spectrum  trace-condition bands, derivative and norm growth exponents
    dynamics  finite truncations, their spectra, Abel-averaged confinement
    cli       command-line front end (`quasitrace`)
"""

__version__ = "0.1.0"
