"""Deformed-oscillator chains and the complex Liouville field with local
integrable defects: exact charge extraction, Poisson-structure and
zero-curvature verification, time integration, and Darboux/Backlund solution
generators, plus a deterministic command-line harness."""

__version__ = "0.1.0"
