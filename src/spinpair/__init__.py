"""Two-spin ensemble simulator contrasting linear quantum dynamics with
state-dependent mean-value precession."""

__version__ = "0.1.0"
