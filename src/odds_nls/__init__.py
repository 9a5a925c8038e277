"""Overlapping Chebyshev domain decomposition splitting solver for the
stochastic cubic Schrodinger equation with Dirichlet boundary data."""

__version__ = "0.1.0"
