"""Probabilities from transformation-group invariance.

Finite groups acting on possibility sets give exact counting measures;
one-parameter continuous families give invariant densities on observation
intervals; spin-1/2 measurement gives amplitude-squared probabilities.
"""

__version__ = "0.1.0"
