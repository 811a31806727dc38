"""Pseudospectral simulator and verification harness for coupled pairs of the
2D periodic Navier-Stokes equations (nudging and direct-replacement families).

The package is its modules: import the one you need, as in
`from intertwine import harness`.
"""

__version__ = "0.1.0"
