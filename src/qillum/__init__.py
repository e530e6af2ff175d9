"""Gaussian quantum illumination toolkit.

Symplectic linear algebra, entangled-probe state builders, quantum Chernoff
and Bhattacharyya discrimination bounds, and a truncated number-basis oracle
for cross-checking the Gaussian machinery. Import each name from the module
that defines it: qillum.symplectic, qillum.states, qillum.bounds, qillum.fock
or qillum.cli.
"""

__version__ = "0.1.0"
