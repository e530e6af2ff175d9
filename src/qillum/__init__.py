"""Gaussian quantum illumination toolkit.

Symplectic linear algebra, entangled-probe state builders, quantum Chernoff
and Bhattacharyya discrimination bounds, and a truncated number-basis oracle
for cross-checking the Gaussian machinery. Import each name from the module
that defines it: qillum.symplectic, qillum.states, qillum.bounds, qillum.fock
or qillum.cli.
"""

__version__ = "0.1.0"


class _NumpyOnFirstUse:
    """A module's `np` until first read: then numpy is imported and rebound in its place.

    numpy's import is most of a spawned run that handles no matrix
    (`qillum crossover`); each module binds `np = _NumpyOnFirstUse(globals())`,
    so the first attribute read imports numpy and makes the module's global
    numpy itself, and later lookups cost nothing extra.
    """

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
