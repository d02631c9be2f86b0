"""Fidelity and rate models for hybrid quantum repeaters.

Closed-form recursions for purification, swapping, and encoded storage,
cross-checked by density-matrix simulation, exhaustive enumeration, and
Monte Carlo sampling. Import each name from its module, e.g.
``from repeaterlab.pipeline import evaluate``; each module's ``__all__`` is
its public API. ``import repeaterlab`` loads no submodule and no numpy.
"""

__version__ = "0.1.0"
