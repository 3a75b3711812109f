"""Footstep planning over piecewise-planar worlds.

The pipeline: model the world as posed planar regions, snap lattice footstep
poses onto them, validate step-to-step transitions, search with weighted A*,
then nudge each foothold away from region borders with a tiny QP.
"""

__version__ = "0.1.0"
