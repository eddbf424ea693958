"""One-bit random maps from the unit sphere into the Hamming cube.

Sign patterns of random projections turn sphere points into bit strings whose
normalized Hamming distance tracks the geodesic distance.  This package
implements the map with bit-packed codes, every closed-form sample-size bound
and phase-transition window for its injectivity and distance-preservation
properties, exact combinatorial oracles that ground-truth those formulas at
desk scale, and a seeded Monte Carlo engine plus CLI for reproducing the
phase-transition curves.
"""

__version__ = "0.1.0"
