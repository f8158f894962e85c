"""Desk-scale numerics for odd-frequency contact of the thin obstacle problem.

Subpackages by role:

* ``grids``         -- sphere discretizations with exact mirror symmetry;
* ``spectral``      -- eigenbases of the spherical Laplacian with prescribed
                       zero sets, analytic half-sphere bases, caching;
* ``traces``        -- spherical trace functions, inner products, gradients;
* ``profiles``      -- catalog of blow-up profiles and half-space solutions;
* ``weiss``         -- adjustable-exponent boundary-penalized Dirichlet
                       energies and the associated bilinear pairing;
* ``epiperimetric`` -- competitor constructions certifying energy decay on
                       both sides of an odd frequency, plus gap arithmetic;
* ``solver``        -- primal-dual active-set solver for the variational
                       inequality on an upper-half Cartesian grid;
* ``frequency``     -- truncated frequency functions, blow-up rate fits,
                       contact-set stratification diagnostics;
* ``artifacts``     -- deterministic CSV/JSON/SVG output with run manifests;
* ``cli``           -- the ``thin-epi`` command line interface.
"""

from __future__ import annotations

__version__ = "0.1.0"
