"""Structure-preserving simulation of viscous heat-conducting compressible
flow on 2D triangle meshes.

The discretization replaces the diffeomorphism group of the fluid domain by
matrices acting on cell-wise densities: velocity becomes an antisymmetric-in-
flux matrix supported on adjacent cell pairs, and all differential operators
(flat/sharp, divergence, Laplacians, Lie derivatives) become sparse matrix
formulas built from the circumcentric dual of the mesh.  A nonholonomic
variational integrator advances momentum, density and entropy while
conserving mass exactly and producing entropy consistently with the second
law.

Modules
-------
mesh        meshes, circumcentric dual geometry, generation and validation
fields      discrete tensor calculus: the operator dictionary
groups      matrix group maps: exponential/Cayley, trivialized tangents
physics     state, perfect gas thermodynamics, Lagrangian, forces
integrator  the variational time stepper
diagnostics probes: mass, entropy, energy budget
verify      randomized checks of every discrete identity
cli_io      configs, presets, CSV/VTK output, command line entry point
"""

from . import (  # noqa: F401
    cli_io,
    diagnostics,
    fields,
    groups,
    integrator,
    mesh,
    physics,
    verify,
)

__version__ = "0.1.0"
