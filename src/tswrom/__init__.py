"""Structure-preserving solver and reduced-order models for rotating
thermal shallow water flow on a doubly periodic grid.

The full-order model integrates the noncanonical Hamiltonian form of the
equations with an average vector field method, conserving the discrete
energy, mass, vorticity, and buoyancy. The reduced models combine a proper
orthogonal decomposition of the state with an exact reduced energy
gradient and a discrete empirical interpolation of the Poisson operator's
coefficients, precomputed into small tensors so the online cost is
independent of the grid size.

Names are imported from their modules (tswrom.grid, fom, pod, deim, rom,
bench, fileio, cli and errors). Importing the package loads none of them,
so the command-line entry point can pin BLAS thread pools before any
numerical library loads.
"""

__version__ = "0.1.0"
