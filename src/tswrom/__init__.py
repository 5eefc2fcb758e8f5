"""Structure-preserving solver and reduced-order models for rotating
thermal shallow water flow on a doubly periodic grid.

The full-order model integrates the noncanonical Hamiltonian form of the
equations with an average vector field method, conserving the discrete
energy, mass, vorticity, and buoyancy. The reduced models combine a proper
orthogonal decomposition of the state with an exact reduced energy
gradient and a discrete empirical interpolation of the Poisson operator's
coefficients, precomputed into small tensors so the online cost is
independent of the grid size.

Submodules import lazily so the command-line entry point can pin BLAS
thread pools before any numerical library loads.
"""

from importlib import import_module

from .errors import ConfigError, FormatError, NumericError

__version__ = "0.1.0"

_EXPORTS = {
    # grid
    "Grid": ".grid", "DiffOps": ".grid",
    "build_grid": ".grid", "build_diff_ops": ".grid",
    "apply_dx": ".grid", "apply_dy": ".grid",
    # full-order model
    "Physics": ".fom", "FomResult": ".fom",
    "potential_vorticity": ".fom", "grad_hamiltonian": ".fom", "hamiltonian": ".fom",
    "avf_step": ".fom", "invariants": ".fom", "integrate_fom": ".fom",
    # proper orthogonal decomposition
    "SnapshotSet": ".pod", "PodBasis": ".pod",
    "collect_snapshots": ".pod", "build_pod_basis": ".pod",
    "restrict": ".pod",
    # empirical interpolation
    "DeimSet": ".deim",
    "collect_nonlin_snapshots": ".deim",
    "qdeim_select": ".deim", "build_deim": ".deim",
    # reduced models
    "RomState": ".rom", "RomOperators": ".rom", "RomResult": ".rom",
    "FlopCounter": ".rom",
    "precompute_rom": ".rom", "rom_rhs": ".rom",
    "rom_avf_step": ".rom", "integrate_rom": ".rom",
    # benchmark
    "DoubleVortexConfig": ".bench", "PipelineResult": ".bench",
    "double_vortex_initial": ".bench", "relative_l2_error": ".bench",
    "invariant_errors": ".bench", "run_pipeline": ".bench",
}

__all__ = ["ConfigError", "NumericError", "FormatError", "__version__",
           *sorted(_EXPORTS)]


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
