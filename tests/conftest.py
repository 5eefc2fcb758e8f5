"""Shared fixtures: seeded RNG and session-scoped benchmark pipelines."""

import numpy as np
import pytest

from helpers import SEED

from tswrom.bench import (DoubleVortexConfig, double_vortex_initial,
                          make_physics, run_pipeline)

#: Criterion number -> (label, passed, detail), filled by test_acceptance.py.
ACCEPTANCE_RESULTS = {}

#: Set by test_acceptance.py on import so the summary only prints when the
#: acceptance module was part of the run.
ACCEPTANCE_ATTEMPTED = False

ACCEPTANCE_CRITERIA = range(1, 9)


def record_criterion(number, label, passed, detail):
    """Store one acceptance verdict; called before the test asserts."""
    ACCEPTANCE_RESULTS[number] = (label, bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_ATTEMPTED:
        return
    terminalreporter.section("acceptance criteria")
    for number in ACCEPTANCE_CRITERIA:
        if number in ACCEPTANCE_RESULTS:
            label, passed, detail = ACCEPTANCE_RESULTS[number]
            tag = "PASS" if passed else "FAIL"
            line = f"[{tag}] criterion {number}: {label} -- {detail}"
        else:
            line = f"[----] criterion {number}: not run"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


class VortexCase:
    """Initial data and operators for a small production-physics run."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.grid = cfg.make_grid()
        self.physics = make_physics(cfg, self.grid.N)
        self.initial = double_vortex_initial(self.grid, cfg)


@pytest.fixture(scope="session")
def vortex16():
    """n=16 double vortex: real magnitudes, cheap enough for stepping tests."""
    return VortexCase(DoubleVortexConfig(n=16, num_steps=10, dt=486.0))


@pytest.fixture(scope="session")
def mini_pipeline(tmp_path_factory):
    """Complete small pipeline (n=24, 40 steps) with on-disk artifacts."""
    out = tmp_path_factory.mktemp("mini_pipeline")
    cfg = DoubleVortexConfig(n=24, num_steps=40, dt=486.0)
    result = run_pipeline(cfg, outdir=out)
    result.outdir = out
    return result
