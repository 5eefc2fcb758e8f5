"""Double-vortex initial data, error metrics, and the end-to-end pipeline."""

import tracemalloc

import numpy as np
import pytest

from tswrom.bench import (_L2_ROWS, Case, DoubleVortexConfig, INVARIANT_NAMES,
                          double_vortex_initial, invariant_errors, make_physics,
                          relative_l2_error, run_pipeline, stage_fom)
from tswrom.errors import ConfigError, NumericError
from tswrom.fileio import read_snapshots
from tswrom.grid import apply_dx, apply_dy
from tswrom.pod import VARIABLES


def test_initial_buoyancy_extremes_exact():
    # the buoyancy modulation hits its quarter-period extrema on any grid
    # whose size is a multiple of 4, so min/max are exactly (1 -/+ wobble) g
    cfg = DoubleVortexConfig(n=100)
    s = np.split(double_vortex_initial(cfg.make_grid(), cfg), 4)[3]
    np.testing.assert_allclose(s.min(), 0.95 * cfg.gravity, rtol=1e-14)
    np.testing.assert_allclose(s.max(), 1.05 * cfg.gravity, rtol=1e-14)


def test_initial_height_window():
    cfg = DoubleVortexConfig(n=100)
    h = np.split(double_vortex_initial(cfg.make_grid(), cfg), 4)[0]
    assert h.min() > 600.0
    # the constant shift recenters the mass at the reference depth
    assert abs(h.mean() - cfg.mean_depth) < 0.5
    assert h.max() <= cfg.mean_depth + cfg.depth_drop


def test_initial_velocities_in_discrete_geostrophic_balance():
    cfg = DoubleVortexConfig(n=64)
    grid = cfg.make_grid()
    h, u, v, _ = np.split(double_vortex_initial(grid, cfg), 4)
    f, g = cfg.coriolis, cfg.gravity
    res_u = f * u + g * apply_dy(grid, h)
    res_v = f * v - g * apply_dx(grid, h)
    rel_u = np.linalg.norm(res_u) / np.linalg.norm(f * u)
    rel_v = np.linalg.norm(res_v) / np.linalg.norm(f * v)
    assert rel_u < 0.05 and rel_v < 0.05, (rel_u, rel_v)


def test_make_physics_flat_bottom():
    cfg = DoubleVortexConfig(n=10)
    phys = make_physics(cfg, 100)
    assert phys.f == cfg.coriolis
    assert phys.b.shape == (100,)
    assert np.all(phys.b == 0.0)


def test_config_validation():
    for bad in (
        DoubleVortexConfig(n=2),
        DoubleVortexConfig(num_steps=0),
        DoubleVortexConfig(dt=0.0),
        DoubleVortexConfig(length=-1.0),
        DoubleVortexConfig(coriolis=0.0),
        DoubleVortexConfig(gravity=0.0),
        DoubleVortexConfig(mean_depth=0.0),
        DoubleVortexConfig(depth_drop=800.0),
        DoubleVortexConfig(sigma_x_frac=0.0),
        DoubleVortexConfig(center_offset=0.5),
        DoubleVortexConfig(buoyancy_wobble=1.0),
        DoubleVortexConfig(kappa_pod=1.0),
        DoubleVortexConfig(kappa_deim=-0.1),
        DoubleVortexConfig(r_override=0),
        DoubleVortexConfig(p_override=-3),
    ):
        with pytest.raises(ConfigError):
            bad.validate()
    DoubleVortexConfig().validate()  # the production defaults are sane


def test_relative_l2_error_worked_example():
    reference = np.array([
        [2.0, 2.0, 2.0],
        [1.0, 1.0, 1.0],
        [1.0, 2.0, 2.0],
        [4.0, 5.0, 5.0],
    ])
    trial = reference.copy()
    trial[0, 1] += 0.2  # h differs by 10% in column 1 only
    trial[0, 0] += 1.0  # column 0, the initial state, is not averaged
    # the average runs over columns 1..K = 1, 2
    err = relative_l2_error(reference, trial)
    np.testing.assert_allclose(err, [0.05, 0.0, 0.0, 0.0], atol=1e-15)


def test_relative_l2_error_validation():
    ref = np.ones((8, 3))
    with pytest.raises(ConfigError):
        relative_l2_error(ref, np.ones((8, 4)))
    with pytest.raises(ConfigError, match="no columns to average over"):
        relative_l2_error(ref[:, :1], ref[:, :1])
    zero_ref = ref.copy()
    zero_ref[2:4] = 0.0  # u block vanishes
    with pytest.raises(NumericError):
        relative_l2_error(zero_ref, zero_ref)


def _norm_formula(reference, trial):
    """The plain per-variable formula: mean over columns 1..K of the column
    norms of the difference over those of the reference."""
    ref, diff = (np.split(a[:, 1:], 4) for a in (reference, reference - trial))
    return np.array([np.mean(np.linalg.norm(d, axis=0) / np.linalg.norm(r, axis=0))
                     for r, d in zip(ref, diff)])


def test_relative_l2_error_streams_to_the_norm_formula(rng):
    # N is not a multiple of the row blocks, so the last block is partial
    N, K = 2 * _L2_ROWS + 37, 9
    reference = rng.normal(size=(4 * N, K + 1)) + 3.0
    trial = reference + 1e-3 * rng.normal(size=reference.shape)
    expected = _norm_formula(reference, trial)
    got = relative_l2_error(reference, trial)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    # a Fortran-ordered view (as of stored snapshot records) gives the same bits
    fortran = relative_l2_error(np.asfortranarray(reference), np.asfortranarray(trial))
    np.testing.assert_array_equal(fortran, got)
    # a zero or NaN reference column still raises, naming the variable
    for bad, var in ((0.0, "v"), (np.nan, "s")):
        broken = reference.copy()
        broken[VARIABLES.index(var) * N : (VARIABLES.index(var) + 1) * N, 4] = bad
        with pytest.raises(NumericError, match=f"variable {var}"):
            relative_l2_error(broken, trial)
    broken = reference.copy()
    broken[N + 5, 3] = np.nan
    with pytest.raises(NumericError, match="variable u"):
        relative_l2_error(broken, trial)


def test_relative_l2_error_holds_no_full_size_temporary(rng):
    # n = 32: the sweep's buffer is one block of rows, far below a quarter
    # of one input; a full difference or a full square would exceed it
    N, K = 32 * 32, 250
    reference = rng.normal(size=(4 * N, K + 1)) + 3.0
    trial = reference + 1e-3 * rng.normal(size=reference.shape)
    tracemalloc.start()
    try:
        relative_l2_error(reference, trial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * reference.nbytes


def test_invariant_errors_worked_example():
    invs = np.array([
        [1.0, 2.0, 4.0, 8.0],
        [1.1, 2.0, 4.0, 8.0],
        [0.9, 2.0, 4.0, 8.0],
    ])
    series, mean, peak = invariant_errors(invs)
    np.testing.assert_allclose(series[:, 0], [0.1, 0.1], rtol=1e-12)
    np.testing.assert_allclose(mean, [0.1, 0.0, 0.0, 0.0], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(peak, [0.1, 0.0, 0.0, 0.0], rtol=1e-12, atol=0.0)
    with pytest.raises(NumericError):
        invariant_errors(np.zeros((3, 4)))


def test_stage_fom_writes_the_config_to_snapshots(tmp_path):
    # the stage writes the finished solve and records the config's domain and
    # physics, which later stages check their own against
    cfg = DoubleVortexConfig(n=6, num_steps=3, dt=300.0, length=4.0e6, coriolis=7e-5,
                             gravity=9.5)
    meta = {}
    full = stage_fom(Case.build(cfg), meta, tmp_path)
    assert full.trajectory.shape == (4 * 36, 4) and full.invariants.shape == (4, 4)
    assert meta["wall_fom_s"] > 0.0
    back, snap_meta = read_snapshots(tmp_path / "snapshots.bin")
    assert (snap_meta["n"], snap_meta["dt"], snap_meta["num_steps"]) == (6, 300.0, 3)
    assert ((snap_meta["length"], snap_meta["coriolis"], snap_meta["gravity"])
            == (4.0e6, 7e-5, 9.5))
    np.testing.assert_array_equal(back.trajectory, full.trajectory)
    np.testing.assert_array_equal(back.invariants, full.invariants)
    csv = np.loadtxt(tmp_path / "fom_invariants.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(csv[:, 1], 300.0 * np.arange(4))


def test_pipeline_report_complete(mini_pipeline):
    report = mini_pipeline.report
    expected = {"n", "num_steps", "dt", "kappa_pod", "kappa_deim",
                "r", "p", "r_criterion", "p_criterion",
                "wall_fom_s", "wall_pod_offline_s", "wall_pod_deim_offline_s",
                "wall_pod_online_s", "wall_pod_deim_online_s",
                "speedup_pod", "speedup_pod_deim"}
    for var in VARIABLES:
        expected.add(f"l2_pod_{var}")
        expected.add(f"l2_pod_deim_{var}")
    for src in ("fom", "pod", "pod_deim"):
        for name in INVARIANT_NAMES:
            expected.add(f"inv_{src}_{name}")
            expected.add(f"inv_max_{src}_{name}")
    assert set(report) == expected
    assert all(np.isfinite(v) for v in report.values())
    assert report["r"] >= 1 and report["p"] >= 1
    assert report["wall_fom_s"] > 0.0


def test_pipeline_conservation(mini_pipeline):
    report = mini_pipeline.report
    # the full model conserves everything it should, to solver tolerance
    for name in INVARIANT_NAMES:
        assert report[f"inv_fom_{name}"] <= 1e-12, name
    # plain Galerkin reduction conserves the lifted energy to roundoff,
    # and total vorticity is exact for every lifted trajectory
    assert report["inv_pod_H"] <= 1e-10
    assert report["inv_pod_Q"] <= 1e-12
    assert report["inv_pod_deim_Q"] <= 1e-12


def test_pipeline_l2_errors_match_recomputation(mini_pipeline):
    basis = mini_pipeline.basis
    recomputed = relative_l2_error(mini_pipeline.fom.trajectory,
                                   basis.lift_array(mini_pipeline.rom_pod.reduced))
    for i, var in enumerate(VARIABLES):
        np.testing.assert_allclose(mini_pipeline.report[f"l2_pod_{var}"],
                                   recomputed[i], rtol=1e-12)
    # reduction actually tracks the training data at this scale
    assert mini_pipeline.report["l2_pod_h"] < 0.1


def test_pipeline_artifacts_on_disk(mini_pipeline):
    # exactly these files: a copy of data another artifact holds is not written
    out = mini_pipeline.outdir
    names = {
        "snapshots.bin", "basis.bin", "deim.bin", "romops.bin",
        "fom_invariants.csv", "rom_invariants_pod.csv", "rom_invariants_pod_deim.csv",
        "report.json", "rom_pod.bin", "rom_pod_deim.bin", "run_meta.json",
    }
    half, last = mini_pipeline.config.num_steps // 2, mini_pipeline.config.num_steps
    for tag in ("fom", "pod", "pod_deim"):
        for step in (0, half, last):
            names.add(f"fields_{tag}_{step:04d}.csv")
    assert {path.name for path in out.iterdir()} == names
    for name in names:
        assert (out / name).stat().st_size > 0, name


def test_pipeline_stage_lines_only_when_verbose(capsys):
    cfg = DoubleVortexConfig(n=12, num_steps=8, r_override=3, p_override=5)
    run_pipeline(cfg, verbose=True)
    printed = capsys.readouterr().out
    assert printed.count("basis: r=3 ") == 1
    assert "reduced solve (galerkin)" in printed
    run_pipeline(cfg, verbose=False)
    assert capsys.readouterr().out == ""
