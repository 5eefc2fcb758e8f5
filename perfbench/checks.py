"""Output checks, computed by the benchmark from the program's trajectories.

The tolerances are the acceptance suite's (tests/test_acceptance.py),
copied unchanged: criteria 1/2 for the full model, criterion 3 for the
tensor model's accuracy and criterion 4 for conservation by both reduced
models. Each function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

VARIABLES = ("h", "u", "v", "s")
INVARIANTS = ("H", "M", "Q", "B")

#: Criterion 3: tensor-model l2 errors at r=5, p=35 within 3x of these.
REFERENCE_L2 = {"h": 1.014e-2, "u": 1.737e-1, "v": 2.400e-1, "s": 7.943e-4}
R, P = 5, 35


def drift(invariants: np.ndarray):
    """Mean and peak relative drift of (H, M, Q, B) over steps 1..K."""
    series = np.abs(invariants[1:] - invariants[0]) / np.abs(invariants[0])
    return series.mean(axis=0), series.max(axis=0)


def lift(means: np.ndarray, modes: np.ndarray, reduced: np.ndarray) -> np.ndarray:
    """Packed full trajectory (4N, K+1) from reduced coefficients (4r, K+1)."""
    r = modes.shape[2]
    return np.concatenate([means[i][:, None] + modes[i] @ reduced[i * r:(i + 1) * r]
                           for i in range(4)])


def relative_l2(reference: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """Time-averaged relative l2 error per variable over columns 1..K."""
    N = reference.shape[0] // 4
    out = np.empty(4)
    for i in range(4):
        ref = reference[i * N:(i + 1) * N, 1:]
        err = np.linalg.norm(ref - trial[i * N:(i + 1) * N, 1:], axis=0)
        out[i] = np.mean(err / np.linalg.norm(ref, axis=0))
    return out


def fom_problems(invariants: np.ndarray) -> list[str]:
    """Criteria 1 and 2: mean drift <= 1e-9 for each invariant, Q <= 1e-13."""
    mean, _ = drift(invariants)
    problems = [f"full model {name} drift {m:.2e} > 1e-9"
                for name, m in zip(INVARIANTS, mean) if not m <= 1e-9]
    if not mean[2] <= 1e-13:
        problems.append(f"full model Q drift {mean[2]:.2e} > 1e-13")
    return problems


def reduced_problems(tag: str, invariants: np.ndarray) -> list[str]:
    """Criterion 4: H, M, B mean drift <= 1e-3 and flat in time, Q <= 1e-12."""
    mean, peak = drift(invariants)
    problems = []
    for i, name in enumerate(INVARIANTS):
        if name == "Q":
            if not mean[i] <= 1e-12:
                problems.append(f"{tag} Q drift {mean[i]:.2e} > 1e-12")
            continue
        if not mean[i] <= 1e-3:
            problems.append(f"{tag} {name} drift {mean[i]:.2e} > 1e-3")
        if not (peak[i] <= 10.0 * mean[i] or peak[i] <= 1e-13):
            problems.append(f"{tag} {name} peak {peak[i]:.2e} > 10x mean {mean[i]:.2e}")
    return problems


def l2_problems(l2) -> list[str]:
    """Criterion 3: each tensor-model error within a factor 3 of REFERENCE_L2."""
    problems = []
    for var, err in zip(VARIABLES, l2):
        ref = REFERENCE_L2[var]
        if not ref / 3.0 <= err <= ref * 3.0:
            problems.append(f"tensor l2_{var} {err:.3e} outside "
                            f"[{ref / 3.0:.3e}, {ref * 3.0:.3e}]")
    return problems


def rank_problems(r: int, p: int) -> list[str]:
    return [] if (r, p) == (R, P) else [f"ranks (r={r}, p={p}) != ({R}, {P})"]
