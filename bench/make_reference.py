"""Regenerate the stored reference samples of the compare-driven workload.

Integrates the workload's fixed physics at tol 1e-12 and stores the exact
and mean-field records at eight evenly spaced output points, for both the
full and the tiny size.  Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json

import numpy as np

from workloads import DRIVEN_REFERENCE, CompareDriven

RECORDS = ("sigma_minus_0", "sigma_minus_1", "sigma_z_0", "sigma_z_1", "a_0", "n_0", "energy", "norm")
TOL = 1e-12


def samples(traj, idx) -> dict:
    return {
        name: [[float(np.real(v)), float(np.imag(v))] for v in traj.records[name][idx]]
        for name in RECORDS if name in traj.records
    }


def main() -> None:
    stored = {"tol": TOL}
    for size, tiny in (("full", False), ("tiny", True)):
        wl = CompareDriven(seed=0, tiny=tiny)
        model = wl.setup()
        exact, mf = wl.integrate(model, TOL)
        idx = [int(i) for i in np.linspace(0, len(exact.times) - 1, 9)[1:]]
        stored[size] = {
            "indices": idx,
            "times": [float(exact.times[i]) for i in idx],
            "exact": samples(exact, idx),
            "meanfield": samples(mf, idx),
        }
    DRIVEN_REFERENCE.write_text(json.dumps(stored) + "\n")


if __name__ == "__main__":
    main()
