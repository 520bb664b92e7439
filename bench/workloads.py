"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed list of cases; a case is one CLI command line
(plus, for ``mixture_stress``, the config file it names).  The seed only
moves radii inside the ranges below, so the same seed always gives the same
argv and config bytes.  The constants are copied from the package
(``scripts/run_example_sweeps.py`` ladders, ``regressions._DEFAULT_EPS``
radii) rather than imported, so that a later change to the package cannot
silently change the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

SWEEP_STEPS = 40
# Ladder ends of scripts/run_example_sweeps.py; each end is scaled by the seed.
SWEEP_LADDERS = {
    "gaussians_equal_variances": (0.1, 1.5),
    "gaussians_equal_means": (0.1, 1.0),
    "non_uniqueness_single": (0.05, 0.4),
    "non_uniqueness_all": (0.05, 0.45),
    "degenerate": (0.02, 0.2),
}
LADDER_JITTER = 0.1

# k alternating Gaussian bumps: class 0 at 4i, class 1 at 4i+2.  k=4 is
# scan-bound, k=8 enumerates completely (2,584 sets) and is risk-bound, k=16
# hits the 4,096-set enumeration cap.  Equal shares put the median inside
# the k=8 group and, with 16 ops of each k per run, the tail inside the
# k=16 group.
MIXTURE_KS = (4, 8, 16)
MIXTURE_SIGMA = 0.7
MIXTURE_EPS = (0.1, 0.5)
MIXTURE_STRATA = 4

# regressions._DEFAULT_EPS radii, scaled by the seed; grid_h rungs are the
# ones that certify within WORK_BUDGET over the whole jitter range.
CERTIFY_EPS = {
    "gaussians_equal_variances": 0.5,
    "gaussians_equal_means": 0.5,
    "non_uniqueness_single": 0.1,
    "non_uniqueness_all": 0.2,
    "degenerate": 0.05,
    "deg_eta_0_1_counterexample": 0.1,
}
CERTIFY_RUNGS = {
    "gaussians_equal_variances": (1e-3,),
    "gaussians_equal_means": (1e-3,),
    "non_uniqueness_single": (1e-3, 3e-4),
    "non_uniqueness_all": (1e-3, 3e-4),
    "degenerate": (1e-3, 3e-4, 1e-4),
    "deg_eta_0_1_counterexample": (1e-3, 3e-4, 1e-4),
}
CERTIFY_JITTER = 0.1
CERTIFY_MAX_K = 2

WORKLOADS = ("radius_sweep", "mixture_stress", "certify_ladder")


@dataclass(frozen=True)
class Case:
    """One CLI command line and what its report is checked against."""

    name: str
    command: str  # "solve", "sweep" or "certify"
    argv: tuple[str, ...]
    example: str | None = None  # built-in example name
    config: dict | None = None  # mixture distribution, as written to the config file


def _radius(x: float) -> str:
    return format(x, ".6g")


def _radius_sweep(rng: random.Random, workdir: str) -> list[Case]:
    cases = []
    for name, (lo, hi) in SWEEP_LADDERS.items():
        lo = lo * rng.uniform(1 - LADDER_JITTER, 1 + LADDER_JITTER)
        hi = hi * rng.uniform(1 - LADDER_JITTER, 1 + LADDER_JITTER)
        argv = ("sweep", "--example", name, "--eps-min", _radius(lo),
                "--eps-max", _radius(hi), "--steps", str(SWEEP_STEPS))
        cases.append(Case(name=f"sweep:{name}", command="sweep", argv=argv, example=name))
    return cases


def mixture_config(k: int) -> dict:
    def bumps(offset: float) -> list[dict]:
        return [{"type": "gaussian", "weight": 0.5 / k, "mu": 4.0 * i + offset,
                 "sigma": MIXTURE_SIGMA} for i in range(k)]

    return {"class0": bumps(0.0), "class1": bumps(2.0)}


def _mixture_stress(rng: random.Random, workdir: str) -> list[Case]:
    configs, paths = {}, {}
    for k in MIXTURE_KS:
        configs[k] = mixture_config(k)
        paths[k] = os.path.join(workdir, f"mixture_k{k}.json")
        with open(paths[k], "w") as fh:
            json.dump(configs[k], fh, sort_keys=True)
    lo, hi = MIXTURE_EPS
    cases = []
    # One radius per stratum of the range and k, so that every run covers the
    # whole range; the k=4, 8, 16 cases of a stratum run back to back.
    for j in range(MIXTURE_STRATA):
        for k in MIXTURE_KS:
            eps = _radius(lo + (hi - lo) * (j + rng.random()) / MIXTURE_STRATA)
            argv = ("solve", "--config", paths[k], "--eps", eps)
            cases.append(Case(name=f"solve:k{k}@{eps}", command="solve", argv=argv,
                              config=configs[k]))
    return cases


def _certify_ladder(rng: random.Random, workdir: str) -> list[Case]:
    cases = []
    for name, eps0 in CERTIFY_EPS.items():
        eps = _radius(eps0 * rng.uniform(1 - CERTIFY_JITTER, 1 + CERTIFY_JITTER))
        for h in CERTIFY_RUNGS[name]:
            argv = ("certify", "--example", name, "--eps", eps, "--grid-h", format(h, "g"),
                    "--max-k", str(CERTIFY_MAX_K))
            cases.append(Case(name=f"certify:{name}@{h:g}", command="certify", argv=argv,
                              example=name))
    return cases


_GENERATORS = {
    "radius_sweep": _radius_sweep,
    "mixture_stress": _mixture_stress,
    "certify_ladder": _certify_ladder,
}


def generate(workload: str, seed: int, workdir: str) -> list[Case]:
    """The workload's cases for ``seed``; config files are written to ``workdir``."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
