"""Workload definitions: the fixed studies each benchmark workload runs.

The problems are deterministic (the meshes and manufactured cases of the
paper are fixed); the seed only permutes the order in which ``taylor-sweep``
runs its studies and the order of the untimed warm-up.  The program only
ever receives the generated ``StudyConfig`` objects.
"""

import random

from bdmdarcy.cli import StudyConfig


def _study(domain, k, m, first, last, solver="auto"):
    return StudyConfig(domain=domain, k=k, m=m, level_first=first, level_last=last,
                       solver=solver)


def _taylor_sweep():
    studies = []
    for k in (2, 3):
        for m in range(k):
            studies.append(_study("circle", k, m, 1, 2))
            studies.append(_study("ring", k, m, 0, 2))
    return studies


def _canonical(name):
    if name == "disk-k3-direct":
        return [_study("circle", 3, 3, 1, 5)]
    if name == "ring-k3-krylov":
        return [_study("ring", 3, 3, 4, 4)]
    if name == "taylor-sweep":
        return _taylor_sweep()
    raise KeyError(f"unknown workload {name!r}")


def _warmup(name):
    """Small studies that take every code path of the workload once, so
    lazy set-up (reference tables, first factorization, first Krylov solve)
    is paid before timing starts."""
    if name == "disk-k3-direct":
        return [_study("circle", 3, 3, 1, 2)]
    if name == "ring-k3-krylov":
        return [_study("ring", 3, 3, 0, 1), _study("ring", 3, 3, 1, 1, solver="iterative")]
    return [_study(s.domain, s.k, s.m, s.level_first, s.level_first) for s in _taylor_sweep()]


def studies(name, seed):
    """The timed studies of a workload, in the order the seed gives."""
    configs = _canonical(name)
    if name == "taylor-sweep":
        random.Random(seed).shuffle(configs)
    return configs


def warmup(name, seed):
    configs = _warmup(name)
    random.Random(seed + 1).shuffle(configs)
    return configs


def degrees(name):
    """Velocity degrees whose reference tables the workload builds."""
    return sorted({cfg.k for cfg in _canonical(name)})


def study_key(cfg):
    return f"{cfg.domain}-k{cfg.k}-m{cfg.m}-{cfg.mode}"


def problem_key(cfg, level):
    """Identifier of one problem (one study level), as used in reference.json."""
    return f"{study_key(cfg)}-L{level}"


def problem_keys(name):
    return [problem_key(cfg, level) for cfg in _canonical(name)
            for level in range(cfg.level_first, cfg.level_last + 1)]
