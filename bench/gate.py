"""Correctness gate: every problem's residual, recomputed here, and its error
against the reference recorded from the seed commit."""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bdmdarcy import cli

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RESIDUAL_LIMIT = 1e-10
# E_total may drift in the last digits when an optimisation reorders
# floating-point sums; anything beyond this relative margin is a regression.
ERROR_RTOL = 1e-6


def load_reference(path=REFERENCE):
    return json.loads(Path(path).read_text())["E_total"]


def relative_residual(system, u, p, lam, rhs=None):
    """||M0 x + a (b . x) - rhs|| / ||rhs|| from the assembled operator, the
    factored rank-one term and the returned solution."""
    rhs = system.rhs if rhs is None else rhs
    u_free = u if system.free_u is None else u[system.free_u]
    x = np.concatenate([u_free, p, [lam]])
    y = system.matrix @ x
    if system.rank1 is not None:
        a, b = system.rank1
        y = y + a * (b @ x)
    norm_b = np.linalg.norm(rhs)
    r = np.linalg.norm(y - rhs)
    return float(r / norm_b) if norm_b > 0 else float(r)


class Gate:
    """Collects the recomputed residual of every solve made by ``run_study``
    while ``checking()`` is active, and judges returned study rows."""

    def __init__(self, reference):
        self.reference = reference
        self.residuals = []
        self.failures = []

    @contextmanager
    def checking(self):
        inner = cli.solve
        self.residuals = []

        def solve(system, rhs=None, **kwargs):
            u, p, lam, report = inner(system, rhs, **kwargs)
            self.residuals.append(relative_residual(system, u, p, lam, rhs))
            return u, p, lam, report

        cli.solve = solve
        try:
            yield self
        finally:
            cli.solve = inner

    def judge(self, keys, rows):
        """Number of failed problems among ``keys`` given the rows that
        ``run_study`` returned and the residuals recorded during it."""
        residuals, self.residuals = self.residuals, []
        if len(rows) != len(keys) or len(residuals) != len(keys):
            self.failures.append(f"{keys[0]}..: {len(rows)} rows, {len(residuals)} solves")
            return len(keys)
        failed = 0
        for key, row, res in zip(keys, rows, residuals):
            ref = self.reference.get(key)
            if not res <= RESIDUAL_LIMIT:
                self.failures.append(f"{key}: residual {res:.3e}")
            elif ref is None:
                self.failures.append(f"{key}: no reference error")
            elif not row["E_total"] <= ref * (1.0 + ERROR_RTOL):
                self.failures.append(f"{key}: E_total {row['E_total']!r} > reference {ref!r}")
            else:
                continue
            failed += 1
        return failed

    def abandon(self, keys, exc):
        """Every problem of a study that raised counts as failed."""
        self.residuals = []
        self.failures.append(f"{keys[0]}..: {type(exc).__name__}: {exc}")
        return len(keys)
