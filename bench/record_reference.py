"""Record the reference error E_total of every benchmark problem.

    python3 bench/record_reference.py

Runs each workload's studies once and writes reference.json next to this
file.  The stored file was recorded from the seed commit of the benchmark;
rerun this only when a change is meant to alter the discretization error.
"""

import json
import sys
import warnings
from pathlib import Path

import run

if __name__ == "__main__":
    run.limit_threads()
    run.use_checkout_sources()
    import gate as gatemod
    import workloads
    from bdmdarcy import cli

    warnings.simplefilter("ignore")
    errors, residuals = {}, {}
    gate = gatemod.Gate({})
    with gate.checking():
        for name in run.WORKLOAD_NAMES:
            for cfg in workloads.studies(name, 0):
                rows = cli.run_study(cfg)
                for row, res in zip(rows, gate.residuals):
                    key = workloads.problem_key(cfg, row["level"])
                    errors[key] = row["E_total"]
                    residuals[key] = res
                    print(f"{key}  E_total={float(row['E_total'])!r}  residual={res:.3e}", flush=True)
                gate.residuals = []
    bad = {k: r for k, r in residuals.items() if r > gatemod.RESIDUAL_LIMIT}
    if bad:
        sys.exit(f"residual above {gatemod.RESIDUAL_LIMIT} for {sorted(bad)}")
    Path(gatemod.REFERENCE).write_text(json.dumps({"E_total": errors}, indent=1, sort_keys=True) + "\n")
