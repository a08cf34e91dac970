"""Two-sided pins of the study error E_total.

An error that grows and one that shrinks suspiciously both fail.  The
corrected values are the benchmark's references (the Taylor-order sweep,
and levels 1-3 of the k = m = 3 disk); the uncorrected-strong values were
recorded with the per-edge implementation of the boundary traces.  Levels 4
and 5 of the k = m = 3 disk are exact-solve values: a sparse LU of the full
saddle matrix followed by three steps of iterative refinement whose residual
is formed in extended precision (E_total stable to 1e-11 across the steps).
rtol 1e-6 leaves room for round-off amplified by the saddle solve (below
1e-8 relative up to level 5) and for nothing else.
"""

import pytest

from bdmdarcy.cli import StudyConfig, run_study

PINS = {
    ("circle", 2, 0, "corrected"): {1: 0.40478034713860894, 2: 0.13957722035971654},
    ("circle", 2, 1, "corrected"): {1: 0.149985781109582, 2: 0.03556696924800656},
    ("circle", 3, 0, "corrected"): {1: 0.518954865843555, 2: 0.1613466439832178},
    ("circle", 3, 1, "corrected"): {1: 0.01162036670377646, 2: 0.0013053757574119375},
    ("circle", 3, 2, "corrected"): {1: 0.012319794853647136, 2: 0.0013984884437800397},
    ("circle", 3, 3, "corrected"): {
        1: 0.012313572235456535,
        2: 0.001398303253806652,
        3: 0.00014849291869754497,
        4: 1.567063214543e-05,
        5: 1.679052330805e-06,
    },
    ("ring", 2, 0, "corrected"): {
        0: 23.147781343828893,
        1: 5.904437267061813,
        2: 1.6271376581400225,
    },
    ("ring", 2, 1, "corrected"): {
        0: 23.145166288064186,
        1: 5.891195054747792,
        2: 1.6226747333929061,
    },
    ("ring", 3, 0, "corrected"): {
        0: 5.999530416138994,
        1: 1.2765035661112498,
        2: 0.1983832612116991,
    },
    ("ring", 3, 1, "corrected"): {
        0: 5.912758485030689,
        1: 1.2247225291354549,
        2: 0.1547251522525381,
    },
    ("ring", 3, 2, "corrected"): {
        0: 5.925859962836576,
        1: 1.2253027460873924,
        2: 0.15474444569937335,
    },
    ("circle", 2, 2, "uncorrected-strong"): {1: 0.8577648647867285, 2: 0.5092714332661955},
}


@pytest.mark.parametrize("study", sorted(PINS), ids=lambda s: "{}-k{}-m{}-{}".format(*s))
def test_e_total_pinned(study):
    domain, k, m, mode = study
    levels = PINS[study]
    cfg = StudyConfig(domain=domain, k=k, m=m, mode=mode,
                      level_first=min(levels), level_last=max(levels))
    got = {row["level"]: row["E_total"] for row in run_study(cfg)}
    assert got == pytest.approx(levels, rel=1e-6, abs=0.0)
