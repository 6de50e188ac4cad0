"""Cold start of one workload: a fresh interpreter imports the CLI and does
the workload's one-off set-up, then prints its own timings as one JSON line.

    python3 bench/cold_start.py seq-model|grid-maps|germ-cert

``bench/run.py`` starts it several times per run and times each start from
the outside; run it under ``-X importtime`` for the import breakdown.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(workload: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import sclab.cli  # noqa: F401
    from sclab import bump_profiles, experiments, germs

    t_import = time.perf_counter()
    cfg = experiments.ExperimentConfig()
    bump_profiles.make_bump()
    t_bump = time.perf_counter()
    if workload == "seq-model":
        bump_profiles.make_smooth_step()
    elif workload == "grid-maps":
        bump_profiles.shifted_bump(0.5, 0, cfg.spacing, cfg.margin)
    elif workload == "germ-cert":
        schedule = cfg.schedule()
        for germ_id in germs.GERM_IDS:
            germs.make_germ(germ_id, schedule)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    t_end = time.perf_counter()
    print(
        json.dumps(
            {
                "import_ms": 1e3 * (t_import - _T0),
                "make_bump_ms": 1e3 * (t_bump - t_import),
                "setup_ms": 1e3 * (t_end - _T0),
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
