"""Golden reports: each experiment's JSON reports, with the environment
stamp emptied, hash to the digest committed for it in golden_reports.json.

The runs are the 78 default ones (every experiment at seeds 0-2, spacing
1e-3 and 5e-4); for the three sequence experiments, seeds 0-2 at
truncation_n 16, 64 and 150 (the sizes the seq-model benchmark runs, and
one that crosses the 100-trial block edge); and, for germ-continuity and
germ-openness, seeds 0-39 at germ_level 0-2.  A separate certificates digest pins certify's radii and
closed-form moduli: the JSON of every germ's certificate at seeds 0-39 and
levels 0-2 under the default schedule, spacing and margin.  A digest holds only under
the stamp (python, numpy, machine) it was made under; under another stamp
the test skips and says so.  A change that moves a report rewrites the file with

    PYTHONPATH=src python tests/test_golden_reports.py --write

and tables the move in CHANGES.md.

The same runs pin every bound check to its report: a check that states one
bound claims it and passes exactly where its measured value meets it.
"""

import dataclasses
import hashlib
import json
import operator
import sys
from pathlib import Path

import pytest

from sclab.experiments import EXPERIMENT_IDS, ExperimentConfig, _stamp, emit, run
from sclab.germs import GERM_IDS, certificate_to_json, certify, make_germ

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _configs(eid):
    for spacing in (1e-3, 5e-4):
        for seed in range(3):
            yield ExperimentConfig(seed=seed, spacing=spacing)
    if eid.startswith("seq-"):
        for n in (16, 64, 150):
            for seed in range(3):
                yield ExperimentConfig(seed=seed, truncation_n=n)
    if eid in ("germ-continuity", "germ-openness"):
        for level in range(3):
            for seed in range(40):
                yield ExperimentConfig(seed=seed, germ_level=level)


def digest(eid: str) -> str:
    """sha256 over the JSON text of each of eid's reports, in run order."""
    h = hashlib.sha256()
    for cfg in _configs(eid):
        h.update(emit(dataclasses.replace(run(eid, cfg), stamp={})).encode())
    return h.hexdigest()


def certificates_digest() -> str:
    """sha256 over certificate_to_json of certify at every germ, seed 0-39
    and level 0-2, in that nesting order."""
    cfg = ExperimentConfig()
    germs = [make_germ(gid, cfg.schedule(), cfg.spacing, cfg.margin) for gid in GERM_IDS]
    h = hashlib.sha256()
    for germ in germs:
        for seed in range(40):
            for level in range(3):
                h.update(certificate_to_json(certify(germ, level, seed=seed)).encode())
    return h.hexdigest()


#: the checks that state one bound, and the comparison their passed re-derives:
#: measured <= claimed (le) or measured >= claimed (ge)
BOUND_CHECKS = {
    "unit-vector gap": operator.le,
    "difference operator norm at least 1/2": operator.ge,
    "difference operator norm at most 1": operator.le,
    "round trip": operator.le,
    "single-mode level scaling": operator.le,
    "tail bound with sharp mode": operator.le,
    "diagonal map bounded by two": operator.le,
    "interior tangent formula": operator.le,
    "tangent at the limit parameter": operator.le,
    "projection orthogonality": operator.le,
    "missed target pairing": operator.le,
    "missed target distance": operator.le,
    "kernel witness": operator.le,
    "projection-map differential at the origin": operator.le,
    "branching-family differential at the origin": operator.le,
    "blow-up growth per step": operator.ge,
    "mutual distance sqrt(2)": operator.le,
    "two-route witness agreement": operator.le,
    "same-level lower bound": operator.ge,
    "rank-one: factor-two law": operator.le,
    "quadratic: factor-two law": operator.le,
}

#: the other checks: tokens, text claims, strict inequalities and gates on
#: more than one condition
OTHER_CHECKS = {
    "origin sweeps stay off the bump",
    "retraction differential rank",
    "blow-up lower bound",
    "envelope strictly decreasing",
    "envelope collapse",
    "fixed-point residuals",
    "branch dichotomy",
    "midpoint identity",
    "cross-level sandwich",
    "upper bound decreasing",
    *(
        f"{germ}: {check}"
        for germ in ("rank-one", "quadratic")
        for check in ("certificate replay", "probes below the closed form", "probe decay")
    ),
    "moving-bump: non-contraction flag",
    "rank-one: openness at certified radius",
    "quadratic: openness at certified radius",
    "moving-bump: openness failure",
}


def test_every_bound_check_passes_by_its_claimed_bound():
    emitted = set()
    for eid in EXPERIMENT_IDS:
        for cfg in _configs(eid):
            for check in run(eid, cfg).checks:
                emitted.add(check.name)
                if check.name in BOUND_CHECKS:
                    holds = BOUND_CHECKS[check.name](float(check.measured), float(check.claimed))
                    assert check.passed == holds, (eid, cfg, check)
    # every check is classified, once, and the tables name no check that is gone
    assert not set(BOUND_CHECKS) & OTHER_CHECKS
    assert emitted == set(BOUND_CHECKS) | OTHER_CHECKS


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_experiment_has_one_digest():
    assert sorted(_golden()["digests"]) == sorted(EXPERIMENT_IDS)


@pytest.mark.parametrize("eid", EXPERIMENT_IDS)
def test_reports_match_the_golden_digest(eid):
    golden = _golden()
    if golden["stamp"] != _stamp():
        pytest.skip(f"digests made under {golden['stamp']}, not this run's {_stamp()}")
    assert digest(eid) == golden["digests"][eid]


def test_certificates_match_the_golden_digest():
    golden = _golden()
    if golden["stamp"] != _stamp():
        pytest.skip(f"digests made under {golden['stamp']}, not this run's {_stamp()}")
    assert certificates_digest() == golden["certificates"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    table = {
        "stamp": _stamp(),
        "digests": {eid: digest(eid) for eid in EXPERIMENT_IDS},
        "certificates": certificates_digest(),
    }
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
