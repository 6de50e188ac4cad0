"""The benchmark's workloads (bench/workloads.py) call the sequence, grid and
germ APIs by name; running each workload's verifier on one case here keeps
`bench/run.py` in step with those APIs, and running the germ-cert experiments
at every seed and level of its rounds keeps its share of failed operations
at 0."""

import importlib.util
import sys
from pathlib import Path

from sclab import experiments
from sclab.experiments import ExperimentConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("sclab_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_seq_model_verifier_runs_one_case(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    case = workloads.Case(ExperimentConfig(seed=3, truncation_n=16), "truncation_n=16")
    assert workloads.WORKLOADS["seq-model"].verify(case) == 3 * 16 + 4


def test_grid_maps_verifier_runs_one_case(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    case = workloads.Case(ExperimentConfig(seed=3, spacing=5e-4), "spacing=0.0005")
    assert workloads.WORKLOADS["grid-maps"].verify(case) == 5


def test_germ_cert_verifier_runs_one_case(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    case = workloads.Case(ExperimentConfig(seed=1, germ_level=2), "germ_level=2")
    assert workloads.WORKLOADS["germ-cert"].verify(case) == 5


def test_germ_cert_reports_pass_at_every_seed_and_level(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    failed = [
        (experiment_id, seed, level)
        for experiment_id in workloads.WORKLOADS["germ-cert"].experiments
        for seed in workloads.GERM_SEEDS
        for level in workloads.GERM_LEVELS
        if not experiments.run(experiment_id, ExperimentConfig(seed=seed, germ_level=level)).passed
    ]
    assert failed == []
