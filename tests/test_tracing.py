"""The benchmark's tracer (bench/tracing.py) wraps sclab functions by name;
installing and removing it here keeps `bench/run.py --trace 1` in step with
the names the library exports."""

import importlib.util
import sys
from pathlib import Path

from sclab import germs, scale_core

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("sclab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every module-level binding of sclab, and the two traced methods."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "sclab" or name.startswith("sclab.")
        for attr, value in vars(mod).items()
    }
    out[("GermContext", "gram")] = germs.GermContext.__dict__["gram"]
    out[("LogScalar", "__post_init__")] = scale_core.LogScalar.__dict__["__post_init__"]
    return out


def test_install_wraps_and_uninstall_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        during = _bindings()
        changed = {key for key, value in before.items() if during[key] is not value}
        for key in (
            ("sclab.bump_profiles", "shifted_bump"),
            ("sclab.bump_profiles", "pair_with_bump"),
            ("sclab.gallery", "pair_with_bump"),
            ("sclab.scale_core", "grid_sobolev_norm"),
            ("sclab.operator_probe", "finite_diff_differential"),
            ("sclab.germs", "make_germ"),
            ("GermContext", "gram"),
        ):
            assert key in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
