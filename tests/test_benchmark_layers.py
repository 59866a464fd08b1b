"""The benchmark, seen from the test suite. Its tracer wraps eegx
functions by module and attribute name; every one it names must exist,
or a traced run fails partway. Its ``cohort`` workload checks pinned
fits; a change that moves one fails here, not only in a benchmark run."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from eegx import cond_extremes as ce
from eegx import gen_synthetic_eeg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> types.ModuleType:
    """``perfbench/<name>.py``, from the source read as text: nothing is
    written under perfbench/, not even bytecode."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)  # workloads finds expected.json beside itself
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize(
    "module,attr", sorted({(layer.module, layer.attr) for layer in _load("tracer").LAYERS})
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_cohort_pass_meets_its_checks(tmp_path):
    # one seed-0 pass: every contrast runs, post beats pre, and every GPD
    # and HT fit matches expected.json
    workloads = _load("workloads")
    cohort = workloads.Cohort(workloads.DEFAULT_SEED, tmp_path)
    cohort.make_inputs()
    outcomes = cohort.run_pass(tmp_path)
    checks = cohort.checks(tmp_path)
    assert [c.name for c in checks] == ["post_exceeds_pre", "expected_gpd", "expected_ht"]
    bad = [(o.name, o.detail) for o in outcomes + checks if not o.ok]
    assert len(outcomes) == cohort.n_recordings and not bad


def test_tracer_sees_every_transform_and_fit():
    # the tracer wraps fit_marginal, fit_gpd, to_laplace and fit_ht by
    # module attribute, so conditional_model must call them through the
    # module: one marginal fit, GPD fit and transform per channel and one
    # HT fit per dependent channel
    tracer = _load("tracer").Tracer()
    rec = gen_synthetic_eeg(3, 6_000, 0.5, seed=1)
    with tracer.traced_pass():
        ce.conditional_model(rec, "T3")
    values = tracer.layer_values()
    assert values["cond_extremes.fit_marginal_calls"] == 3
    assert values["evt_univariate.fit_gpd_calls"] == 3
    assert values["cond_extremes.fit_ht_calls"] == 2
    assert values["cond_extremes.to_laplace_calls"] == 3
