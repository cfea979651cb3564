"""The benchmark's own correctness checks hold on every workload.

``perfbench/workloads.py`` holds the four benchmark layouts and the checks
that count a call as failed.  Each workload runs here through the same
``run_call`` at its pinned and holdout seeds, so a change that would make
the benchmark count failed calls fails this suite first.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed_key", ["seed", "holdout"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, seed_key):
    cfg = workloads.make_config(name, workloads.WORKLOADS[name][seed_key])
    report = workloads.run_call(cfg)
    assert workloads.check_report(cfg, report.body_dict()) == []
