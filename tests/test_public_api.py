import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = ["mesh", "physics", "solver", "random_data", "stats", "experiments"]
ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nsuq.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"nsuq.{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from nsuq.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_demo_imports_resolve():
    # the demos are parsed, not run: a name deleted from a module fails here
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nsuq."):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
    assert not missing, missing


def test_benchmark_tracer_installs():
    # the tracer wraps names by getattr; in a subprocess, so no wrapper leaks into this one
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer('t'))"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_configs_load():
    # every config the benchmark generates passes the strict (unknown-key) readers
    from nsuq.experiments import ExperimentConfig

    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            for shrink in (False, True):
                doc = json.loads(json.dumps(workloads.build_config(name, seed, shrink)))
                cfg = ExperimentConfig.from_dict(doc)
                assert json.loads(json.dumps(cfg.to_dict()))["ladder"] == doc["ladder"]
