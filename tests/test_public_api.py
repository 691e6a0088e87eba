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


# one thinned 1-D solve through the names the benchmark's tracer wraps
TRACED_SOLVE = """
import json, tracing
from nsuq import experiments
from nsuq.mesh import GridSpec
from nsuq.physics import DataRecord, ForcingSpec, FourierField, FourierMode
from nsuq.solver import SchemeConfig

tracer = tracing.Tracer("t")
tracing.install(tracer)
data = DataRecord(rho0=FourierField(1, 1.0, 1.0, (FourierMode((1,), "sin", 0.1),)),
                  u0=(FourierField(1, 1.0, 0.0, (FourierMode((1,), "cos", 0.05),)),),
                  mu=0.03, eta=0.0, a=1.0, gamma=2.0, g=ForcingSpec.zero(1))
report = experiments.solve(data, GridSpec(1, 16), SchemeConfig(T=0.1), keep=[[0.05, 0.05]])
print(json.dumps({"spans": [[sp[1], sp[5]] for sp in tracer.spans], "steps": report.steps,
                  "energies": len(report.energy_history),
                  "states": len(report.trajectory.states)}))
"""


def test_benchmark_tracer_installs():
    # the tracer wraps names by getattr; in a subprocess, so no wrapper leaks into this one
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SOLVE],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # the spans the per-layer metrics count, read off the names and attributes they wrap
    out = json.loads(proc.stdout)
    names = [name for name, _ in out["spans"]]
    assert names.count("solver.step") == names.count("solver.cfl_dt") == out["steps"] > 0
    assert names.count("physics.total_energy") == out["energies"] == out["steps"] + 1
    (attrs,) = [attrs for name, attrs in out["spans"] if name == "solver.solve"]
    assert 2 <= out["states"] < out["steps"] + 1  # a thinned trajectory
    # a kept state holds 16 densities and 16 velocities in float64
    assert attrs == {"status": "completed", "states": out["states"],
                     "bytes": out["states"] * 2 * 16 * 8}


def test_benchmark_configs_load():
    # every config the benchmark generates passes the strict (unknown-key) readers, stays
    # 10 times below the latent dimension's ceiling, and hashes as OpenSSL's SHA-256 does
    import hashlib

    from nsuq.experiments import MAX_LATENT_DIM, ExperimentConfig

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
                assert 10 * cfg.distribution.K <= MAX_LATENT_DIM
                hashed = {k: v for k, v in cfg.to_dict().items() if k != "threads"}
                assert cfg.config_hash() == hashlib.sha256(
                    json.dumps(hashed, sort_keys=True).encode()).hexdigest()


def _tracer_wrapped_names() -> set:
    """(module, name) pairs that perfbench/tracing.py's `install` wraps on an nsuq module."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (install,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install"]
    modules = {a.asname or a.name for n in ast.walk(install)
               if isinstance(n, ast.ImportFrom) and n.module == "nsuq" for a in n.names}
    return {(call.args[0].id, call.args[1].value) for call in ast.walk(install)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "wrap"
            and isinstance(call.args[0], ast.Name) and call.args[0].id in modules}


def test_module_imports_are_read():
    # a module-level import is read in its module, re-exported through __all__,
    # or a name the benchmark's tracer wraps on that module; anything else is dead
    wrapped = _tracer_wrapped_names()
    unread = []
    for path in sorted((ROOT / "src" / "nsuq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded | exported and (path.stem, name) not in wrapped:
                        unread.append(f"{path.name}: {name}")
    assert not unread, unread


# each module imports only modules before it: a layer never reads one above it
LAYERS = ["mesh", "physics", "random_data", "solver", "stats", "experiments", "cli"]


def test_modules_import_only_lower_layers():
    # every `from .x import`, at module level or inside a function; `from . import`
    # (the package itself: its version, or __init__ gathering the layers) is exempt
    src = ROOT / "src" / "nsuq"
    assert sorted(LAYERS) == sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    upward = []
    for name in LAYERS:
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                if LAYERS.index(node.module.split(".")[0]) >= LAYERS.index(name):
                    upward.append(f"{name} -> {node.module}")
    assert not upward, upward
