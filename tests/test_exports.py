"""Public names: every export resolves, and so does every betahermite name the
benchmark imports, so a stale export or a broken benchmark contract fails here
rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from betahermite import checks
from betahermite.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "benchmark"
SUBMODULES = ("airy", "checks", "density", "ensemble", "exact", "kontsevich", "moments",
              "quadrature", "tridiag")  # cli exports nothing: it is the command line


@pytest.mark.parametrize("module", ["betahermite", *(f"betahermite.{m}" for m in SUBMODULES)])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _loaded_after(module: str) -> list[str]:
    """The modules in sys.modules after a fresh interpreter imports ``module``."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("layer", ["ensemble", "quadrature"])
def test_numpy_layers_load_no_scipy(layer):
    # the package imports no layer, so a layer loads only what it imports itself
    loaded = _loaded_after(f"betahermite.{layer}")
    assert f"betahermite.{layer}" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_cli_loads_every_layer():
    loaded = _loaded_after("betahermite.cli")
    assert [m for m in SUBMODULES if f"betahermite.{m}" not in loaded] == []


README = (ROOT / "README.md").read_text()
PROSE_MATH = {"sqrt"}  # backticked formulas, not calls of the package


def _readme_commands() -> list[str]:
    """Every `betahermite ...` command of README's sh blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = (line.strip() for b in blocks for line in b.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("betahermite ")]


def test_readme_commands_parse(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert commands
    for command in commands:
        build_parser().parse_args(shlex.split(command)[1:])  # argparse exits on a stale flag
    # and each runs, in order: the `--input` example reads the spectra `sample` wrote
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command


def test_readme_calls_name_package_attributes():
    # a backticked `name(` in README is a function of the package, so a deleted or
    # renamed function cannot outlive its sentence
    modules = [importlib.import_module(m)
               for m in ("betahermite", *(f"betahermite.{m}" for m in (*SUBMODULES, "cli")))]
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", README)) - PROSE_MATH
    assert called
    stale = sorted(name for name in called if not any(hasattr(m, name) for m in modules))
    assert not stale, f"README calls names the package lacks: {stale}"


def _load(path: Path, monkeypatch):
    """Import a benchmark file by path, without putting its directory on sys.path."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _betahermite_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every `from betahermite... import name` in a file, at any depth."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "betahermite"
            for alias in node.names]


@pytest.mark.parametrize("name", ["workloads", "spans"])
def test_benchmark_imports_resolve(name, monkeypatch):
    path = BENCHMARK / f"{name}.py"
    mod = _load(path, monkeypatch)
    imports = _betahermite_imports(path)
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert not missing, f"{path.name} imports names betahermite lacks: {missing}"
    # spans.py wraps the functions of these modules, imported by name
    for layer in getattr(mod, "LAYERS", ()):
        importlib.import_module(f"betahermite.{layer}")
    if name == "workloads":
        assert ("betahermite.tridiag", "sample_spectrum") in imports


def test_count_hooks_read_the_arguments_they_name(monkeypatch):
    # a hook reads an argument by position when it is passed positionally, so the
    # parameter at that position must be the one the hook names
    spans = _load(BENCHMARK / "spans.py", monkeypatch)
    checked = 0
    for span, hook in spans.COUNT_HOOKS.items():
        layer, name = span.split(".")
        fn = getattr(importlib.import_module(f"betahermite.{layer}"), name, None)
        if fn is None:
            continue
        params = list(inspect.signature(fn).parameters)
        tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                pos, want = (ast.literal_eval(arg) for arg in call.args[2:4])
                assert params[pos] == want, f"{span}: position {pos} is {params[pos]}, not {want}"
                checked += 1
    assert checked


def test_only_the_spectrum_modules_name_sample_seed():
    # SampleSeed keys `sample_spectrum`; every other module walks replicates by master seed
    src = ROOT / "src" / "betahermite"
    named = sorted(path.name for path in src.glob("*.py")
                   if re.search(r"\bSampleSeed\b", path.read_text()))
    assert named == ["ensemble.py", "tridiag.py"]


def test_only_replicate_blocks_and_sample_spectrum_call_sample_block():
    # `replicate_blocks` is the one walk over stream blocks; a single replicate is a
    # range of one
    calls = []
    for path in sorted((ROOT / "src" / "betahermite").glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost enclosing function: ast.walk visits outer ones first
        owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        calls += [f"{path.stem}.{owner.get(call, '<module>')}" for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and "sample_block" in
                  (getattr(call.func, "id", None), getattr(call.func, "attr", None))]
    assert calls == ["ensemble.replicate_blocks", "tridiag.sample_spectrum"]


def test_benchmark_check_names_match(monkeypatch):
    # a traced run reports checks.<name>.s from the spans of checks.check_<name>
    spans = _load(BENCHMARK / "spans.py", monkeypatch)
    assert spans.CHECKS == checks.CHECK_NAMES
    for name in checks.CHECK_NAMES:
        assert callable(getattr(checks, f"check_{name.replace('-', '_')}"))


@pytest.mark.parametrize("name", checks.CHECK_NAMES)
def test_run_checks_calls_the_module_attribute(name, monkeypatch):
    # the tracer rebinds module attributes only, so the check table must look
    # check_<name> up when it runs rather than hold the function object
    stub = checks.CheckResult(name, {}, 0.0, 0.0, True)
    monkeypatch.setattr(checks, f"check_{name.replace('-', '_')}", lambda *a, **k: [stub])
    results = checks.run_checks([name])
    assert results and all(r is stub for r in results)


@pytest.mark.parametrize("workload", ["edge-n400", "pipeline-n20", "verify-all"])
def test_workload_outputs_pass_the_benchmark_checks(workload, tmp_path, monkeypatch):
    # each command's output passes the check the benchmark holds it to, so a change
    # that the benchmark would report as incorrect fails here first; verify-all's
    # check wants exactly VERIFY_CHECKS passing entries, so a check added to
    # `verify --check all` breaks the benchmark
    mod = _load(BENCHMARK / "workloads.py", monkeypatch)
    assert mod.VERIFY_CHECKS == 20
    monkeypatch.chdir(tmp_path)
    for cmd in mod.WORKLOADS[workload].commands(0):
        assert main(list(cmd.argv)) == 0
        assert cmd.check(tmp_path, 0) is None


def test_workflow_python_compiles():
    # the CI workflow cannot run offline, so its inline `python3 - <<'EOF'` blocks are
    # at least compiled here, where a syntax error would otherwise wait for CI
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    blocks = re.findall(r"python3 - .*?<<'EOF'\n(.*?)^ *EOF$", text, re.S | re.M)
    assert blocks and len(blocks) == text.count("<<'EOF'")
    for i, block in enumerate(blocks):
        compile(textwrap.dedent(block), f"tier1.yml python block {i}", "exec")
