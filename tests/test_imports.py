"""Import hygiene: loading the package does not load numpy, and no module
imports a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_package_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, gtpsim.cli, gtpsim.scenario; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def unused_imports(source: str):
    """Names bound by an import in `source` that no ast.Name refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("import os, sys\nfrom a.b import c as d\nsys.exit(d)") == ["os"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "gtpsim").glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


YAML_LOADS = {"load", "safe_load", "full_load", "unsafe_load",
              "load_all", "safe_load_all", "full_load_all", "unsafe_load_all"}


def yaml_load_callers(source: str):
    """Names of the functions in `source` that call yaml.<a load function>;
    a call outside any function is reported as "<module>"."""
    callers = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in YAML_LOADS
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "yaml"):
            callers.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return callers


def test_yaml_load_callers_finds_every_call():
    source = "import yaml\nyaml.safe_load('')\ndef f():\n    return yaml.load('', Loader=L)\n"
    assert yaml_load_callers(source) == ["<module>", "f"]


def test_only_the_scenario_helper_parses_yaml():
    found = {
        path.name: yaml_load_callers(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "gtpsim").glob("*.py"))
    }
    assert {name: callers for name, callers in found.items() if callers} == \
        {"scenario.py": ["load_yaml"]}
