import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "struveint"


def test_package_imports_only_the_standard_library():
    # struveint stays stdlib-only: every absolute import names a standard
    # library module (relative imports stay inside the package)
    outside = []
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh process pays for every module `import struveint` pulls in;
    # dataclasses and the inspect chain behind it took about 10 ms
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import struveint\n"
        "struveint.list_bounds()\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_compile_time_script_covers_every_module_import_loads():
    # scripts/compile_time.py reports, last, the total over the modules that
    # `import struveint` loads, one median per module before it
    script = PACKAGE.parents[1] / "scripts" / "compile_time.py"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, str(script), "2"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *modules, summary = proc.stdout.splitlines()
    names = [line.split()[0] for line in modules]
    assert "struveint.integrals" in names and "struveint.bounds" in names
    assert summary.startswith("compile ") and summary.endswith(
        f"over the {len(names)} modules import struveint loads"
    )
