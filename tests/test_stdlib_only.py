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


def test_large_x_route_loads_only_past_x_100():
    # large_x compiles at its first use, not at import: compiling it with the
    # package raised the benchmark's setup time by 6-12%.  Nothing up to
    # x = 100, the default grid's largest x, loads it, neither F and G nor
    # the L and I kernels in any form; F past x = 100 does
    code = (
        "import sys\n"
        "import struveint\n"
        "from struveint import harness, integrals, specfun\n"
        "struveint.list_bounds()\n"
        "for fn in (struveint.F, struveint.G, integrals.fg_log):\n"
        "    fn(1.0, 0.5, 100.0)\n"
        "for fn in (specfun.struve_l_scaled_log, specfun.struve_l_scaled, specfun.struve_l,\n"
        "           specfun.bessel_i_scaled_log, specfun.bessel_i_scaled, specfun.bessel_i):\n"
        "    fn(1.0, 100.0)\n"
        "harness.verify_all(harness.GridSpec((0.5, 2.0), (0.5,), (1.0, 100.0)))\n"
        "print('struveint.large_x' in sys.modules)\n"
        "struveint.F(1.0, 0.5, 150.0)\n"
        "print('struveint.large_x' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_fg_log_from_threads_before_large_x_loads():
    # fg_log itself from four threads in a fresh process: its argument
    # checks, the shared run cache and the first import of large_x (x = 300
    # is past the gate) all run concurrently, and the logs equal serial
    # calls' bit for bit
    code = (
        "import sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from struveint import integrals\n"
        "sys.setswitchinterval(1e-6)\n"
        "betas = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)\n"
        "points = [(nu, b, x) for nu in (-0.5, 2.5) for x in (5.0, 300.0) for b in betas]\n"
        "print('struveint.large_x' in sys.modules)\n"
        "with ThreadPoolExecutor(max_workers=4) as pool:\n"
        "    threaded = list(pool.map(lambda p: integrals.fg_log(*p), points))\n"
        "integrals._run.cache_clear()\n"
        "serial = [integrals.fg_log(*p) for p in points]\n"
        "print(len(points), repr(threaded) == repr(serial))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "28", "True"]
