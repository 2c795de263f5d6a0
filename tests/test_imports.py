"""No module of the package imports or reads another module's private names,
every public function of the package has a caller in the package, some call
in the package passes each of its defaulted parameters, and one module
decides how work spreads over the cores.

A leading underscore marks a name as internal to its module; a name another
module needs is public. Dunder names such as ``__version__`` are public.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aqss"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_names(source):
    """Private names that `source` imports from, or reads off, a package module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("aqss")):
            found += [alias.name for alias in node.names if _private(alias.name)]
            if node.module in (None, "aqss"):  # `from . import linalg` binds a module
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    sample = "from .random import _a, b\nfrom . import linalg\nlinalg._c(linalg.d, x._e)\n"
    assert private_names(sample) == ["_a", "linalg._c"]
    offenders = {path.name: private_names(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert "cli.py" in offenders
    assert not any(offenders.values()), offenders


# Public functions that only the tests call, kept because the acceptance
# criteria import them.
TEST_ONLY = {
    "analysis.check_norm_relation",
    "analysis.check_separable_2eps",
    "linalg.von_neumann_entropy",
    "protocol.exterior_adversary_view",
    "protocol.interior_attack_bob",
}


def uncalled_functions(sources):
    """Public module-level functions of `sources` (module name -> source) whose
    name is read nowhere in the sources outside the function's own body."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if owner is not None and not _private(owner):
                defined.append(f"{module}.{owner}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != owner:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != owner:
                    used.add(node.attr)
    return sorted(name for name in defined if name.split(".")[1] not in used)


def test_every_public_function_has_a_caller_in_the_package():
    sample = {
        "a": "def f(x):\n    return f(x)\n\ndef g():\n    return b.h\n\ndef _p():\n    pass\n",
        "b": "def h():\n    pass\n",
    }
    assert uncalled_functions(sample) == ["a.f", "a.g"]
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert set(uncalled_functions(sources)) == TEST_ONLY


# Defaulted parameters that no call in the package passes: `python -m aqss`
# and the console script call main() and let it read sys.argv.
UNPASSED_DEFAULTS = {"cli.main(argv)"}


def unpassed_defaults(sources):
    """Defaulted parameters `module.function(parameter)` of the public
    module-level functions of `sources` that no call in the sources passes,
    by keyword or by position. A call is matched by the function's name."""
    defaulted, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _private(top.name):
                args = top.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted += [
                    (module, top.name, p.arg, i) for i, p in enumerate(positional) if i >= first
                ]
                defaulted += [
                    (module, top.name, p.arg, None)
                    for p, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(call, parameter, position):
        return any(k.arg in (parameter, None) for k in call.keywords) or (  # None: **kwargs
            position is not None
            and (position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))
        )

    return sorted(
        f"{module}.{function}({parameter})"
        for module, function, parameter, position in defaulted
        if not any(passed(call, parameter, position) for call in calls.get(function, []))
    )


def test_every_defaulted_parameter_is_passed_by_a_call_in_the_package():
    sample = {
        "a": "def f(x, y=1, *, z=2):\n    pass\n\ndef g(u=0, v=0):\n    pass\n\n"
             "def _p(w=0):\n    pass\n",
        "b": "f(0)\nf(0, z=3)\ng(1)\n",
    }
    assert unpassed_defaults(sample) == ["a.f(y)", "a.g(v)"]
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert set(unpassed_defaults(sources)) == UNPASSED_DEFAULTS


# How seeded work spreads over the cores is one decision, made in random.py:
# it alone forks, reads the core affinity or starts threads.
SPREADING = {("os", "fork"), ("os", "sched_getaffinity"), ("threading", "Thread")}


def spreading_names(source):
    """`module.name` for each name of SPREADING that `source` reads off its
    module or imports from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pairs = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom):
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        found += [f"{module}.{name}" for module, name in pairs if (module, name) in SPREADING]
    return sorted(found)


def test_only_random_spreads_work_over_the_cores():
    sample = "import os\nfrom threading import Thread\nos.fork()\nos.getpid()\nx.os.fork()\n"
    assert spreading_names(sample) == ["os.fork", "threading.Thread"]
    names = {path.name: spreading_names(path.read_text()) for path in PACKAGE.glob("*.py")}
    held = set(names.pop("random.py"))
    assert not any(names.values()), names
    assert held == {f"{module}.{name}" for module, name in SPREADING}


def test_the_cli_imports_no_thread_pool_module():
    # concurrent.futures and queue cost about 0.45 MiB of resident memory on
    # every run; the sampler's threads use threading alone.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, aqss.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "aqss.cli" in loaded
    assert not {"concurrent.futures", "queue"} & set(loaded)
