"""What a fresh interpreter loads and starts: module sets, not times.

``import repro`` loads no submodule, and the ``repro serve`` lookups
that most service calls are (a cache hit, ``serve stats``) load none of
the execution stack: the façade, the search runner, the engine, the
annealers, the baselines, the experiments and the analysis modules.
Each check runs a new interpreter on this tree's source, so an import
added anywhere on those paths fails here by module name.
"""

import os
import platform
import subprocess
import sys

import repro
from repro.cli import main
from repro.service.service import ExplorationService

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules, and packages with everything under them, that a lookup
#: must not load.
EXECUTION_STACK = (
    "repro.api.facade", "repro.search", "repro.mapping.engine", "repro.sa",
    "repro.baselines", "repro.experiments", "repro.analysis",
)

CLI = (
    "import sys\n"
    "from repro.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
)


def fresh(code, *argv):
    """Run ``code`` in a new interpreter; ``(its output lines, the
    repro modules it loaded)``."""
    code += (
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SOURCE, path)))
    )
    lines = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return lines[:-1], lines[-1].split()


def execution_modules(modules):
    return [
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in EXECUTION_STACK)
    ]


def test_import_repro_loads_no_submodule():
    assert fresh("import repro\n")[1] == ["repro"]


def test_serve_hit_and_stats_load_no_execution_stack(tmp_path):
    store = str(tmp_path / "store")
    submit = ["serve", "submit", "--store", store, "--iterations", "60",
              "--warmup", "20", "--seed", "1"]
    assert main(submit) == 0
    assert ExplorationService(store).run_local() == 1
    output, modules = fresh(CLI, *submit)
    assert output[0].startswith("hit: ")
    assert "repro.service.service" in modules
    assert execution_modules(modules) == []
    output, modules = fresh(CLI, "serve", "stats", "--store", store)
    assert output[1].startswith("records: 1 ")
    assert execution_modules(modules) == []


def test_environment_stamp_starts_no_child_process():
    code = (
        "import subprocess\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('a child process was started')\n"
        "subprocess.Popen = refuse\n"
        "from repro.api.specs import environment_stamp\n"
        "print(environment_stamp()['platform'])\n"
    )
    output, _ = fresh(code)
    if not platform.processor():  # platform.platform() omits it too
        assert output == [platform.platform()]
