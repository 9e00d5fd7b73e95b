"""What the serving processes import, pinned.

The server runs two routes (the generated search and Yannakakis); the
fleet router only speaks the wire protocol.  Package ``__init__``s
re-export lazily, so each process loads only what its modules import.
The allow-lists below make any new import on a serving path a reviewed
diff instead of a silent term in the benchmark (import set and resident
memory both move the measured server).
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SERVER_MODULES = [
    "repro",
    "repro.engine",
    "repro.engine.analysis",
    "repro.engine.cache",
    "repro.engine.engine",
    "repro.engine.plan",
    "repro.engine.planner",
    "repro.errors",
    "repro.evaluation",
    "repro.evaluation.counting",
    "repro.evaluation.instantiation",
    "repro.evaluation.naive",
    "repro.evaluation.yannakakis",
    "repro.hypergraph",
    "repro.hypergraph.gyo",
    "repro.hypergraph.hypergraph",
    "repro.hypergraph.join_tree",
    "repro.operations",
    "repro.parallel",
    "repro.parallel.batch",
    "repro.parallel.pool",
    "repro.protocol",
    "repro.protocol.codec",
    "repro.protocol.connection",
    "repro.protocol.frames",
    "repro.protocol.messages",
    "repro.protocol.server",
    "repro.query",
    "repro.query.atoms",
    "repro.query.conjunctive",
    "repro.query.datalog",
    "repro.query.parser",
    "repro.query.terms",
    "repro.relational",
    "repro.relational.attributes",
    "repro.relational.database",
    "repro.relational.io",
    "repro.relational.joins",
    "repro.relational.relation",
    "repro.relational.schema",
    "repro.resilience",
    "repro.resilience.faults",
    "repro.resilience.token",
    "repro.service",
    "repro.service.fairness",
    "repro.service.service",
    "repro.telemetry",
]

ROUTER_MODULES = [
    "repro",
    "repro.errors",
    "repro.fleet",
    "repro.fleet.router",
    "repro.fleet.supervisor",
    "repro.operations",
    "repro.protocol",
    "repro.protocol.client",
    "repro.protocol.codec",
    "repro.protocol.connection",
    "repro.protocol.frames",
    "repro.protocol.messages",
    "repro.relational",
    "repro.relational.attributes",
    "repro.relational.relation",
    "repro.resilience",
    "repro.resilience.faults",
    "repro.resilience.policy",
]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("repro.protocol.server", SERVER_MODULES),
        ("repro.fleet.router", ROUTER_MODULES),
    ],
)
def test_served_import_set_is_the_allow_list(module, allowed):
    script = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps([\n"
        "    sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')),\n"
        "    'sqlite3' in sys.modules,\n"
        "]))\n"
    )
    completed = _python("-c", script)
    assert completed.returncode == 0, completed.stderr
    loaded, sqlite_loaded = json.loads(completed.stdout)
    assert loaded == allowed
    assert not sqlite_loaded


def test_server_module_runs_once_under_dash_m():
    """``python -m repro.protocol.server`` executes ``server.py`` once:
    had the package imported it first, runpy would run it a second time
    as ``__main__`` and warn."""
    completed = _python(
        "-W", "error::RuntimeWarning", "-m", "repro.protocol.server", "--help"
    )
    assert completed.returncode == 0, completed.stderr
