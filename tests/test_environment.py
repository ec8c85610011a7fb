"""The package's environment surface: one variable, read in one place.

Observability, retries and fault injection are switched on by the code
that builds a run (``obs.enable``, ``set_retries``, ``PoolConfig.chaos``).
The only environment variable ``src/repro`` reads is
``REPRO_NO_COMPILE``, which starts a process on the classad interpreter.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
PACKAGE = os.path.join(SRC, "repro")


def environment_reads(tree):
    """The key of every ``os.environ`` / ``os.getenv`` access in *tree*;
    an access whose key is not a string constant is its source text."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads.extend(f"from os import {alias.name}" for alias in node.names)
            continue
        if not (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            continue
        site = parent = parents[node]
        key = None
        if isinstance(parent, ast.Call) and parent.func is node and parent.args:
            key = parent.args[0]  # os.getenv(KEY)
        elif isinstance(parent, ast.Subscript):
            key = parent.slice  # os.environ[KEY]
        elif isinstance(parent, ast.Attribute) and parent.attr == "get":
            site = parents[parent]
            if isinstance(site, ast.Call) and site.func is parent and site.args:
                key = site.args[0]  # os.environ.get(KEY, ...)
        elif isinstance(parent, ast.Compare) and parent.comparators == [node]:
            key = parent.left  # KEY in os.environ
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            reads.append(key.value)
        else:
            reads.append(ast.unparse(site))
    return reads


def test_only_repro_no_compile_is_read():
    reads = {}
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                for key in environment_reads(tree):
                    reads.setdefault(key, []).append(os.path.relpath(path, SRC))
    assert set(reads) == {"REPRO_NO_COMPILE"}, reads


def test_the_walk_sees_every_access_form():
    tree = ast.parse(
        "import os as o\n"
        "o.environ.get('A', '')\n"
        "o.environ['B']\n"
        "o.getenv('C')\n"
        "'D' in o.environ\n"
        "o.environ.get(name)\n"
        "o.environ.items()\n"
    )
    assert sorted(environment_reads(tree)) == [
        "A",
        "B",
        "C",
        "D",
        "o.environ.get(name)",
        "o.environ.items",
    ]


def test_removed_switches_are_inert_at_import():
    code = (
        "from repro import obs\n"
        "from repro.protocols import retries_enabled\n"
        "print([obs.metrics.enabled, obs.event_log.enabled,"
        " obs.causal_log.enabled, obs.series.enabled, retries_enabled()])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    for name in ("REPRO_OBS", "REPRO_OBS_EVENTS", "REPRO_OBS_CAUSAL", "REPRO_OBS_SERIES"):
        env[name] = "1"
    env["REPRO_NO_RETRY"] = "1"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False, False, False, True]"
