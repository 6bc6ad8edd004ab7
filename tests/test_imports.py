"""What a CLI process imports, and the package's lazy exports."""

import importlib
import subprocess
import sys

import pytest

import chronopath

# Loaded by no CLI start-up and by no count-optimal run: generated-code
# machinery, hashing, and the parts of the package those jobs do not run.
NOT_AT_STARTUP = {
    "dataclasses",
    "hashlib",
    "chronopath.colourcount",
    "chronopath.sampling",
    "chronopath.maxbetweenness",
    "chronopath.generate",
    "chronopath.rng",
}


def _imported(args, stdin=""):
    """Modules a ``python -X importtime`` process imports, from its report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin.encode(),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.decode().splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_cli_startup_imports_only_what_it_runs():
    bare = _imported(["-c", "pass"])
    version = _imported(["-m", "chronopath.cli", "--version"]) - bare
    count_optimal = _imported(
        ["-m", "chronopath.cli", "count-optimal", "-s", "0", "-z", "2", "--star", "foremost"],
        "0 1 1\n1 2 2\n0 2 3\n",
    ) - bare
    assert "chronopath.dispatch" in version and "chronopath.reductions" in count_optimal
    assert not version & NOT_AT_STARTUP, sorted(version & NOT_AT_STARTUP)
    assert not count_optimal & NOT_AT_STARTUP, sorted(count_optimal & NOT_AT_STARTUP)


ENGINES = {f"chronopath.{name}" for name in ("forest", "vimw", "fen", "tfvs", "chordal", "oracle")}


def test_version_loads_no_engine():
    version = _imported(["-m", "chronopath.cli", "--version"])
    assert not version & ENGINES, sorted(version & ENGINES)


def test_vimw_routed_run_loads_no_other_engine():
    # I5 (a triangle) has width 3, so auto runs vimw; a cut that is a forest
    # may also run the forest DP.
    vimw_routed = _imported(
        ["-m", "chronopath.cli", "count-optimal", "-s", "0", "-z", "2", "--star", "foremost"],
        "0 1 1\n1 2 2\n0 2 3\n",
    )
    assert "chronopath.vimw" in vimw_routed
    unused = vimw_routed & (ENGINES - {"chronopath.vimw", "chronopath.forest"})
    assert not unused, sorted(unused)


def test_lazy_exports():
    for name in chronopath.__all__:
        module = importlib.import_module(f"chronopath.{chronopath._EXPORTS[name]}")
        assert getattr(chronopath, name) is getattr(module, name), name
    assert set(chronopath.__all__) <= set(dir(chronopath))
    namespace = {}
    exec("from chronopath import *", namespace)
    assert set(chronopath.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        chronopath.no_such_name
