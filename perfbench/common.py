"""Helpers shared by the benchmark scripts: import the package from the
checkout's own source tree and call its CLI in-process."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURE_DIR = os.path.join(BENCH_DIR, "fixture")
BASELINE_DIR = os.path.join(BENCH_DIR, "baseline", "retinapipe")
BASELINE_NAME = "retinapipe_baseline"


class BenchError(Exception):
    """Set-up cannot go on: missing source tree, fixture mismatch, failed input."""


def import_package():
    """Import retinapipe from <checkout>/src and nowhere else."""
    pkg_dir = os.path.join(SRC, "retinapipe")
    if not os.path.isfile(os.path.join(pkg_dir, "cli.py")):
        raise BenchError(f"no package source at {pkg_dir}")
    sys.path.insert(0, SRC)
    import retinapipe
    import retinapipe.cli

    if os.path.dirname(os.path.abspath(retinapipe.__file__)) != pkg_dir:
        raise BenchError(f"retinapipe imported from {retinapipe.__file__}, not {pkg_dir}")
    return retinapipe


def import_baseline():
    """Import the frozen copy of the package in perfbench/baseline as
    `retinapipe_baseline`; its imports are relative, so it stays apart from
    the package under test."""
    spec = importlib.util.spec_from_file_location(
        BASELINE_NAME, os.path.join(BASELINE_DIR, "__init__.py"),
        submodule_search_locations=[BASELINE_DIR])
    if spec is None or not os.path.isfile(os.path.join(BASELINE_DIR, "cli.py")):
        raise BenchError(f"no baseline package at {BASELINE_DIR}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE_NAME] = module
    spec.loader.exec_module(module)
    importlib.import_module(BASELINE_NAME + ".cli")
    return module


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def run_cli(main, argv: list[str]) -> tuple[int, float, str, str]:
    """Call the CLI entry point with its output captured.

    Returns (exit code, wall seconds, stdout, stderr). Only the call itself
    is timed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue(), err.getvalue()
