"""The tracer sees calls made inside the package, and run.py refuses to run
without qprog's sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qprog import characters, cli, field, operators
from tracer import METRIC_UNITS, Tracer

HERE = Path(__file__).resolve().parent.parent


@pytest.fixture
def traced(tmp_path):
    def run(*argv):
        field.get_field.cache_clear()
        tracer = Tracer()
        tracer.install()
        try:
            tracer.begin_op()
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0
            tracer.end_op()
        finally:
            tracer.uninstall()
        return tracer
    return run


def test_calls_through_names_imported_by_other_modules_are_traced(traced):
    before = (characters.fourier, operators.fourier, field.FieldCtx.add_vec)
    tracer = traced("verify", "operators", "--p", "5", "--trials", "2")
    assert (characters.fourier, operators.fourier, field.FieldCtx.add_vec) == before
    assert tracer.calls("characters.fourier") > 0  # operators imports fourier by name
    assert tracer.calls("cli.main") == 1
    m = tracer.metrics()
    assert set(m) == set(METRIC_UNITS)
    assert m["operators.deviation_norm_s"] > 0 and m["field.vec_calls"] > 0
    assert m["field.builds_per_field"] >= 1


def test_self_times_add_up_to_the_root_spans(traced, tmp_path):
    tracer = traced("verify", "constructions", "--p", "3")
    assert tracer.calls("constructions.enumerate_planes") >= 13  # one span per plane
    tracer.write(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert np.all(end >= start)
    inner = parent >= 0
    assert np.all(start[parent[inner]] <= start[inner]) and np.all(end[inner] <= end[parent[inner]])
    roots = float((end - start)[~inner].sum())
    selfs = sum(v for k, v in tracer.metrics().items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(roots, rel=1e-9)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slices-mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
