"""The benchmark tracer (perfbench/spans.py) wraps library names by string.

Renaming or removing one of them must fail here, in the test suite, rather
than only in a traced benchmark run (`perfbench/run.py --trace 1`).
"""
import importlib.util
from pathlib import Path

import pytest

from mfbm import cli, decomposition, gaussian_paths, kernel_solve, outputs, regularity
from mfbm.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PATCHED = (cli, decomposition, gaussian_paths, kernel_solve, outputs, regularity, kernel_solve.SweepSolver)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_enters_and_restores(spans):
    before = [dict(vars(owner)) for owner in PATCHED]
    with spans.instrument(spans.Tracer()):
        pass
    for owner, names in zip(PATCHED, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[name] is value for name, value in names.items()), owner


def test_traced_cli_runs(spans, tmp_path):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert main(["solve-kernel", "--kind", "L", "--H", "0.85", "--s", "0.5", "--n", "64",
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["decompose", "--H", "0.85", "--n", "64", "--out-dir", str(tmp_path)]) == 0
    kinds = {span.kind for span in tracer.spans}
    assert {"kernel_solve.sweep", "decomposition.decompose", "outputs.write"} <= kinds
    assert tracer.residual_samples
    assert tracer.max_rel_residual() <= 1e-10
    # the bound audit reaches the solver through the wrapped sweeps too
    audit = spans.Tracer()
    with spans.instrument(audit):
        assert main(["audit-bounds", "--H", "0.85", "--n-sweep", "64,128", "--out-dir", str(tmp_path)]) == 0
    assert "kernel_solve.sweep" in {span.kind for span in audit.spans}
    assert audit.residual_samples
    assert audit.max_rel_residual() <= 1e-10
