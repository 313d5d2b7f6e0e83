"""Tests of the repository benchmark: a tiny pass of every workload.

Each workload runs for one second on graphs scaled down 16x, untraced and
traced.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run as bench  # noqa: E402
from perfbench.tracing import MARKER, LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 0.0625


@pytest.fixture(scope="module", autouse=True)
def _tiny_env():
    """``bootstrap`` edits the process environment; undo it afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        for key in ("REPRO_DATASET_SCALE", "REPRO_STORE_DIR", "TMPDIR"):
            mp.delenv(key, raising=False)
        bench.bootstrap(TINY)
        yield


def patch_targets() -> dict[tuple[int, str], object]:
    """The object currently bound at every seam the tracer wraps."""
    return {
        (id(owner), attr): vars(owner)[attr]
        for owner, attr, _ in LayerTracer()._targets()
    }


def leftover_wrappers() -> list[str]:
    """Tracer wrappers still bound anywhere in a loaded ``repro`` module."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        owners = [mod] + [
            v for v in vars(mod).values()
            if inspect.isclass(v) and v.__module__ == name
        ]
        for owner in owners:
            for attr, val in vars(owner).items():
                if inspect.isfunction(val) and hasattr(val, MARKER):
                    found.append(f"{name}.{getattr(owner, '__name__', '')}.{attr}")
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload: str, trace: int) -> None:
    before = patch_targets()
    args = bench.parse_args([
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", str(TINY),
    ])
    doc = bench.run(args)

    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in doc["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    # failed_frac is failed / attempted: every op's output was checked.
    assert doc["attempted"] >= 1
    assert doc["failed"] / doc["attempted"] == 0
    assert doc["correct"] is True
    # The traced run restored every wrapper it installed.
    assert patch_targets() == before
    assert leftover_wrappers() == []


def test_traced_layers_attribute_the_op() -> None:
    args = bench.parse_args([
        "--workload", "warm", "--seed", "4", "--seconds", "1",
        "--trace", "1", "--scale", str(TINY),
    ])
    metrics = {k: v["value"] for k, v in bench.run(args)["metrics"].items()}
    assert metrics["preprocess.calls"] == 0  # warm ops bypass preprocessing
    assert metrics["store.hit_ratio"] == 1.0
    assert metrics["kernels.calls"] > 0 and metrics["blocks.exchange_calls"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.05


def test_patched_restores_after_an_error() -> None:
    before = patch_targets()
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert patch_targets() != before
            raise RuntimeError("boom")
    assert patch_targets() == before


def test_self_time_excludes_children() -> None:
    tracer = LayerTracer()

    def spin(n: int) -> int:
        return sum(i * i for i in range(n))

    inner = tracer._wrap(spin, "hashing.inner", "hashing")
    outer = tracer._wrap(lambda: inner(200_000) + spin(200_000),
                         "kernels.outer", "kernels")
    outer()
    spans = {s.name: s for s in tracer.spans}
    selfs = tracer.self_times(tracer.spans)
    assert spans["hashing.inner"].parent == spans["kernels.outer"].sid
    assert selfs[spans["kernels.outer"].sid] == pytest.approx(
        spans["kernels.outer"].cpu_s - spans["hashing.inner"].cpu_s
    )
    assert tracer.attributed_s() == pytest.approx(spans["kernels.outer"].cpu_s)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def session_processes(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
            cmdline = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        if int(text.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(cmdline.replace(b"\0", b" ").decode(errors="replace"))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_behind() -> None:
    """The pool workers and the shared-memory resource tracker of the
    parallel workload have all ended when the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "parallel",
         "--seed", "3", "--seconds", "1", "--trace", "0",
         "--scale", str(TINY)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert session_processes(proc.pid) == []
