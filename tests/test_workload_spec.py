"""Tests for the declarative workload-spec DSL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import SystemConfig
from repro.cuda import Machine, run_app
from repro.workloads import SpecError, WorkloadSpec

MiB = units.MiB

VALID_SPEC = {
    "name": "demo",
    "ops": [
        {"op": "malloc", "name": "A", "bytes": 4 * MiB},
        {"op": "host_alloc", "name": "hA", "bytes": 4 * MiB},
        {"op": "memcpy", "dst": "A", "src": "hA"},
        {
            "op": "loop",
            "count": 5,
            "body": [
                {"op": "launch", "kernel": "k", "duration_us": 50},
                {"op": "sync"},
            ],
        },
        {"op": "memcpy", "dst": "hA", "src": "A", "bytes": MiB},
        {"op": "free", "name": "A"},
        {"op": "free", "name": "hA"},
    ],
}


def _spec(**overrides):
    payload = {**VALID_SPEC, **overrides}
    return WorkloadSpec(payload["name"], payload["ops"])


def test_valid_spec_runs_and_traces():
    spec = _spec()
    trace, _ = run_app(spec.app(), SystemConfig.base())
    assert len(trace.launches()) == 5
    assert len(trace.memcpys()) == 2
    assert spec.total_launches() == 5


def test_spec_runs_under_cc_slower():
    spec = _spec()
    base, _ = run_app(spec.app(), SystemConfig.base())
    cc, _ = run_app(spec.app(), SystemConfig.confidential())
    assert cc.span_ns() > base.span_ns()


def test_spec_json_roundtrip():
    spec = _spec()
    clone = WorkloadSpec.from_json(spec.to_json())
    assert clone.name == spec.name
    assert clone.ops == spec.ops


def test_spec_load_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(_spec().to_json())
    loaded = WorkloadSpec.load(str(path))
    assert loaded.total_launches() == 5


def test_managed_touches_fault():
    spec = WorkloadSpec(
        "uvm-demo",
        [
            {"op": "malloc_managed", "name": "M", "bytes": 4 * MiB},
            {
                "op": "launch",
                "kernel": "k",
                "duration_us": 20,
                "touches": [["M", 4 * MiB]],
            },
            {"op": "sync"},
        ],
    )
    trace, _ = run_app(spec.app(), SystemConfig.base())
    assert trace.kernels()[0].attrs["faulted_pages"] > 0


def test_roofline_launch_form():
    spec = WorkloadSpec(
        "roofline",
        [
            {"op": "launch", "kernel": "gemm", "flops": 2e9, "mem_bytes": 1000000},
            {"op": "sync"},
        ],
    )
    trace, _ = run_app(spec.app(), SystemConfig.base())
    # 2 GFLOP at 27 TFLOP/s effective is ~74 us.
    assert units.to_us(trace.kernels()[0].duration_ns) > 50


def test_leaked_buffers_auto_freed():
    spec = WorkloadSpec(
        "leaky",
        [
            {"op": "malloc", "name": "A", "bytes": MiB},
            {"op": "launch", "kernel": "k", "duration_us": 5},
            {"op": "sync"},
        ],
    )
    machine = Machine(SystemConfig.base())
    machine.run(spec.app())
    assert machine.gpu.hbm.used_bytes == 0


@pytest.mark.parametrize(
    "bad_ops,match",
    [
        ([{"op": "warp"}], "unknown op"),
        ([{"nop": 1}], "dict with an 'op' key"),
        ([{"op": "malloc", "name": "A"}], "needs 'name' and int 'bytes'"),
        ([{"op": "malloc", "name": "A", "bytes": 0}], "positive"),
        ([{"op": "memcpy", "dst": "A", "src": "B"}], "not allocated"),
        ([{"op": "launch", "kernel": "k"}], "duration_us or flops"),
        ([{"op": "launch"}], "needs a 'kernel'"),
        ([{"op": "cpu", "us": -1}], "non-negative"),
        ([{"op": "loop", "count": -1, "body": []}], "non-negative int"),
        ([{"op": "free", "name": "X"}], "unknown buffer"),
        (
            [
                {"op": "malloc_managed", "name": "M", "bytes": 1024},
                {"op": "launch", "kernel": "k", "duration_us": 1,
                 "touches": [["X", 10]]},
            ],
            "touches entries",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "launch", "kernel": "k", "duration_us": 1,
                 "touches": [["A", 1024]]},
            ],
            "touches entries",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "free", "name": "A"},
                {"op": "free", "name": "A"},
            ],
            r"ops\[2\]: free of unknown buffer 'A'",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "host_alloc", "name": "hA", "bytes": 1024},
                {"op": "free", "name": "A"},
                {"op": "memcpy", "dst": "hA", "src": "A"},
            ],
            r"ops\[3\]: memcpy src 'A' not allocated",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "loop", "count": 2, "body": [{"op": "free", "name": "A"}]},
            ],
            r"ops\[1\]\.body\[0\]: free of unknown buffer",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "loop", "count": 3,
                 "body": [{"op": "malloc", "name": "A", "bytes": 1024}]},
            ],
            r"ops\[1\]\.body\[0\]: malloc of live buffer 'A'",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "host_alloc", "name": "hA", "bytes": 1024},
                {"op": "memcpy", "dst": "A", "src": "hA", "bytes": "big"},
            ],
            r"ops\[2\]: memcpy bytes must be a positive int",
        ),
        (
            [
                {"op": "malloc", "name": "A", "bytes": 1024},
                {"op": "host_alloc", "name": "hA", "bytes": 4096},
                {"op": "memcpy", "dst": "hA", "src": "A", "bytes": 2048},
            ],
            r"ops\[2\]: memcpy bytes exceed a buffer",
        ),
        (
            [{"op": "launch", "kernel": "k", "flops": -1e9}],
            r"ops\[0\]: launch flops must be non-negative",
        ),
        (
            [{"op": "launch", "kernel": "k", "mem_bytes": "1MB"}],
            r"ops\[0\]: launch mem_bytes must be non-negative",
        ),
        (
            [{"op": "launch", "kernel": "k", "flops": 1e9, "module_pages": 0}],
            r"ops\[0\]: launch module_pages must be a positive int",
        ),
    ],
)
def test_validation_errors(bad_ops, match):
    with pytest.raises(SpecError, match=match):
        WorkloadSpec("bad", bad_ops)


def test_loop_that_frees_and_reallocates_is_valid():
    spec = WorkloadSpec(
        "realloc",
        [
            {"op": "malloc", "name": "A", "bytes": MiB},
            {
                "op": "loop",
                "count": 3,
                "body": [
                    {"op": "free", "name": "A"},
                    {"op": "malloc", "name": "A", "bytes": MiB},
                ],
            },
            {"op": "loop", "count": 0, "body": [{"op": "free", "name": "A"}]},
            {"op": "free", "name": "A"},
        ],
    )
    machine = Machine(SystemConfig.base())
    machine.run(spec.app())
    assert machine.gpu.hbm.used_bytes == 0


def test_module_pages_sets_the_first_launch_page_count():
    spec = WorkloadSpec(
        "fat-module",
        [
            {"op": "launch", "kernel": "k", "flops": 1e6, "mem_bytes": 1000,
             "module_pages": 200},
            {"op": "sync"},
        ],
    )
    machine = Machine(SystemConfig.confidential())
    machine.run(spec.app())
    pages = [
        span.attrs["pages"]
        for span in machine.guest.spans
        if span.name == "dma_direct_alloc"
    ]
    assert pages == [200]


def test_bad_json_rejected():
    with pytest.raises(SpecError, match="invalid JSON"):
        WorkloadSpec.from_json("{not json")
    with pytest.raises(SpecError, match="object with 'name'"):
        WorkloadSpec.from_json("[]")


def test_nested_loops_expand():
    spec = WorkloadSpec(
        "nested",
        [
            {
                "op": "loop",
                "count": 3,
                "body": [
                    {
                        "op": "loop",
                        "count": 4,
                        "body": [
                            {"op": "launch", "kernel": "k", "duration_us": 1}
                        ],
                    }
                ],
            },
            {"op": "sync"},
        ],
    )
    assert spec.total_launches() == 12
    trace, _ = run_app(spec.app(), SystemConfig.base())
    assert len(trace.launches()) == 12


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=8),
    duration=st.integers(min_value=1, max_value=500),
)
def test_property_launch_count_matches_static(count, duration):
    spec = WorkloadSpec(
        "prop",
        [
            {
                "op": "loop",
                "count": count,
                "body": [{"op": "launch", "kernel": "k", "duration_us": duration}],
            },
            {"op": "sync"},
        ],
    )
    trace, _ = run_app(spec.app(), SystemConfig.base())
    assert len(trace.launches()) == spec.total_launches() == count
