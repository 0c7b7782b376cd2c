"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main


def test_apps_lists_catalogue(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "sc" in out
    assert "polybench" in out


def test_run_base(capsys):
    assert main(["run", "2mm"]) == 0
    out = capsys.readouterr().out
    assert "2mm [base]" in out
    assert "KLR" in out
    assert "P predicted" in out


def test_run_cc_uvm(capsys):
    assert main(["run", "2dconv", "--cc", "--uvm"]) == 0
    out = capsys.readouterr().out
    assert "2dconv [cc uvm]" in out


def test_run_teeio(capsys):
    assert main(["run", "2mm", "--cc", "--teeio"]) == 0
    assert "cc+teeio" in capsys.readouterr().out


def test_run_writes_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["run", "2mm", "--trace", str(trace_path)]) == 0
    content = trace_path.read_text()
    assert '"traceEvents"' in content
    assert "mm_kernel1" in content


def test_run_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "not-an-app"])


def test_figures_single(tmp_path, capsys):
    assert main(["figures", "fig04b", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fig04b_crypto" in out
    assert (tmp_path / "fig04b_crypto.json").exists()
    assert (tmp_path / "fig04b_crypto.txt").exists()


def test_figures_extension(tmp_path, capsys):
    assert main(["figures", "teeio", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "ext_teeio.json").exists()


def test_figures_unknown_id(tmp_path, capsys):
    assert main(["figures", "fig99", "--out", str(tmp_path)]) == 2


def test_bandwidth_table(capsys):
    assert main(["bandwidth", "--sizes", "4096", "1048576"]) == 0
    out = capsys.readouterr().out
    assert "pinned" in out
    assert "GB_per_s" in out


def test_observations_subset(capsys):
    assert main(["observations", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "Observation 1: HOLDS" in out
    assert "Observation 2: HOLDS" in out


def test_analyze_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    assert main(["run", "sc", "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "launches 1611" in out
    assert "KLR" in out
    assert "P predicted" in out


def test_whatif_overrides(capsys):
    assert main([
        "whatif", "2mm",
        "--set", "tdx.td_hypercall_ns=1300",
        "--set", "tdx.teeio=true",
    ]) == 0
    out = capsys.readouterr().out
    assert "cc+overrides" in out
    assert "faster" in out


def test_whatif_rejects_bad_setting():
    with pytest.raises(SystemExit):
        main(["whatif", "2mm", "--set", "nonsense"])
    with pytest.raises(SystemExit):
        main(["whatif", "2mm", "--set", "tdx.not_a_field=1"])


def test_attest_cc(capsys):
    assert main(["attest", "--cc"]) == 0
    out = capsys.readouterr().out
    assert "SPDM session established (TD)" in out
    assert "session key" in out


# --- fault-injection flags and error handling ------------------------------


def test_run_seed_flag(capsys):
    assert main(["run", "2mm", "--seed", "7"]) == 0
    assert "2mm [base]" in capsys.readouterr().out


def test_run_fault_rate(capsys):
    assert main(["run", "srad", "--cc", "--fault-rate", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "faults   injected" in out
    assert "of D: recovery" in out


def test_run_fault_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"sites": {"crypto.gcm_tag": {"schedule": [0]}}}')
    assert main(["run", "srad", "--cc", "--fault-plan", str(plan)]) == 0
    assert "faults   injected 1" in capsys.readouterr().out


def test_run_fault_plan_missing_file():
    with pytest.raises(SystemExit, match="fault-plan"):
        main(["run", "2mm", "--fault-plan", "/no/such/plan.json"])


def test_run_fault_plan_and_rate_conflict(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"sites": {}}')
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(["run", "2mm", "--fault-plan", str(plan), "--fault-rate", "0.1"])


def test_run_fault_rate_out_of_range():
    with pytest.raises(SystemExit, match="fault-rate"):
        main(["run", "2mm", "--fault-rate", "-0.1"])
    with pytest.raises(SystemExit, match="fault-rate"):
        main(["run", "2mm", "--fault-rate", "1.5"])


def test_faults_report(capsys):
    assert main(["faults", "srad", "--cc", "--fault-rate", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "fault report: srad [cc]" in out
    assert "crypto.gcm_tag" in out
    assert "recovery" in out


def test_faults_report_defaults_to_visible_rate(capsys):
    assert main(["faults", "srad", "--cc"]) == 0
    assert "injected" in capsys.readouterr().out


def test_fatal_fault_exits_nonzero_with_diagnostic(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"sites": {"crypto.gcm_tag": {"schedule": [0, 1, 2, 3, 4, 5]}}}'
    )
    assert main(["run", "srad", "--cc", "--fault-plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FatalCudaFault:")
    assert err.count("\n") == 1  # one-line diagnostic, no traceback


def test_oom_exits_nonzero_with_diagnostic(capsys, monkeypatch):
    from repro.mem.allocator import OutOfMemoryError
    import repro.cli as cli

    def boom(_args):
        raise OutOfMemoryError("HBM exhausted")

    monkeypatch.setitem(cli._COMMANDS, "run", boom)
    assert main(["run", "2mm"]) == 1
    assert "error: OutOfMemoryError" in capsys.readouterr().err


def test_serve_prints_summary(capsys):
    assert main(["serve", "--rate", "8", "--duration", "500ms"]) == 0
    out = capsys.readouterr().out
    assert "serve[base] policy=fcfs rate=8" in out
    assert "goodput" in out
    assert "ttft p50/p99" in out


def test_serve_cc_flag(capsys):
    assert main(["serve", "--rate", "8", "--duration", "250ms", "--cc"]) == 0
    assert "serve[cc]" in capsys.readouterr().out


def test_serve_verdict_is_byte_deterministic(tmp_path, capsys):
    args = ["serve", "--rate", "8", "--duration", "500ms",
            "--policy", "fcfs", "--seed", "42"]
    first = tmp_path / "v1.json"
    second = tmp_path / "v2.json"
    assert main(args + ["--verdict", str(first)]) == 0
    assert main(args + ["--verdict", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = first.read_text()
    assert '"command": "serve"' in payload
    assert '"arrival_digest"' in payload


def test_serve_writes_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "serve.json"
    assert main(["serve", "--rate", "8", "--duration", "250ms",
                 "--trace", str(trace_path)]) == 0
    content = trace_path.read_text()
    assert '"traceEvents"' in content
    assert "serve.queue_depth" in content


def test_serve_rejects_bad_duration():
    with pytest.raises(SystemExit, match="duration"):
        main(["serve", "--duration", "fast"])


@pytest.mark.parametrize(
    "flags",
    [
        ["--rate", "0"],
        ["--rate", "-3"],
        ["--rate", "lots"],
        ["--tenants", "0"],
        ["--tenants", "-1"],
        ["--seed", "-1"],
        ["--max-queue-depth", "-2"],
        ["--deadline", "-10"],
    ],
)
def test_serve_rejects_bad_values_at_argparse_level(flags, capsys):
    # Typed exit code 2 (argparse usage error), before any simulation.
    with pytest.raises(SystemExit) as exc:
        main(["serve"] + flags)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


SERVE_PLAN = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "serve_fault_plan.json"
)


def test_serve_fault_plan_run(tmp_path, capsys):
    verdict = tmp_path / "faults.json"
    assert main([
        "serve", "--rate", "8", "--duration", "250ms", "--cc",
        "--fault-plan", SERVE_PLAN, "--seed", "7",
        "--shed-policy", "pushback", "--circuit-breaker",
        "--max-queue-depth", "32", "--deadline", "3000",
        "--ttft-timeout", "800", "--verdict", str(verdict),
    ]) == 0
    payload = verdict.read_text()
    assert '"active": true' in payload
    assert '"shed_policy": "pushback"' in payload


def test_serve_rejects_conflicting_fault_flags():
    with pytest.raises(SystemExit, match="mutually exclusive"):
        main(["serve", "--fault-plan", SERVE_PLAN,
              "--fault-rate", "0.01"])


@pytest.mark.parametrize(
    "flags",
    [
        # Degradation flags that used to parse cleanly and then be
        # silently ignored now exit 2 at parse time.
        ["--circuit-breaker"],
        ["--deadline", "100"],
        ["--ttft-timeout", "50"],
        ["--shed-policy", "deadline"],
        ["--max-queue-depth", "8"],
        ["--shed-policy", "pushback"],
        # Contradictory cluster topologies.
        ["--tp", "3"],
        ["--tp", "4", "--pp", "4"],
        ["--replicas", "3", "--autoscale-max", "2"],
        ["--link-policy", "batched"],
        ["--placement", "kv-affinity"],
        ["--replicas", "2", "--telemetry"],
        ["--autoscale-max", "1"],
    ],
)
def test_serve_rejects_contradictory_flags(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve"] + flags)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_serve_report_rejects_contradictory_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "report", "--circuit-breaker"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# -- the cluster path -------------------------------------------------------


def test_serve_cluster_verdict_is_byte_deterministic(tmp_path, capsys):
    args = ["serve", "--rate", "16", "--duration", "250ms", "--cc",
            "--replicas", "2", "--placement", "least-loaded"]
    first = tmp_path / "c1.json"
    second = tmp_path / "c2.json"
    assert main(args + ["--verdict", str(first)]) == 0
    assert main(args + ["--verdict", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = first.read_text()
    assert '"command": "serve-cluster"' in payload
    assert "serve-cluster[cc]" in capsys.readouterr().out


def test_serve_cluster_tp_trace_single_replica(tmp_path, capsys):
    trace_path = tmp_path / "tp.json"
    assert main(["serve", "--rate", "8", "--duration", "250ms", "--cc",
                 "--tp", "2", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "tp=2" in out
    assert "tp_comm" in out
    assert trace_path.exists()


# -- serving telemetry flags and the report subcommand ---------------------


def test_serve_telemetry_flag_keeps_verdict_bytes(tmp_path, capsys):
    args = ["serve", "--rate", "8", "--duration", "250ms",
            "--cc", "--seed", "42"]
    plain = tmp_path / "plain.json"
    telem = tmp_path / "telem.json"
    assert main(args + ["--verdict", str(plain)]) == 0
    assert main(args + ["--telemetry", "--verdict", str(telem)]) == 0
    # zero perturbation: telemetry must not move the verdict by a byte
    assert plain.read_bytes() == telem.read_bytes()


def test_serve_requests_out_jsonl_deterministic(tmp_path, capsys):
    args = ["serve", "--rate", "8", "--duration", "250ms",
            "--cc", "--seed", "42"]
    first = tmp_path / "r1.jsonl"
    second = tmp_path / "r2.jsonl"
    assert main(args + ["--requests-out", str(first)]) == 0
    assert main(args + ["--requests-out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    import json as _json

    records = [
        _json.loads(line) for line in first.read_text().splitlines()
    ]
    assert records
    for record in records:
        component_sum = sum(
            v for k, v in record.items() if k.startswith("c_")
        )
        assert component_sum == record["e2e_ns"]


def test_serve_requests_out_csv(tmp_path, capsys):
    out = tmp_path / "requests.csv"
    assert main(["serve", "--rate", "8", "--duration", "250ms",
                 "--requests-out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("req_id,")
    assert len(lines) > 1


def test_serve_report_prints_forensics(capsys):
    assert main(["serve", "report", "--rate", "8", "--duration",
                 "250ms", "--cc", "--top", "3", "--by-tenant"]) == 0
    out = capsys.readouterr().out
    assert "slowest requests" in out
    assert "ttft p99" in out
    assert "tenant" in out


def test_serve_report_diff_attributes_delta(capsys):
    assert main(["serve", "report", "--rate", "8", "--duration",
                 "250ms", "--cc", "--diff"]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "cc" in out
    assert "dominant" in out


def test_serve_report_diff_requires_cc():
    with pytest.raises(SystemExit, match="--diff"):
        main(["serve", "report", "--rate", "8", "--duration",
              "250ms", "--diff"])


def test_serve_report_diff_base_run_keeps_fault_flags(monkeypatch, capsys):
    import repro.serve

    configs = []
    real = repro.serve.run_scenario

    def recording(spec, config, **kwargs):
        configs.append(config)
        return real(spec, config, **kwargs)

    monkeypatch.setattr(repro.serve, "run_scenario", recording)
    assert main(["serve", "report", "--rate", "8", "--duration", "250ms",
                 "--cc", "--fault-rate", "0.01", "--diff"]) == 0
    assert [config.cc_on for config in configs] == [True, False]
    assert all(config.faults.active for config in configs)
