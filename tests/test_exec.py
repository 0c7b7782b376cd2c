"""Tests for the parallel experiment harness (repro.exec).

Covers the ISSUE-3 acceptance criteria: cache hit/miss/invalidation
(config change, calibration change, code-fingerprint change),
serial-vs-parallel byte-identical payloads, warm-cache reruns that
execute zero simulations, and worker crash isolation.
"""

import ast
import importlib.util
import json
import os

import pytest

from repro.cli import main
from repro.config import SystemConfig
from repro.exec import cache as exec_cache
from repro.exec import fingerprint
from repro.exec import runner as exec_runner
from repro.figures.common import FigureResult

FAST_CELLS = ["table1", "fig04b"]


@pytest.fixture(autouse=True)
def _fresh_fingerprints():
    """Monkeypatched source readers must not leak cached fingerprints."""
    fingerprint.clear_caches()
    yield
    fingerprint.clear_caches()


def _dirs(tmp_path, name="run"):
    results = str(tmp_path / name)
    return results, os.path.join(results, ".cache")


# ---------------------------------------------------------------------------
# fingerprints


def test_config_hash_distinguishes_modes_and_overrides():
    base = fingerprint.config_hash(SystemConfig.base())
    assert base == fingerprint.config_hash(SystemConfig.base())
    assert base != fingerprint.config_hash(SystemConfig.confidential())
    assert base != fingerprint.config_hash(SystemConfig.base().replace(seed=1))


def test_cell_fingerprint_tracks_figure_source(monkeypatch):
    before = fingerprint.cell_fingerprint("table1_config")
    assert before == fingerprint.cell_fingerprint("table1_config")
    original = fingerprint._read_source

    def edited(path):
        data = original(path)
        if path.endswith("table1_config.py"):
            data += b"\n# edited"
        return data

    monkeypatch.setattr(fingerprint, "_read_source", edited)
    fingerprint.clear_caches()
    assert fingerprint.cell_fingerprint("table1_config") != before
    # an untouched figure is unaffected by the edit
    monkeypatch.undo()
    fingerprint.clear_caches()
    assert fingerprint.cell_fingerprint("table1_config") == before


def test_core_edit_invalidates_every_cell(monkeypatch):
    before = fingerprint.cell_fingerprint("table1_config")
    original = fingerprint._read_source

    def edited(path):
        data = original(path)
        if path.endswith(os.path.join("repro", "units.py")):
            data += b"\n# core edit"
        return data

    monkeypatch.setattr(fingerprint, "_read_source", edited)
    fingerprint.clear_caches()
    assert fingerprint.cell_fingerprint("table1_config") != before


def test_harness_edit_does_not_invalidate(monkeypatch):
    """Editing repro/exec or the CLI must not re-simulate figures."""
    before = fingerprint.package_fingerprint()
    original = fingerprint._read_source

    def edited(path):
        data = original(path)
        if os.sep + "exec" + os.sep in path or path.endswith("cli.py"):
            data += b"\n# harness edit"
        return data

    monkeypatch.setattr(fingerprint, "_read_source", edited)
    fingerprint.clear_caches()
    assert fingerprint.package_fingerprint() == before


def _with_edit(monkeypatch, suffix):
    """Monkeypatch the source reader to append bytes to files whose
    path ends with ``suffix`` (relative, os.sep-joined)."""
    original = fingerprint._read_source
    tail = os.path.join(*suffix.split("/"))

    def edited(path):
        data = original(path)
        if path.endswith(tail):
            data += b"\n# scoped edit"
        return data

    monkeypatch.setattr(fingerprint, "_read_source", edited)
    fingerprint.clear_caches()


# The cache-invalidation matrix: rows are edit sites, columns are
# (figure module -> must invalidate?).  No figure imports optim/ or
# tune/, so editing them re-simulates nothing; a core or common.py edit
# invalidates everything; a figure edit invalidates only that figure.
_MATRIX = [
    ("repro/optim/passes.py",
     {"table1_config": False, "ext_serving": False,
      "extensions": False, "ext_recovered_serving": False}),
    ("repro/tune/driver.py",
     {"table1_config": False, "ext_serving": False,
      "extensions": False, "ext_recovered_serving": False}),
    ("repro/units.py",
     {"table1_config": True, "ext_serving": True,
      "extensions": True, "ext_recovered_serving": True}),
    ("repro/figures/common.py",
     {"table1_config": True, "ext_serving": True,
      "extensions": True, "ext_recovered_serving": True}),
    ("repro/figures/ext_recovered_serving.py",
     {"table1_config": False, "ext_serving": False,
      "extensions": False, "ext_recovered_serving": True}),
    ("repro/figures/extensions.py",
     {"table1_config": False, "ext_serving": False,
      "extensions": True, "ext_recovered_serving": False}),
]


@pytest.mark.parametrize("edit_site,expected", _MATRIX,
                         ids=[site for site, _ in _MATRIX])
def test_invalidation_matrix_scopes_optim_edits(
    monkeypatch, edit_site, expected
):
    before = {
        module: fingerprint.cell_fingerprint(module) for module in expected
    }
    _with_edit(monkeypatch, edit_site)
    for module, must_change in expected.items():
        changed = fingerprint.cell_fingerprint(module) != before[module]
        assert changed == must_change, (
            f"edit to {edit_site}: expected "
            f"{module} {'invalidated' if must_change else 'untouched'}"
        )


def _imported_modules(tree, package):
    """Absolute names of the modules an AST imports (for ``from X
    import a``, both ``X`` and ``X.a``: ``a`` may be a submodule)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def _outside_cell_key(name):
    """True for a ``repro`` module cell_fingerprint() does not hash for
    a figure: a tree or file the core leaves out, bar figures/common."""
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return False
    if parts == ["repro", "figures"] or parts[:3] == [
        "repro", "figures", "common"
    ]:
        return False
    return (
        parts[1] in fingerprint._CORE_EXCLUDED_DIRS
        or f"{parts[1]}.py" in fingerprint._CORE_EXCLUDED_FILES
    )


def test_figures_import_no_module_outside_their_cell_key():
    """cell_fingerprint() hashes a figure's own module, common.py and
    the core, so a grid figure may import nothing else from a tree the
    core leaves out: no other figure module, no exec/check/optim/tune."""
    from repro.exec.runner import GRID

    offenders = {}
    for module in sorted({s.module for s in GRID.values() if not s.hidden}):
        path = fingerprint._figure_path(module)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        bad = sorted(filter(
            _outside_cell_key, _imported_modules(tree, "repro.figures")
        ))
        if bad:
            offenders[module] = bad
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# cache store


def test_cache_put_get_roundtrip(tmp_path):
    cache = exec_cache.ResultCache(str(tmp_path / "c"))
    key = exec_cache.entry_key({"cell": "x"})
    assert cache.get(key) is None
    cache.put(key, {"cell": "x", "figure_id": "f", "payload_json": "{}",
                    "payload_text": "t", "wall_ns": 1})
    entry = cache.get(key)
    assert entry["figure_id"] == "f"
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = exec_cache.ResultCache(str(tmp_path / "c"))
    key = exec_cache.entry_key({"cell": "x"})
    os.makedirs(cache.root, exist_ok=True)
    with open(cache.path_for(key), "w") as handle:
        handle.write("{truncated")
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert cache.stats.evicted_corrupt == [cache.path_for(key)]


# ---------------------------------------------------------------------------
# grid resolution


def test_resolve_cells_exact_and_prefix():
    assert exec_runner.resolve_cells(["table1"]) == ["table1"]
    assert exec_runner.resolve_cells(["fig04"]) == ["fig04a", "fig04b"]
    assert exec_runner.resolve_cells(["fig04", "fig04a"]) == ["fig04a", "fig04b"]
    ext = exec_runner.resolve_cells(["ext"])
    assert len(ext) == 15 and all(c.startswith("ext_") for c in ext)


def test_resolve_cells_unknown_token():
    with pytest.raises(ValueError, match="unknown figure"):
        exec_runner.resolve_cells(["fig99"])


def test_hidden_cells_not_prefix_expanded():
    with pytest.raises(ValueError):
        exec_runner.resolve_cells(["selftest"])
    # but exact id still resolves (it's the crash-isolation hook)
    assert exec_runner.resolve_cells(["selftest_boom"]) == ["selftest_boom"]


def test_default_cells_split():
    fast = exec_runner.default_cells()
    everything = exec_runner.default_cells(include_slow=True)
    assert "fig13" not in fast and "fig13" in everything
    assert "selftest_boom" not in everything
    assert set(fast) < set(everything)


# ---------------------------------------------------------------------------
# orchestration: hit/miss, warm-cache zero simulation, invalidation


def test_cold_then_warm_run(tmp_path, monkeypatch):
    results, cache_dir = _dirs(tmp_path)
    cold = exec_runner.run_grid(FAST_CELLS, results_dir=results)
    assert cold.ok and not cold.all_cached()
    assert cold.stats.misses == len(FAST_CELLS) and cold.stats.hits == 0
    assert [o.status for o in cold.outcomes] == ["run"] * len(FAST_CELLS)
    for outcome in cold.outcomes:
        assert os.path.exists(outcome.json_path)

    # warm rerun: every cell served from cache, zero simulations
    def no_simulation(item):
        raise AssertionError(f"warm run executed {item[0]}")

    monkeypatch.setattr(exec_runner, "execute_cell", no_simulation)
    warm = exec_runner.run_grid(FAST_CELLS, results_dir=results)
    assert warm.ok and warm.all_cached()
    assert warm.stats.hits == len(FAST_CELLS) and warm.stats.misses == 0
    # metrics registry saw the hits
    assert warm.metrics.counter("exec.cache.hits").value == len(FAST_CELLS)
    assert "exec.cache.misses" not in warm.metrics


def test_warm_outputs_byte_identical(tmp_path):
    results, _ = _dirs(tmp_path)
    exec_runner.run_grid(FAST_CELLS, results_dir=results)
    cold_bytes = {
        name: open(os.path.join(results, name), "rb").read()
        for name in sorted(os.listdir(results))
        if name.endswith((".json", ".txt"))
    }
    exec_runner.run_grid(FAST_CELLS, results_dir=results)
    for name, blob in cold_bytes.items():
        assert open(os.path.join(results, name), "rb").read() == blob


def test_force_reruns_and_refreshes(tmp_path):
    results, _ = _dirs(tmp_path)
    exec_runner.run_grid(FAST_CELLS, results_dir=results)
    forced = exec_runner.run_grid(FAST_CELLS, results_dir=results, force=True)
    assert [o.status for o in forced.outcomes] == ["run"] * len(FAST_CELLS)
    assert forced.stats.misses == len(FAST_CELLS)
    warm = exec_runner.run_grid(FAST_CELLS, results_dir=results)
    assert warm.all_cached()


def test_no_cache_mode_never_touches_cache(tmp_path):
    results, cache_dir = _dirs(tmp_path)
    report = exec_runner.run_grid(
        FAST_CELLS, results_dir=results, use_cache=False
    )
    assert report.ok and not os.path.exists(cache_dir)


@pytest.mark.parametrize(
    "ingredient", ["grid_config_hash", "calibration_hash"]
)
def test_invalidation_on_hash_change(tmp_path, monkeypatch, ingredient):
    results, _ = _dirs(tmp_path)
    exec_runner.run_grid(FAST_CELLS, results_dir=results)
    monkeypatch.setattr(
        fingerprint, ingredient, lambda: f"changed-{ingredient}"
    )
    rerun = exec_runner.run_grid(FAST_CELLS, results_dir=results)
    assert rerun.stats.hits == 0
    assert [o.status for o in rerun.outcomes] == ["run"] * len(FAST_CELLS)


def test_invalidation_on_code_fingerprint_change(tmp_path, monkeypatch):
    results, _ = _dirs(tmp_path)
    exec_runner.run_grid(["table1", "fig04b"], results_dir=results)
    original = fingerprint._read_source

    def edited(path):
        data = original(path)
        if path.endswith("fig04_bandwidth.py"):
            data += b"\n# edited"
        return data

    monkeypatch.setattr(fingerprint, "_read_source", edited)
    fingerprint.clear_caches()
    rerun = exec_runner.run_grid(["table1", "fig04b"], results_dir=results)
    by_cell = {o.cell: o.status for o in rerun.outcomes}
    # only the edited figure re-simulates; the untouched one stays cached
    assert by_cell == {"table1": "hit", "fig04b": "run"}


def test_corrupt_cache_entry_recovers(tmp_path):
    results, cache_dir = _dirs(tmp_path)
    exec_runner.run_grid(["table1"], results_dir=results)
    key = exec_runner.cell_cache_key(exec_runner.GRID["table1"])
    path = os.path.join(cache_dir, f"{key}.json")
    with open(path, "w") as handle:
        handle.write('{"version": 1, "payload_json"')  # truncated write
    repaired = exec_runner.run_grid(["table1"], results_dir=results)
    assert repaired.outcomes[0].status == "run"
    assert repaired.stats.evicted_corrupt == [path]
    assert exec_runner.run_grid(["table1"], results_dir=results).all_cached()


# ---------------------------------------------------------------------------
# serial vs parallel determinism


def test_serial_and_parallel_payloads_byte_identical(tmp_path):
    cells = ["table1", "fig04a", "fig04b"]
    serial_dir = str(tmp_path / "serial")
    parallel_dir = str(tmp_path / "parallel")
    serial = exec_runner.run_grid(
        cells, jobs=1, results_dir=serial_dir, use_cache=False
    )
    parallel = exec_runner.run_grid(
        cells, jobs=2, results_dir=parallel_dir, use_cache=False
    )
    assert serial.ok and parallel.ok
    names = sorted(os.listdir(serial_dir))
    assert names == sorted(os.listdir(parallel_dir))
    for name in names:
        with open(os.path.join(serial_dir, name), "rb") as handle:
            serial_blob = handle.read()
        with open(os.path.join(parallel_dir, name), "rb") as handle:
            assert handle.read() == serial_blob, name


def test_parallel_matches_figure_result_save(tmp_path):
    """Harness output files must be byte-identical to FigureResult.save."""
    from repro.figures import fig04_bandwidth

    direct_dir = str(tmp_path / "direct")
    result = fig04_bandwidth.generate_4b()
    result.save(direct_dir)
    harness_dir = str(tmp_path / "harness")
    exec_runner.run_grid(["fig04b"], jobs=2, results_dir=harness_dir)
    for suffix in (".json", ".txt"):
        name = result.figure_id + suffix
        with open(os.path.join(direct_dir, name), "rb") as handle:
            direct_blob = handle.read()
        with open(os.path.join(harness_dir, name), "rb") as handle:
            assert handle.read() == direct_blob


# ---------------------------------------------------------------------------
# crash isolation


def test_failing_cell_does_not_poison_the_pool(tmp_path):
    results, _ = _dirs(tmp_path)
    report = exec_runner.run_grid(
        ["selftest_boom", "table1", "fig04b"], jobs=2, results_dir=results
    )
    assert not report.ok
    by_cell = {o.cell: o for o in report.outcomes}
    assert by_cell["selftest_boom"].status == "failed"
    assert "RuntimeError" in by_cell["selftest_boom"].error
    assert by_cell["table1"].ok and by_cell["fig04b"].ok
    assert report.metrics.counter("exec.cells.failed").value == 1
    # the failure was not cached; healthy cells were
    rerun = exec_runner.run_grid(
        ["selftest_boom", "table1", "fig04b"], jobs=1, results_dir=results
    )
    statuses = {o.cell: o.status for o in rerun.outcomes}
    assert statuses == {
        "selftest_boom": "failed", "table1": "hit", "fig04b": "hit"
    }


def test_failing_cell_inline_is_isolated_too(tmp_path):
    results, _ = _dirs(tmp_path)
    report = exec_runner.run_grid(
        ["selftest_boom", "table1"], jobs=1, results_dir=results
    )
    assert not report.ok
    assert report.outcomes[0].status == "failed"
    assert report.outcomes[1].ok


# ---------------------------------------------------------------------------
# payload rehydration + bench routing


def test_payload_roundtrip():
    from repro.figures import table1_config

    result = table1_config.generate()
    rehydrated = exec_runner.payload_to_result(result.to_json())
    assert isinstance(rehydrated, FigureResult)
    assert rehydrated.to_json() == result.to_json()
    assert rehydrated.to_text() == result.to_text()


def test_cell_for_generator():
    from repro.figures import extensions, fig04_bandwidth, table1_config

    assert exec_runner.cell_for_generator(table1_config.generate) == "table1"
    assert exec_runner.cell_for_generator(fig04_bandwidth.generate_4b) == "fig04b"
    assert (
        exec_runner.cell_for_generator(extensions.generate_teeio) == "ext_teeio"
    )
    assert exec_runner.cell_for_generator(lambda: None) is None


def test_every_visible_cell_maps_to_a_variant():
    import importlib

    for cell_id, spec in exec_runner.GRID.items():
        if spec.hidden:
            continue
        module = importlib.import_module(spec.entry_module())
        assert spec.variant in module.VARIANTS, cell_id


# ---------------------------------------------------------------------------
# CLI integration


def test_cli_grid_cold_warm_and_assert_cached(tmp_path, capsys):
    out = str(tmp_path / "results")
    argv = ["run", "--figures", "table1,fig04b", "--out", out]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    assert "0 cache hits" in captured and "2 misses" in captured
    assert main(argv + ["--assert-cached", "--jobs", "2"]) == 0
    captured = capsys.readouterr().out
    assert "2 cache hits" in captured and "100% hit rate" in captured


def test_cli_assert_cached_fails_cold(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["run", "--figures", "table1", "--out", out,
                 "--assert-cached"]) == 1
    assert "expected 100% cache hits" in capsys.readouterr().err


def test_cli_grid_unknown_figure(tmp_path):
    with pytest.raises(SystemExit, match="unknown figure"):
        main(["run", "--figures", "fig99", "--out", str(tmp_path)])


def test_cli_run_requires_app_or_grid():
    with pytest.raises(SystemExit, match="needs an APP"):
        main(["run"])
    with pytest.raises(SystemExit, match="not both"):
        main(["run", "2mm", "--figures", "table1"])


def test_cli_failed_cell_exits_nonzero(tmp_path, capsys):
    out = str(tmp_path / "results")
    assert main(["run", "--figures", "selftest_boom", "--out", out]) == 1
    assert "FAILED selftest_boom" in capsys.readouterr().out


def test_cli_grid_json_matches_figures_command(tmp_path):
    """`repro run --figures` and the legacy serial `repro figures` path
    write byte-identical payloads."""
    legacy_dir = str(tmp_path / "legacy")
    grid_dir = str(tmp_path / "grid")
    assert main(["figures", "fig04b", "--out", legacy_dir]) == 0
    assert main(["run", "--figures", "fig04b", "--jobs", "2",
                 "--out", grid_dir]) == 0
    with open(os.path.join(legacy_dir, "fig04b_crypto.json"), "rb") as handle:
        legacy_blob = handle.read()
    with open(os.path.join(grid_dir, "fig04b_crypto.json"), "rb") as handle:
        assert handle.read() == legacy_blob
    payload = json.loads(legacy_blob)
    assert payload["figure_id"] == "fig04b_crypto"


# ---------------------------------------------------------------------------
# simulator-clock accounting (the zeroed-sim_ns bug)


def test_execute_cell_records_simulator_clock():
    """A simulating cell's payload carries the final simulator clock —
    the statistic the perf baseline's sim_ns_per_wall_s derives from."""
    spec = exec_runner.GRID["fig03"]
    payload = exec_runner.execute_cell(exec_runner._work_item(spec))
    assert payload["ok"]
    assert payload["sim_ns"] > 0


def test_analytic_cell_has_zero_sim_ns():
    spec = exec_runner.GRID["table1"]
    payload = exec_runner.execute_cell(exec_runner._work_item(spec))
    assert payload["ok"]
    assert payload["sim_ns"] == 0


def test_bench_cell_forwards_sim_ns():
    result = exec_runner.bench_cell("fig03", repeats=1)
    assert result["ok"]
    assert result["sim_ns"] > 0


def test_run_grid_sim_ns_survives_cache_roundtrip(tmp_path):
    results, _ = _dirs(tmp_path)
    cold = exec_runner.run_grid(["fig03"], results_dir=results)
    assert cold.ok
    recorded = cold.outcomes[0].sim_ns
    assert recorded > 0
    warm = exec_runner.run_grid(["fig03"], results_dir=results)
    assert warm.all_cached()
    assert warm.outcomes[0].sim_ns == recorded
