"""The unified bench envelope: fingerprints, content address, loading."""

import json

import pytest

from repro.perf.schema import (
    BENCH_SCHEMA_VERSION,
    bench_envelope,
    compute_run_id,
    ensure_bench_out,
    load_bench,
    machine_info,
    write_bench,
)


def make_envelope(**kwargs):
    defaults = dict(
        quick=True,
        workload={"genome_bp": 1000, "reads": 4},
        payload={"cells": [{"backend": "genax", "jobs": 1, "work": {}}]},
    )
    defaults.update(kwargs)
    return bench_envelope("perf_matrix", **defaults)


class TestMachineInfo:
    def test_fields_present(self):
        info = machine_info()
        for key in ("cpu_count", "cpu_model", "numpy_version", "blas",
                    "python_version", "python_build", "start_method"):
            assert key in info, key
        assert info["cpu_count"] >= 1

    def test_stable_within_process(self):
        assert machine_info() == machine_info()


class TestEnvelope:
    def test_required_keys(self):
        result = make_envelope()
        for key in ("schema_version", "benchmark", "quick", "machine",
                    "git_sha", "git_dirty", "workload", "payload",
                    "recorded_utc", "machine_fingerprint",
                    "workload_fingerprint", "run_id"):
            assert key in result, key
        assert result["schema_version"] == BENCH_SCHEMA_VERSION
        assert result["git_dirty"] in (True, False, None)

    def test_git_labels_name_the_imported_checkout(self, tmp_path, monkeypatch):
        from pathlib import Path

        import repro.perf.schema as schema
        from repro.telemetry.manifest import git_commit, git_dirty

        source = Path(schema.__file__).resolve().parent
        monkeypatch.chdir(tmp_path)  # not a git checkout
        result = make_envelope()
        assert result["git_sha"] == git_commit(cwd=source)
        assert result["git_dirty"] == git_dirty(cwd=source)

    def test_workload_fingerprint_ignores_machine_and_payload(self):
        a = make_envelope()
        b = make_envelope(payload={"cells": []})
        assert a["workload_fingerprint"] == b["workload_fingerprint"]
        assert a["run_id"] != b["run_id"]

    def test_workload_fingerprint_tracks_params_and_scale(self):
        base = make_envelope()
        other_params = make_envelope(workload={"genome_bp": 2000, "reads": 4})
        other_scale = make_envelope(quick=False)
        assert base["workload_fingerprint"] != other_params["workload_fingerprint"]
        assert base["workload_fingerprint"] != other_scale["workload_fingerprint"]

    def test_run_id_excludes_volatile_labels(self):
        result = make_envelope()
        relabelled = dict(result, recorded_utc="2020-01-01T00:00:00Z",
                          git_dirty=not result["git_dirty"],
                          history={"sequence": 9})
        assert compute_run_id(relabelled) == result["run_id"]


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        out = tmp_path / "results" / "bench" / "BENCH_x.json"
        result = make_envelope()
        write_bench(ensure_bench_out(out), result)
        assert load_bench(out) == result

    def test_write_is_deterministic_bytes(self, tmp_path):
        result = make_envelope()
        a = tmp_path / "results" / "bench" / "a.json"
        b = tmp_path / "results" / "bench" / "b.json"
        write_bench(a, result)
        write_bench(b, result)
        assert a.read_bytes() == b.read_bytes()


class TestLegacyLoad:
    def test_committed_bench_files_load(self):
        from pathlib import Path

        bench_dir = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "bench"
        )
        for name in ("BENCH_filters.json", "BENCH_parallel.json"):
            loaded = load_bench(bench_dir / name)
            assert loaded["schema_version"] == BENCH_SCHEMA_VERSION

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version 99"):
            load_bench(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_version_rejected(self, tmp_path, version):
        # v1/v2 were the pre-envelope vintages; none is committed any
        # more, so they are rejected like any other foreign version.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema_version": version,
                                    "benchmark": "bench_filters"}))
        with pytest.raises(ValueError, match=f"schema_version {version}"):
            load_bench(path)

    @pytest.mark.parametrize("dirty", [True, False, None, "absent"])
    def test_git_dirty_label_accepted(self, tmp_path, dirty):
        result = make_envelope()
        if dirty == "absent":
            del result["git_dirty"]  # envelopes older than the label
        else:
            result["git_dirty"] = dirty
        path = tmp_path / "run.json"
        write_bench(path, result)
        assert load_bench(path) == result

    def test_git_dirty_must_be_boolean(self, tmp_path):
        path = tmp_path / "run.json"
        write_bench(path, dict(make_envelope(), git_dirty="yes"))
        with pytest.raises(ValueError, match="git_dirty"):
            load_bench(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_bench(path)


class TestEnsureBenchOut:
    def test_accepts_results_bench(self, tmp_path):
        ok = tmp_path / "results" / "bench" / "BENCH_matrix.json"
        assert ensure_bench_out(ok) == ok

    @pytest.mark.parametrize("relative", [
        "results/BENCH_matrix.json",
        "results/paper/BENCH_matrix.json",
        "bench/BENCH_matrix.json",
        "BENCH_matrix.json",
    ])
    def test_refuses_everything_else(self, tmp_path, relative):
        with pytest.raises(ValueError, match="results/bench"):
            ensure_bench_out(tmp_path / relative)
