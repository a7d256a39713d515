"""Run manifests: fingerprints, git SHA capture, writer."""

import json
import subprocess
from dataclasses import dataclass

from repro.pipeline.genax import GenAxConfig
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_fingerprint,
    git_commit,
    git_dirty,
    write_manifest,
)


@dataclass
class _DemoConfig:
    k: int = 12
    bound: int = 8
    label: str = "x"


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(_DemoConfig()) == config_fingerprint(
            _DemoConfig()
        )

    def test_sensitive_to_field_values(self):
        assert config_fingerprint(_DemoConfig(k=12)) != config_fingerprint(
            _DemoConfig(k=13)
        )

    def test_dataclass_and_equivalent_dict_agree(self):
        # Fingerprints hash field *values*, not dataclass identity.
        as_dict = {"k": 12, "bound": 8, "label": "x"}
        assert config_fingerprint(_DemoConfig()) == config_fingerprint(as_dict)

    def test_real_config_fingerprints(self):
        a = config_fingerprint(GenAxConfig())
        b = config_fingerprint(GenAxConfig(edit_bound=9))
        assert a != b
        assert len(a) == 16


class TestGitCommit:
    def test_returns_sha_inside_checkout(self):
        sha = git_commit()
        assert sha is None or (len(sha) == 40 and sha.strip() == sha)

    def test_none_outside_checkout(self, tmp_path):
        assert git_commit(cwd=tmp_path) is None


class TestGitDirty:
    @staticmethod
    def _git(cwd, *args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd, check=True, capture_output=True,
        )

    def test_tracks_changes_to_tracked_files_only(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        self._git(tmp_path, "add", "a.txt")
        self._git(tmp_path, "commit", "-q", "-m", "one")
        assert git_dirty(cwd=tmp_path) is False
        (tmp_path / "new.txt").write_text("untracked\n")
        assert git_dirty(cwd=tmp_path) is False
        (tmp_path / "a.txt").write_text("two\n")
        assert git_dirty(cwd=tmp_path) is True
        self._git(tmp_path, "add", "a.txt")
        assert git_dirty(cwd=tmp_path) is True

    def test_none_outside_checkout(self, tmp_path):
        assert git_dirty(cwd=tmp_path) is None


class TestRunManifest:
    def test_for_run_captures_config(self):
        manifest = RunManifest.for_run(
            command=["repro-genax", "align"],
            backend="genax",
            config=GenAxConfig(edit_bound=9),
            seed=5,
        )
        assert manifest.backend == "genax"
        assert manifest.config["edit_bound"] == 9
        assert manifest.seed == 5
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
        assert manifest.started_utc  # ISO stamp present

    def test_writer_roundtrip(self, tmp_path):
        manifest = RunManifest.for_run(
            command=["repro-genax"], backend="genax", config=GenAxConfig()
        )
        manifest.wall_seconds = 1.5
        manifest.reads_total = 40
        path = tmp_path / "run.manifest.json"
        write_manifest(path, manifest)
        loaded = json.loads(path.read_text())
        assert loaded["wall_seconds"] == 1.5
        assert loaded["reads_total"] == 40
        assert loaded["config_fingerprint"] == manifest.config_fingerprint
