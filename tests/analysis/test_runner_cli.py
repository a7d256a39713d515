"""Runner and CLI behaviour: file collection, formats, exit codes, --changed."""

import json
import os
import re
import subprocess
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.runner import collect_files, lint_paths

BAD_SOURCE = textwrap.dedent(
    """
    import time


    def measure():
        return time.time()
    """
).lstrip()

# Clean under every rule, including GX104 clock confinement: the clock
# arrives injected, exactly the pattern the hint prescribes.
CLEAN_SOURCE = textwrap.dedent(
    """
    def measure(clock):
        return clock()
    """
).lstrip()


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "bad.py").write_text(BAD_SOURCE)
    (tmp_path / "pkg" / "clean.py").write_text(CLEAN_SOURCE)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("import time\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    return tmp_path


class TestRunner:
    def test_collect_files_filters_and_sorts(self, tree):
        files = collect_files([str(tree)])
        names = [os.path.basename(path) for path in files]
        assert names == ["bad.py", "clean.py"]  # no __pycache__, no .txt

    def test_collect_files_missing_path_raises(self, tree):
        with pytest.raises(FileNotFoundError):
            collect_files([str(tree / "absent")])

    def test_lint_paths_reports_with_real_paths(self, tree):
        findings = lint_paths([str(tree)])
        assert [f.rule for f in findings] == ["wall-clock"]
        assert findings[0].path.endswith("bad.py")


class TestCli:
    def test_exit_one_and_text_output_on_findings(self, tree, capsys):
        code = main([str(tree / "pkg" / "bad.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "GX102" in out and "wall-clock" in out
        assert "hint:" in out

    def test_exit_zero_on_clean_file(self, tree, capsys):
        code = main([str(tree / "pkg" / "clean.py")])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_json_format_schema(self, tree, capsys):
        code = main(["--format", "json", str(tree / "pkg" / "bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["tool"] == "repro-genaxlint"
        assert payload["finding_count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "wall-clock"
        assert finding["code"] == "GX102"
        assert finding["line"] == 5
        assert finding["severity"] == "error"
        assert finding["hint"]

    def test_rules_restriction(self, tree, capsys):
        code = main(["--rules", "unseeded-random", str(tree / "pkg" / "bad.py")])
        capsys.readouterr()
        assert code == 0  # wall-clock rule not selected

    def test_unknown_rule_is_usage_error(self, tree, capsys):
        code = main(["--rules", "no-such-rule", str(tree / "pkg" / "bad.py")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-such-rule" in err

    def test_deleted_whole_program_rule_is_unknown(self, tree, capsys):
        code = main(["--rules", "uint64-wrap", str(tree / "pkg" / "bad.py")])
        err = capsys.readouterr().err
        assert code == 2
        assert "uint64-wrap" in err

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GX101" in out and "unseeded-random" in out
        assert "table_bytes_streamed" in out  # allowlist is printed

    def test_list_rules_prints_only_file_rules_and_counter_allowlist(self, capsys):
        main(["--list-rules"])
        out = capsys.readouterr().out
        codes = re.findall(r"\bGX\d{3}\b", out)
        assert codes == [
            "GX101", "GX102", "GX103", "GX104", "GX201",
            "GX202", "GX301", "GX401", "GX402", "GX403",
        ]
        headers = [line for line in out.splitlines() if not line.startswith(" ")]
        assert headers == [
            "registered rules:",
            "counter allowlist (repro.analysis.config.COUNTER_ALLOWLIST):",
        ]


class TestChanged:
    """--changed lints only files differing from the base ref."""

    @pytest.fixture()
    def git_repo(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(
                ("git", *args),
                cwd=tmp_path,
                check=True,
                capture_output=True,
                env={
                    **os.environ,
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                },
            )

        git("init", "-q", "-b", "main")
        (tmp_path / "tracked.py").write_text(CLEAN_SOURCE)
        git("add", "tracked.py")
        git("commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_changed_picks_up_modified_and_untracked(self, git_repo, capsys):
        (git_repo / "tracked.py").write_text(BAD_SOURCE)
        (git_repo / "fresh.py").write_text(BAD_SOURCE)
        code = main(["--changed", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["finding_count"] == 2
        flagged = {os.path.basename(f["path"]) for f in payload["findings"]}
        assert flagged == {"tracked.py", "fresh.py"}

    def test_changed_clean_when_no_diff(self, git_repo, capsys):
        code = main(["--changed"])
        capsys.readouterr()
        assert code == 0

    def test_changed_rejects_explicit_paths(self, git_repo, capsys):
        with pytest.raises(SystemExit):
            main(["--changed", "somepath"])
        capsys.readouterr()
