"""Inline-suppression behaviour: parsing, filtering, and misuse findings."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.suppress import is_suppressed, parse_suppressions


def dedent(source):
    return textwrap.dedent(source)


class TestParsing:
    def test_single_and_multi_rule_directives(self):
        source = dedent(
            """
            x = 1  # genaxlint: disable=wall-clock
            y = 2  # genaxlint: disable=wall-clock,unseeded-random
            """
        )
        suppressions = parse_suppressions(source)
        assert is_suppressed(suppressions, 2, "wall-clock")
        assert not is_suppressed(suppressions, 2, "unseeded-random")
        assert is_suppressed(suppressions, 3, "unseeded-random")

    def test_disable_all(self):
        suppressions = parse_suppressions("x = 1  # genaxlint: disable=all\n")
        assert is_suppressed(suppressions, 1, "anything")

    def test_directive_inside_string_ignored(self):
        suppressions = parse_suppressions(
            "note = 'genaxlint: disable=wall-clock'\n"
        )
        assert suppressions == {}

    def test_unrelated_comments_ignored(self):
        assert parse_suppressions("x = 1  # a normal comment\n") == {}


class TestFiltering:
    def test_suppressed_finding_dropped(self):
        source = dedent(
            """
            import time

            def measure():
                return time.time()  # genaxlint: disable=wall-clock
            """
        )
        assert [f for f in lint_source(source) if f.rule == "wall-clock"] == []

    def test_suppression_is_line_scoped(self):
        source = dedent(
            """
            import time

            def measure():
                a = time.time()  # genaxlint: disable=wall-clock
                b = time.time()
                return a, b
            """
        )
        found = [f for f in lint_source(source) if f.rule == "wall-clock"]
        assert len(found) == 1
        assert found[0].line == 6

    def test_wrong_rule_name_does_not_suppress(self):
        source = dedent(
            """
            import time

            def measure():
                return time.time()  # genaxlint: disable=unseeded-random
            """
        )
        found = [f for f in lint_source(source) if f.rule == "wall-clock"]
        assert len(found) == 1


class TestMisuse:
    def test_unknown_rule_name_in_suppression_is_a_finding(self):
        source = "x = 1  # genaxlint: disable=no-such-rule\n"
        found = lint_source(source)
        assert len(found) == 1
        assert found[0].code == "GX002"
        assert "no-such-rule" in found[0].message

    def test_malformed_directive_is_a_finding(self):
        source = "x = 1  # genaxlint: enable=wall-clock\n"
        found = lint_source(source)
        assert len(found) == 1
        assert found[0].code == "GX002"

    def test_syntax_error_is_a_finding_not_a_crash(self):
        found = lint_source("def broken(:\n")
        assert len(found) == 1
        assert found[0].code == "GX001"
        assert found[0].rule == "parse-error"


class TestUnusedSuppressionAudit:
    """GX003: the unused-ignore audit (mirror of mypy warn_unused_ignores)."""

    def test_stale_suppression_warns(self):
        source = dedent(
            """
            def measure(clock):
                return clock()  # genaxlint: disable=wall-clock
            """
        )
        found = lint_source(source)
        assert [f.code for f in found] == ["GX003"]
        assert found[0].rule == "unused-suppression"
        assert found[0].severity.value == "warning"
        assert "'wall-clock'" in found[0].message
        assert found[0].line == 3

    def test_used_suppression_does_not_warn(self):
        source = dedent(
            """
            import time

            def measure():
                return time.time()  # genaxlint: disable=wall-clock
            """
        )
        assert [f.code for f in lint_source(source)] == []

    def test_mixed_directive_reports_only_stale_names(self):
        source = dedent(
            """
            import time

            def measure():
                return time.time()  # genaxlint: disable=wall-clock,unseeded-random
            """
        )
        found = lint_source(source)
        assert [f.code for f in found] == ["GX003"]
        assert "'unseeded-random'" in found[0].message
        assert "'wall-clock'" not in found[0].message

    def test_stale_disable_all_warns(self):
        source = dedent(
            """
            def measure(clock):
                return clock()  # genaxlint: disable=all
            """
        )
        found = lint_source(source)
        assert [f.code for f in found] == ["GX003"]

    def test_unknown_name_reported_once_as_gx002_not_twice(self):
        # GX002 owns unknown names; the audit must not pile a GX003 on top.
        found = lint_source("x = 1  # genaxlint: disable=no-such-rule\n")
        assert [f.code for f in found] == ["GX002"]

    def test_audit_suppressible_on_its_own_line(self):
        source = dedent(
            """
            def measure(clock):
                return clock()  # genaxlint: disable=wall-clock,unused-suppression
            """
        )
        assert [f.code for f in lint_source(source)] == []

    def test_audit_can_be_disabled(self):
        source = dedent(
            """
            def measure(clock):
                return clock()  # genaxlint: disable=wall-clock
            """
        )
        assert lint_source(source, audit=False) == []
