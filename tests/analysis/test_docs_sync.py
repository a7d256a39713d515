"""Docs stay in sync with the code they describe.

The README rule-family table is rendered from the live registry by
``render_rule_table()``; registering a rule without regenerating the
table (``python -c "from repro.analysis import render_rule_table;
print(render_rule_table())"``) fails here rather than drifting silently.
"""

import os
import re

from repro.analysis import render_rule_table
from repro.analysis.registry import all_rules

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def read_doc(name):
    with open(os.path.join(REPO_ROOT, name), "r", encoding="utf-8") as handle:
        return handle.read()


class TestReadmeRuleTable:
    def test_rendered_table_is_embedded_verbatim(self):
        assert render_rule_table() in read_doc("README.md")

    def test_table_covers_every_registered_rule(self):
        table = render_rule_table()
        for spec in all_rules():
            assert f"| {spec.code} |" in table
            assert f"`{spec.name}`" in table


WHOLE_PROGRAM_HEADING = "## Whole-program properties: tests, not lint rules"
DIFFTEST_HEADING = "## Differential testing (`repro/difftest`)"


def design_section(heading):
    design = read_doc("DESIGN.md")
    start = design.index(heading)
    end = design.index("\n## ", start + len(heading))
    return design[start:end]


def whole_program_section():
    return design_section(WHOLE_PROGRAM_HEADING)


def table_rows(section, header):
    """The body rows of the table in *section* whose header starts *header*."""
    lines = section[section.index("\n" + header) + 1 :].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestDesignDoc:
    def test_whole_program_section_exists(self):
        assert WHOLE_PROGRAM_HEADING in read_doc("DESIGN.md")

    def test_plant_matrix_cites_existing_tests(self):
        # Each planted-bug row names the tests that catch it; a renamed or
        # deleted test file must not leave the table pointing at nothing.
        rows = [
            line
            for line in whole_program_section().splitlines()
            if line.startswith("| ") and not line.startswith("| Planted")
        ]
        assert len(rows) == 5
        for row in rows:
            cited = re.findall(r"`(tests/[\w/]+\.py)", row)
            assert cited, row
            for path in cited:
                assert os.path.isfile(os.path.join(REPO_ROOT, path)), path


class TestReadmeFilterTable:
    def test_rendered_table_is_embedded_verbatim(self):
        from repro.filters import render_filter_table

        assert render_filter_table() in read_doc("README.md")

    def test_table_covers_every_registered_filter(self):
        from repro.filters import filter_names, render_filter_table

        table = render_filter_table()
        for name in filter_names():
            assert f"| `{name}` |" in table


class TestDesignFilterCascade:
    def test_cascade_section_exists(self):
        assert "## Filter cascade (`repro/filters`)" in read_doc("DESIGN.md")

    def test_section_names_every_registered_filter(self):
        from repro.filters import filter_names

        design = read_doc("DESIGN.md")
        for name in filter_names():
            assert f"`{name}`" in design

    def test_section_names_the_telemetry_surface(self):
        design = read_doc("DESIGN.md")
        assert "pipeline_cascade_depth" in design
        assert "filter_batch" in design
        assert "publish_cascade" in design


class TestReadmeProfileTable:
    def test_rendered_table_is_embedded_verbatim(self):
        """Regenerate with ``PYTHONPATH=src python -m repro.genome.reads``
        on drift."""
        from repro.genome.reads import render_profile_table

        assert render_profile_table() in read_doc("README.md")

    def test_table_covers_every_registered_profile(self):
        from repro.genome.reads import profile_names, render_profile_table

        table = render_profile_table()
        for name in profile_names():
            assert f"| `{name}` |" in table


class TestDesignWorkloadsAndScenarios:
    def test_section_exists(self):
        design = read_doc("DESIGN.md")
        assert "## Workloads & scenarios" in design

    def test_section_names_every_read_profile(self):
        from repro.genome.reads import profile_names

        design = read_doc("DESIGN.md")
        for name in profile_names():
            assert f"`{name}`" in design

    def test_section_names_the_scenario_difftest_pairs(self):
        design = read_doc("DESIGN.md")
        for pair in ("longread-adaptive-vs-dp", "pairedend-rescue-vs-dp"):
            assert f"`{pair}`" in design
        for family in ("long_read_indel", "paired_end"):
            assert f"`{family}`" in design

    def test_section_names_the_pair_telemetry_surface(self):
        design = read_doc("DESIGN.md")
        assert "publish_pairs" in design
        assert "_pairs_proper_fraction" in design
        assert "`AdaptivePolicy`" in design


class TestDesignOracleTable:
    def test_design_names_every_registered_pair(self):
        # The "Oracle registry" table has exactly one row per pair.
        from repro.difftest.oracles import pair_names

        rows = table_rows(design_section(DIFFTEST_HEADING), "| pair |")
        names = [re.fullmatch(r"`([\w-]+)`", row[0]).group(1) for row in rows]
        assert sorted(names) == sorted(pair_names())

    def test_plant_matrix_cites_registered_pairs_and_existing_tests(self):
        # Each plant row names the kept pairs and tests that catch it; a
        # deleted pair or test file must not stay cited, and every plant
        # must still be caught by something.
        from repro.difftest.oracles import pair_names

        rows = table_rows(design_section(DIFFTEST_HEADING), "| Plant |")
        assert rows
        for plant, pairs, tests in rows:
            cited_pairs = re.findall(r"`([a-z0-9-]+)`", pairs)
            cited_tests = re.findall(r"`(tests/[\w/]+\.py)", tests)
            assert cited_pairs or cited_tests, plant
            for name in cited_pairs:
                assert name in pair_names(), (plant, name)
            for path in cited_tests:
                assert os.path.isfile(os.path.join(REPO_ROOT, path)), path


class TestPerfTrajectoryDocs:
    def test_design_section_exists(self):
        assert "## Perf trajectory (`repro/perf`)" in read_doc("DESIGN.md")

    def test_design_pins_the_schema_version(self):
        from repro.perf.schema import BENCH_SCHEMA_VERSION

        design = read_doc("DESIGN.md")
        assert (
            f"`BENCH_SCHEMA_VERSION = {BENCH_SCHEMA_VERSION}`" in design
        )

    def test_design_names_every_gate_mode_and_tolerance(self):
        from repro.perf.gate import DEFAULT_TOLERANCE

        design = read_doc("DESIGN.md")
        for mode, tolerance in DEFAULT_TOLERANCE.items():
            assert f"`{mode}`" in design
            assert f"**{tolerance}**" in design

    def test_design_names_every_gate_outcome(self):
        from repro.perf.gate import (
            OUTCOME_FAIL,
            OUTCOME_FINGERPRINT_MISMATCH,
            OUTCOME_MISSING_BASELINE,
            OUTCOME_PASS,
        )

        design = read_doc("DESIGN.md")
        for outcome in (
            OUTCOME_PASS,
            OUTCOME_FAIL,
            OUTCOME_MISSING_BASELINE,
            OUTCOME_FINGERPRINT_MISMATCH,
        ):
            assert f"`{outcome}`" in design

    def test_design_names_every_workload_profile(self):
        from repro.perf.workloads import workload_names

        design = read_doc("DESIGN.md")
        for name in workload_names():
            assert f"`{name}`" in design

    def test_readme_quickstart_covers_every_subcommand(self):
        readme = read_doc("README.md")
        assert "### Perf trajectory" in readme
        for command in ("run", "record", "history", "gate", "trace-diff"):
            assert f"repro-perf {command}" in readme
