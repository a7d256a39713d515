"""Docs stay in sync with the code they describe.

The README rule-family table is rendered from the live registries by
``render_rule_table()``; registering a rule without regenerating the
table (``python -c "from repro.analysis import render_rule_table;
print(render_rule_table())"``) fails here rather than drifting silently.
"""

import os

from repro.analysis import render_rule_table
from repro.analysis.registry import all_project_rules, all_rules

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
        for spec in list(all_rules()) + list(all_project_rules()):
            assert f"| {spec.code} |" in table
            assert f"`{spec.name}`" in table


class TestDesignDoc:
    def test_interprocedural_section_exists(self):
        design = read_doc("DESIGN.md")
        assert "## Interprocedural analysis" in design

    def test_design_names_every_project_rule(self):
        design = read_doc("DESIGN.md")
        for spec in all_project_rules():
            assert spec.code in design
            assert spec.name in design


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
        for pair in (
            "longread-adaptive-vs-dp",
            "pairedend-rescue-vs-dp",
            "sv-chimeric-vs-dp",
        ):
            assert f"`{pair}`" in design
        for family in ("long_read_indel", "paired_end", "sv_chimeric"):
            assert f"`{family}`" in design

    def test_section_names_the_pair_telemetry_surface(self):
        design = read_doc("DESIGN.md")
        assert "publish_pairs" in design
        assert "_pairs_proper_fraction" in design
        assert "`AdaptivePolicy`" in design


class TestDesignOracleTable:
    def test_design_names_every_registered_pair(self):
        from repro.difftest.oracles import all_pairs

        design = read_doc("DESIGN.md")
        for pair in all_pairs():
            assert f"`{pair.name}`" in design, pair.name


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
