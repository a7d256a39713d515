"""Tests for the filter registry and cascade-spec parsing."""

import pytest

from repro.filters import (
    DEFAULT_CASCADE,
    FilterCascade,
    FilterSpec,
    build_cascade,
    filter_names,
    get_filter,
    parse_cascade_spec,
    register_filter,
    render_filter_table,
)
from repro.genome.reference import ReferenceGenome


def tiny_reference():
    return ReferenceGenome("ACGT" * 8, name="registry-test")


class TestRegistry:
    def test_builtin_filters_registered_cheapest_first(self):
        assert filter_names() == ("shouldered", "sneakysnake", "myers")

    def test_default_cascade_names_registered_filters(self):
        assert DEFAULT_CASCADE == ("shouldered", "sneakysnake", "myers")
        for name in DEFAULT_CASCADE:
            assert get_filter(name).name == name

    def test_get_filter_unknown_lists_known_names(self):
        with pytest.raises(ValueError, match="sneakysnake"):
            get_filter("no-such-filter")

    def test_duplicate_registration_rejected(self):
        spec = get_filter("myers")
        with pytest.raises(ValueError, match="already registered"):
            register_filter(
                FilterSpec(
                    name=spec.name,
                    summary="duplicate",
                    batched=spec.batched,
                    build=spec.build,
                )
            )

    def test_batched_flag_matches_structural_capability(self):
        reference = tiny_reference()
        for name in filter_names():
            spec = get_filter(name)
            stage = spec.build(reference, 2, 4)
            assert hasattr(stage, "admit_batch") == spec.batched, name
            assert stage.name == name


class TestCascadeSpec:
    @pytest.mark.parametrize("spec", ["", "  ", "none"])
    def test_empty_specs_mean_no_cascade(self, spec):
        assert parse_cascade_spec(spec) == ()

    def test_order_and_whitespace(self):
        assert parse_cascade_spec(" myers , shouldered ") == (
            "myers",
            "shouldered",
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown filter"):
            parse_cascade_spec("shouldered,bogus")

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_cascade_spec("myers,myers")


class TestBuildCascade:
    def test_empty_names_build_no_cascade(self):
        assert build_cascade((), tiny_reference(), 2, 4) is None

    def test_default_cascade_builds_in_order(self):
        cascade = build_cascade(DEFAULT_CASCADE, tiny_reference(), 2, 4)
        assert isinstance(cascade, FilterCascade)
        assert cascade.stage_names == DEFAULT_CASCADE
        # sneakysnake brings a vectorized admit_batch hook.
        assert any(hasattr(stage, "admit_batch") for stage in cascade.stages)

    def test_stages_share_budget_and_slack(self):
        cascade = build_cascade(DEFAULT_CASCADE, tiny_reference(), 3, 7)
        for stage in cascade.stages:
            assert stage.max_edits == 3
            assert stage.window_slack == 7


class TestFilterTable:
    def test_table_covers_every_registered_filter(self):
        table = render_filter_table()
        for name in filter_names():
            assert f"| `{name}` |" in table

    def test_table_batched_column_matches_specs(self):
        rows = render_filter_table().splitlines()[2:]
        for name, row in zip(filter_names(), rows):
            expected = "yes" if get_filter(name).batched else "no"
            assert f"| {expected} |" in row, name
