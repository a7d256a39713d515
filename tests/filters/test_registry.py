"""Tests for the filter registry and cascade-spec parsing."""

import pytest

from repro.filters import (
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
    def test_builtin_filters_registered(self):
        assert filter_names() == ("myers",)

    def test_get_filter_unknown_lists_known_names(self):
        with pytest.raises(ValueError, match="myers"):
            get_filter("no-such-filter")

    def test_duplicate_registration_rejected(self):
        spec = get_filter("myers")
        with pytest.raises(ValueError, match="already registered"):
            register_filter(
                FilterSpec(name=spec.name, summary="duplicate", build=spec.build)
            )

    def test_every_registered_stage_answers_through_admit_batch(self):
        reference = tiny_reference()
        for name in filter_names():
            stage = get_filter(name).build(reference, 2, 4)
            assert callable(getattr(stage, "admit_batch", None)), name
            assert stage.name == name


class TestCascadeSpec:
    @pytest.mark.parametrize("spec", ["", "  ", "none"])
    def test_empty_specs_mean_no_cascade(self, spec):
        assert parse_cascade_spec(spec) == ()

    def test_order_and_whitespace(self):
        assert parse_cascade_spec(" myers ") == ("myers",)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown filter"):
            parse_cascade_spec("myers,bogus")

    def test_repeated_name_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_cascade_spec("myers,myers")


class TestBuildCascade:
    def test_empty_names_build_no_cascade(self):
        assert build_cascade((), tiny_reference(), 2, 4) is None

    def test_registered_filters_build_in_order(self):
        cascade = build_cascade(filter_names(), tiny_reference(), 2, 4)
        assert isinstance(cascade, FilterCascade)
        assert cascade.stage_names == filter_names()

    def test_stages_share_budget_and_slack(self):
        cascade = build_cascade(filter_names(), tiny_reference(), 3, 7)
        for stage in cascade.stages:
            assert stage.max_edits == 3
            assert stage.window_slack == 7


class TestFilterTable:
    def test_table_covers_every_registered_filter(self):
        table = render_filter_table()
        for name in filter_names():
            assert f"| `{name}` |" in table
