"""Tests for repro.genome.fasta."""

import re

import pytest

from repro.genome.fasta import (
    iter_fastq,
    parse_fasta,
    parse_fastq,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)
from repro.genome.reads import Read


class TestFasta:
    def test_parse_single_record(self):
        records = parse_fasta(">chr1 description\nACGT\nACGT\n")
        assert records == [("chr1", "ACGTACGT")]

    def test_parse_multiple_records(self):
        records = parse_fasta(">a\nAC\n>b\nGT\n")
        assert records == [("a", "AC"), ("b", "GT")]

    def test_lowercase_normalized(self):
        assert parse_fasta(">a\nacgt\n")[0][1] == "ACGT"

    def test_blank_lines_ignored(self):
        assert parse_fasta(">a\n\nAC\n\nGT\n") == [("a", "ACGT")]

    def test_data_before_header_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta("ACGT\n>a\n")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ref.fa"
        records = [("chr1", "ACGT" * 30), ("chr2", "GGCC")]
        write_fasta(path, records, width=25)
        assert read_fasta(path) == records

    def test_wrapping(self, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta(path, [("x", "A" * 100)], width=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 11  # header + 10 wrapped lines
        assert all(len(line) <= 10 for line in lines[1:])


class TestFastq:
    def test_parse(self):
        reads = parse_fastq("@r1\nACGT\n+\nIIII\n")
        assert reads == [Read("r1", "ACGT", "IIII")]

    def test_parse_multiple(self):
        text = "@r1\nAC\n+\nII\n@r2\nGT\n+\nJJ\n"
        assert [r.name for r in parse_fastq(text)] == ["r1", "r2"]

    def test_bad_record_count(self):
        with pytest.raises(ValueError):
            parse_fastq("@r1\nACGT\n+\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_fastq("r1\nACGT\n+\nIIII\n")

    def test_bad_separator(self):
        with pytest.raises(ValueError):
            parse_fastq("@r1\nACGT\n-\nIIII\n")

    def test_errors_name_the_record(self):
        good = "@r1\nACGT\n+\nIIII\n"
        cases = [
            (good + "@r2\nAC\n", "record 2 ('r2') is truncated: 2 of 4"),
            (good + "r2\nAC\n+\nII\n", "record 2 header is not '@<name>'"),
            (good + "@\nAC\n+\nII\n", "record 2 header is not '@<name>'"),
            (good + "@r2\nAC\n-\nII\n",
             "record 2 ('r2') separator does not start with '+'"),
            (good + "@r2 x\nAC\n+\nIII\n",
             "record 2 ('r2') has 3 quality characters for 2 bases"),
        ]
        for text, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_fastq(text)

    def test_zero_length_read_keeps_later_records_in_step(self, tmp_path):
        text = "@r1\n\n+\n\n@r2\nACGT\n+\nIIII\n"
        reads = [Read("r1", "", ""), Read("r2", "ACGT", "IIII")]
        assert parse_fastq(text) == reads
        path = tmp_path / "reads.fq"
        path.write_text(text)
        assert list(iter_fastq(path)) == reads

    def test_blank_lines_after_the_last_record_are_ignored(self, tmp_path):
        text = "@r1\nACGT\n+\nIIII\n\n  \n"
        path = tmp_path / "reads.fq"
        path.write_text(text)
        assert parse_fastq(text) == list(iter_fastq(path)) == [
            Read("r1", "ACGT", "IIII")
        ]

    def test_blank_line_between_records_is_an_error(self):
        with pytest.raises(ValueError, match=re.escape("record 2 header")):
            parse_fastq("@r1\nACGT\n+\nIIII\n\n@r2\nACGT\n+\nIIII\n")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "reads.fq"
        reads = [Read("a", "ACGT", "IIII"), Read("b", "GGTT", "JJJJ")]
        write_fastq(path, reads)
        assert read_fastq(path) == reads

    def test_write_synthesizes_quality(self, tmp_path):
        path = tmp_path / "reads.fq"
        write_fastq(path, [Read("a", "ACGT")])
        assert read_fastq(path)[0].quality == "IIII"

    def test_iter_fastq_streams(self, tmp_path):
        path = tmp_path / "reads.fq"
        reads = [Read(f"r{i}", "ACGT", "IIII") for i in range(5)]
        write_fastq(path, reads)
        assert list(iter_fastq(path)) == reads

    def test_iter_fastq_truncated(self, tmp_path):
        path = tmp_path / "reads.fq"
        path.write_text("@r1\nACGT\n+\n")
        with pytest.raises(ValueError):
            list(iter_fastq(path))
