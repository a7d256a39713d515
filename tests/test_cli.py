"""Tests for the repro-genax command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.filters import filter_names
from repro.genome.fasta import read_fasta, read_fastq


@pytest.fixture()
def simulated(tmp_path):
    ref = tmp_path / "ref.fa"
    reads = tmp_path / "reads.fq"
    code = main(
        [
            "simulate",
            "--length", "8000",
            "--reads", "8",
            "--seed", "5",
            "--out-reference", str(ref),
            "--out-reads", str(reads),
        ]
    )
    assert code == 0
    return ref, reads


class TestSimulate:
    def test_outputs_created(self, simulated):
        ref, reads = simulated
        assert len(read_fasta(ref)[0][1]) == 8000
        assert len(read_fastq(reads)) == 8

    def test_ground_truth_in_names(self, simulated):
        __, reads = simulated
        name = read_fastq(reads)[0].name
        parts = name.split("|")
        assert len(parts) == 3
        assert parts[2] in "+-"
        assert int(parts[1]) >= 0

    def test_deterministic(self, tmp_path):
        out = []
        for run in ("a", "b"):
            ref = tmp_path / f"ref_{run}.fa"
            reads = tmp_path / f"reads_{run}.fq"
            main(["simulate", "--length", "2000", "--reads", "3", "--seed", "9",
                  "--out-reference", str(ref), "--out-reads", str(reads)])
            out.append(read_fasta(ref)[0][1])
        assert out[0] == out[1]


class TestAlign:
    @pytest.mark.parametrize("pipeline", ["genax", "bwamem"])
    def test_align_pipelines(self, simulated, tmp_path, pipeline, capsys):
        ref, reads = simulated
        out = tmp_path / f"{pipeline}.sam"
        code = main(
            ["align", str(ref), str(reads), str(out),
             "--pipeline", pipeline, "--edit-bound", "10", "--segments", "2"]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("@HD")
        assert "mapped" in capsys.readouterr().out
        # Mapped positions should match the encoded ground truth.
        hits = 0
        for line in text.splitlines():
            if line.startswith("@"):
                continue
            fields = line.split("\t")
            true_pos = int(fields[0].split("|")[1])
            if fields[3] != "0" and abs(int(fields[3]) - 1 - true_pos) <= 10:
                hits += 1
        assert hits >= 6  # most of the 8 reads land on the truth


class TestAlignParallel:
    def test_jobs_prefilter_cache_matches_serial(self, simulated, tmp_path, capsys):
        """`--jobs/--filters myers/--cache-dir` produce the same SAM as serial."""
        ref, reads = simulated
        serial_out = tmp_path / "serial.sam"
        parallel_out = tmp_path / "parallel.sam"
        base = ["align", str(ref), str(reads),
                "--edit-bound", "10", "--segments", "2"]
        assert main(base + [str(serial_out)]) == 0
        code = main(
            base
            + [str(parallel_out), "--jobs", "2", "--filters", "myers",
               "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs" in out
        assert "filters rejected" in out
        serial_body = [l for l in serial_out.read_text().splitlines()
                       if not l.startswith("@")]
        parallel_body = [l for l in parallel_out.read_text().splitlines()
                         if not l.startswith("@")]
        assert parallel_body == serial_body
        # The cache directory now holds a persisted index entry.
        assert list((tmp_path / "cache").glob("genax-index-*.tables"))

    def test_bwamem_jobs_matches_serial(self, simulated, tmp_path, capsys):
        """Satellite: `--pipeline bwamem --jobs 4` shards through the same
        parallel driver — no warning, identical SAM, uniform summary."""
        ref, reads = simulated
        serial_out = tmp_path / "bwamem_serial.sam"
        parallel_out = tmp_path / "bwamem_parallel.sam"
        base = ["align", str(ref), str(reads),
                "--pipeline", "bwamem", "--edit-bound", "10"]
        assert main(base + [str(serial_out)]) == 0
        assert main(base + [str(parallel_out), "--jobs", "4"]) == 0
        captured = capsys.readouterr()
        assert "only apply" not in captured.err  # no jobs-ignored warning
        assert "bwamem: mapped" in captured.out
        assert "4 job(s)" in captured.out
        assert parallel_out.read_text() == serial_out.read_text()

    def test_bwamem_cache_dir_flag_warns(self, simulated, tmp_path, capsys):
        ref, reads = simulated
        out = tmp_path / "warn.sam"
        assert main(["align", str(ref), str(reads), str(out),
                     "--pipeline", "bwamem", "--edit-bound", "10",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "only applies to the genax pipeline" in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, simulated, tmp_path):
        ref, reads = simulated
        with pytest.raises(SystemExit):
            main(["align", str(ref), str(reads), str(tmp_path / "x.sam"),
                  "--jobs", "0"])


class TestAlignTelemetry:
    """The observability flags: --profile, --trace-out, --metrics-out."""

    def test_no_flags_writes_no_artifacts(self, simulated, tmp_path):
        ref, reads = simulated
        out = tmp_path / "plain.sam"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2"]) == 0
        assert not (tmp_path / "plain.sam.manifest.json").exists()

    def test_profile_prints_stage_table(self, simulated, tmp_path, capsys):
        ref, reads = simulated
        out = tmp_path / "profiled.sam"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2",
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "pipeline profile" in err
        for stage in ("seed", "filter_batch", "extend_batch", "select"):
            assert stage in err
        assert "wall time:" in err
        assert "work: reads=8" in err

    def test_trace_out_loads_as_chrome_trace(self, simulated, tmp_path):
        import json

        ref, reads = simulated
        out = tmp_path / "traced.sam"
        trace = tmp_path / "trace.json"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2",
                     "--trace-out", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert {"align_run", "seed", "read", "select"} <= names
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends > 0

    def test_metrics_out_json_and_manifest(self, simulated, tmp_path):
        import json

        ref, reads = simulated
        out = tmp_path / "metered.sam"
        metrics = tmp_path / "metrics.json"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2",
                     "--metrics-out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["pipeline_reads_total"]["value"] == 8
        # Backend hardware counters are published alongside stage metrics.
        assert counters["genax_reads_total"]["value"] == 8
        manifest = json.loads(
            (tmp_path / "metered.sam.manifest.json").read_text()
        )
        assert manifest["backend"] == "genax"
        assert manifest["reads_total"] == 8
        assert manifest["command"][0] == "repro-genax"
        assert "--metrics-out" in manifest["command"]

    def test_metrics_out_prom_format(self, simulated, tmp_path):
        ref, reads = simulated
        out = tmp_path / "prom.sam"
        metrics = tmp_path / "metrics.prom"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE pipeline_reads_total counter" in text
        assert 'pipeline_stage_seconds_seed_bucket{le="+Inf"}' in text

    def test_profile_jobs4_reconciles_with_merged_registry(
        self, simulated, tmp_path, capsys
    ):
        """Acceptance: the --jobs 4 profile table and the exported merged
        registry tell one story, and it matches the serial run's work."""
        import json

        ref, reads = simulated
        serial_metrics = tmp_path / "serial.json"
        parallel_metrics = tmp_path / "parallel.json"
        base = ["align", str(ref), str(reads),
                "--edit-bound", "10", "--segments", "2"]
        assert main(base + [str(tmp_path / "s.sam"),
                            "--metrics-out", str(serial_metrics)]) == 0
        capsys.readouterr()
        assert main(base + [str(tmp_path / "p.sam"), "--jobs", "4",
                            "--profile",
                            "--metrics-out", str(parallel_metrics)]) == 0
        err = capsys.readouterr().err
        serial = json.loads(serial_metrics.read_text())["metrics"]
        parallel = json.loads(parallel_metrics.read_text())["metrics"]
        for name in ("pipeline_reads_total", "pipeline_seeds_total",
                     "pipeline_candidates_total", "pipeline_extensions_total"):
            assert (parallel["counters"][name]["value"]
                    == serial["counters"][name]["value"]), name
        # The printed work line agrees with the merged registry.
        reads_total = parallel["counters"]["pipeline_reads_total"]["value"]
        assert f"work: reads={reads_total}" in err
        # The printed stage calls agree with the merged stage histograms.
        extend_calls = parallel["histograms"][
            "pipeline_stage_seconds_extend_batch"
        ]["count"]
        extend_row = next(
            line for line in err.splitlines()
            if line.startswith("extend_batch")
        )
        assert str(extend_calls) in extend_row.split()
        # SAM output is still bit-identical to the serial run.
        assert (tmp_path / "p.sam").read_text() == (
            tmp_path / "s.sam"
        ).read_text()


class TestDistance:
    def test_within_k(self, capsys):
        assert main(["distance", "GATTACA", "GATTTACA"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_beyond_k(self, capsys):
        assert main(["distance", "AAAA", "TTTT", "--k", "2"]) == 1
        assert capsys.readouterr().out.strip() == "> 2"

    def test_case_insensitive(self, capsys):
        assert main(["distance", "acgt", "ACGT"]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestEvaluate:
    def test_evaluate_prints_summary(self, capsys):
        assert main(["evaluate"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Fig. 15a" in out


class TestEndToEnd:
    def test_simulate_align_parse_roundtrip(self, simulated, tmp_path):
        """CLI workflow: simulate -> align -> parse the SAM back."""
        from repro.pipeline.sam import read_sam

        ref, reads = simulated
        out = tmp_path / "roundtrip.sam"
        assert main(["align", str(ref), str(reads), str(out),
                     "--edit-bound", "10", "--segments", "2"]) == 0
        records = read_sam(out)
        assert len(records) == 8
        accurate = 0
        for record in records:
            true_pos = int(record.read_name.split("|")[1])
            if not record.is_unmapped and abs(record.position - true_pos) <= 10:
                accurate += 1
        assert accurate >= 6


class TestSeeds:
    def test_seeds_printed(self, simulated, capsys):
        ref, __ = simulated
        sequence = read_fasta(ref)[0][1]
        read = sequence[100:160]
        assert main(["seeds", str(ref), read, "--kmer", "12"]) == 0
        out = capsys.readouterr().out
        assert "offset=0" in out
        assert "length=60" in out

    def test_no_seeds(self, simulated, capsys):
        ref, __ = simulated
        assert main(["seeds", str(ref), "N" * 0 + "A" * 12, "--kmer", "12"]) == 0
        # Poly-A may or may not hit; just require the command to run and
        # print something sensible.
        assert capsys.readouterr().out.strip()


class TestFilterCascadeCli:
    """The --filters cascade spec."""

    BASE = ["--edit-bound", "10", "--segments", "2"]

    def test_filters_myers_matches_unfiltered(
        self, simulated, tmp_path, capsys
    ):
        ref, reads = simulated
        plain_out = tmp_path / "plain.sam"
        myers_out = tmp_path / "myers.sam"
        assert main(["align", str(ref), str(reads), str(plain_out),
                     *self.BASE]) == 0
        assert "filters rejected" not in capsys.readouterr().out
        assert main(["align", str(ref), str(reads), str(myers_out),
                     *self.BASE, "--filters", "myers"]) == 0
        summary = capsys.readouterr().out
        rejected, checked = (
            summary.rsplit("rejected", 1)[1].split()[0].split("/")
        )
        assert 0 <= int(rejected) <= int(checked)
        assert int(checked) > 0
        assert myers_out.read_text() == plain_out.read_text()

    @pytest.mark.parametrize("pipeline", ["genax", "bwamem", "bitvector"])
    def test_full_cascade_matches_unfiltered(
        self, simulated, tmp_path, pipeline, capsys
    ):
        ref, reads = simulated
        plain_out = tmp_path / "plain.sam"
        cascade_out = tmp_path / "cascade.sam"
        assert main(["align", str(ref), str(reads), str(plain_out),
                     "--pipeline", pipeline, *self.BASE]) == 0
        capsys.readouterr()
        assert main(["align", str(ref), str(reads), str(cascade_out),
                     "--pipeline", pipeline, *self.BASE,
                     "--filters", ",".join(filter_names())]) == 0
        assert "filters rejected" in capsys.readouterr().out
        assert cascade_out.read_text() == plain_out.read_text()

    def test_bitvector_always_verifies_with_myers(
        self, simulated, tmp_path, capsys
    ):
        # The myers stage is the bitvector pipeline's only verifier: its
        # summary counts every candidate checked, and --filters is ignored.
        ref, reads = simulated
        plain_out = tmp_path / "plain.sam"
        flagged_out = tmp_path / "flagged.sam"
        assert main(["align", str(ref), str(reads), str(plain_out),
                     "--pipeline", "bitvector", *self.BASE]) == 0
        plain = capsys.readouterr()
        assert "does not apply" not in plain.err
        rejected, checked = (
            plain.out.rsplit("rejected", 1)[1].split()[0].split("/")
        )
        assert 0 <= int(rejected) <= int(checked)
        assert int(checked) > 0
        assert main(["align", str(ref), str(reads), str(flagged_out),
                     "--pipeline", "bitvector", *self.BASE,
                     "--filters", "none"]) == 0
        flagged = capsys.readouterr()
        assert "--filters does not apply to the bitvector" in flagged.err
        assert f"filters rejected {rejected}/{checked}" in flagged.out
        assert flagged_out.read_text() == plain_out.read_text()

    def test_filters_none_is_explicitly_no_cascade(
        self, simulated, tmp_path, capsys
    ):
        ref, reads = simulated
        out = tmp_path / "none.sam"
        assert main(["align", str(ref), str(reads), str(out),
                     *self.BASE, "--filters", "none"]) == 0
        assert "filters rejected" not in capsys.readouterr().out

    def test_unknown_filter_name_rejected(self, simulated, tmp_path):
        ref, reads = simulated
        out = tmp_path / "bad.sam"
        with pytest.raises(SystemExit, match="--filters"):
            main(["align", str(ref), str(reads), str(out),
                  *self.BASE, "--filters", "myers,bogus"])

    def test_repeated_filter_name_rejected(self, simulated, tmp_path):
        ref, reads = simulated
        out = tmp_path / "dup.sam"
        with pytest.raises(SystemExit, match="repeated"):
            main(["align", str(ref), str(reads), str(out),
                  *self.BASE, "--filters", "myers,myers"])


class TestScenarioProfiles:
    """The scenario surface: simulate --profile, align --paired/longread."""

    @pytest.mark.parametrize("profile", ["nanopore", "paired_end", "sv"])
    def test_simulate_profiles(self, tmp_path, profile, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        code = main(
            ["simulate", "--length", "2000", "--reads", "2", "--seed", "5",
             "--profile", profile,
             "--out-reference", str(ref), "--out-reads", str(reads)]
        )
        assert code == 0
        assert profile in capsys.readouterr().out
        records = read_fastq(reads)
        assert len(records) == (4 if profile == "paired_end" else 2)
        for record in records:
            assert len(record.quality) == len(record.sequence)

    def test_simulate_profile_deterministic(self, tmp_path):
        sequences = []
        for run in ("a", "b"):
            ref = tmp_path / f"ref_{run}.fa"
            reads = tmp_path / f"reads_{run}.fq"
            main(["simulate", "--length", "2000", "--reads", "2", "--seed",
                  "9", "--profile", "nanopore",
                  "--out-reference", str(ref), "--out-reads", str(reads)])
            sequences.append([r.sequence for r in read_fastq(reads)])
        assert sequences[0] == sequences[1]

    def test_align_paired_reports_pair_summary(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main(["simulate", "--length", "4000", "--reads", "3", "--seed", "5",
              "--profile", "paired_end",
              "--out-reference", str(ref), "--out-reads", str(reads)])
        capsys.readouterr()
        out = tmp_path / "out.sam"
        code = main(
            ["align", str(ref), str(reads), str(out), "--paired",
             "--insert-mean", "350", "--insert-slack", "140",
             "--edit-bound", "10", "--segments", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "pairs proper" in printed
        assert "mates rescued" in printed

    def test_align_paired_rejects_parallel_jobs(self, tmp_path):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main(["simulate", "--length", "2000", "--reads", "1", "--seed", "5",
              "--profile", "paired_end",
              "--out-reference", str(ref), "--out-reads", str(reads)])
        with pytest.raises(SystemExit, match="--paired requires --jobs 1"):
            main(["align", str(ref), str(reads), str(tmp_path / "o.sam"),
                  "--paired", "--jobs", "2"])

    def test_align_paired_rejects_odd_read_count(self, simulated, tmp_path):
        # The plain simulate fixture wrote 8 single-end reads; truncate
        # the FASTQ to 3 records to break mate interleaving.
        ref, reads = simulated
        records = read_fastq(reads)[:3]
        from repro.genome.fasta import write_fastq

        odd = tmp_path / "odd.fq"
        write_fastq(odd, records)
        with pytest.raises(SystemExit, match="even read count"):
            main(["align", str(ref), str(odd), str(tmp_path / "o.sam"),
                  "--paired"])

    def test_align_longread_pipeline(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main(["simulate", "--length", "2000", "--reads", "2", "--seed", "5",
              "--profile", "nanopore",
              "--out-reference", str(ref), "--out-reads", str(reads)])
        capsys.readouterr()
        out = tmp_path / "out.sam"
        code = main(
            ["align", str(ref), str(reads), str(out),
             "--pipeline", "longread", "--kmer", "13"]
        )
        assert code == 0
        assert "longread" in capsys.readouterr().out
        assert out.exists()


class TestMalformedFastq:
    """A malformed FASTQ ends ``align`` with one line naming the record."""

    def _align(self, simulated, tmp_path, text):
        ref, __ = simulated
        bad = tmp_path / "bad.fq"
        bad.write_text(text)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        return bad, subprocess.run(
            [sys.executable, "-m", "repro.cli", "align", str(ref), str(bad),
             str(tmp_path / "out.sam")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_nine_line_file_names_the_truncated_record(
        self, simulated, tmp_path
    ):
        text = "@r1\nACGT\n+\nIIII\n@r2\nACGG\n+\nIIII\n@r3\n"
        bad, result = self._align(simulated, tmp_path, text)
        assert result.returncode != 0
        assert result.stderr.splitlines() == [
            f"error: {bad}: FASTQ record 3 ('r3') is truncated: 1 of 4 lines"
        ]

    def test_quality_length_mismatch_names_the_record(
        self, simulated, tmp_path
    ):
        text = "@r1\nACGT\n+\nIIII\n@r2\nACGTA\n+\nIIII\n"
        bad, result = self._align(simulated, tmp_path, text)
        assert result.returncode != 0
        assert result.stderr.splitlines() == [
            f"error: {bad}: FASTQ record 2 ('r2') has 4 quality characters "
            "for 5 bases"
        ]
        assert not (tmp_path / "out.sam").exists()
