"""Tests for experiment infrastructure: scales, output rendering, CLI."""

import pytest

from repro.experiments.common import (ExperimentOutput, FULL, QUICK, SCALES,
                                      SMOKE, Scale, format_table, gib)
from repro.experiments import cli


class TestScale:
    def test_report_factor_inverse_of_rate(self):
        scale = Scale("x", rate=380.0, duration=10, monitor_period=5)
        assert scale.report_factor == pytest.approx(100.0)

    def test_clients_floor(self):
        tiny = Scale("x", rate=0.5, duration=10, monitor_period=5)
        assert tiny.clients == 50

    def test_presets_ordered_by_size(self):
        assert SMOKE.rate < QUICK.rate < FULL.rate
        assert SMOKE.duration < QUICK.duration < FULL.duration

    def test_frozen(self):
        with pytest.raises(Exception):
            SMOKE.rate = 999


class TestFormatTable:
    def test_columns_aligned(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["longer-name", 123456]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "longer-name" in lines[3]

    def test_float_formatting(self):
        table = format_table(["v"], [[0.12345], [12.3456], [12345.6], [0]])
        assert "0.1235" in table or "0.1234" in table
        assert "12.35" in table
        assert "12,346" in table
        assert "\n0" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table


class TestExperimentOutput:
    def test_render_structure(self):
        output = ExperimentOutput("figX", "a test", ["col1", "col2"],
                                  paper_claims={"claim": "value"},
                                  notes=["a note"])
        output.add_row("r1", 2)
        text = output.render()
        assert "== figX: a test ==" in text
        assert "col1" in text and "r1" in text
        assert "claim: value" in text
        assert "note: a note" in text

    def test_gib(self):
        assert gib(1024 ** 3) == 1.0


class TestCli:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["not-an-experiment"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["table1", "--scale", "galactic"])

    def test_runs_single_experiment(self, monkeypatch, capsys):
        fake = ExperimentOutput("fake", "fake title", ["c"])
        fake.add_row("v")
        monkeypatch.setitem(cli.EXPERIMENTS, "table1",
                            lambda scale: fake)
        assert cli.main(["table1", "--scale", "smoke"]) == 0
        captured = capsys.readouterr()
        assert "fake title" in captured.out

    def test_all_runs_everything(self, monkeypatch, capsys):
        calls = []

        def factory(name):
            def runner(scale):
                calls.append(name)
                output = ExperimentOutput(name, name, ["c"])
                output.add_row("v")
                return output
            return runner

        for name in list(cli.EXPERIMENTS):
            monkeypatch.setitem(cli.EXPERIMENTS, name, factory(name))
        assert cli.main(["all"]) == 0
        assert sorted(calls) == sorted(cli.EXPERIMENTS)

    def test_experiment_registry_complete(self):
        expected = {"table1", "fig6", "fig7", "fig8", "fig9", "fig9scale",
                    "fig10", "fig11", "fig13", "fig14", "fig15",
                    "hierarchy", "dos"}
        assert set(cli.EXPERIMENTS) == expected

    def test_scale_subcommand_runs_pipeline(self, tmp_path, capsys):
        import json
        out = tmp_path / "bench.json"
        assert cli.main(["scale", "--queries", "3000",
                         "--workdir", str(tmp_path),
                         "--json", str(out)]) == 0
        assert "streamed 3,000 queries" in capsys.readouterr().out
        record = json.loads(out.read_text())["scale_stream"]
        assert record["accounted_sends"] == 3000
        assert record["bytes_on_disk"] > 0
        # No shard files left behind (the run cleans its workdir).
        assert not any(p.name.startswith("scale-bench-")
                       for p in tmp_path.iterdir() if p.is_dir())

    @pytest.mark.parametrize("block", [4096, 7])
    def test_scale_block_fold_matches_per_record(self, monkeypatch, block):
        """The drain's block fold leaves exactly the folds one
        ``count_send`` per record leaves, float sums included, whether
        blocks end at a protocol change or at the block bound."""
        from repro.experiments import scale_bench
        from repro.replay.result import ReplayResult
        from repro.trace import scale_stream
        monkeypatch.setattr(scale_bench, "DRAIN_BLOCK", block)
        records = list(scale_stream(3000, client_count=200, seed=5))
        trace_start = records[0].timestamp
        one_by_one, blocked = (ReplayResult("scale", aggregate=True)
                               for _ in range(2))
        for result in (one_by_one, blocked):
            result.trace_start, result.start_clock = trace_start, 0.0
        for record in records:
            one_by_one.count_send(record.protocol, record.timestamp,
                                  record.timestamp - trace_start)
        ticks = []
        assert scale_bench.fold_sends(blocked, iter(records), trace_start,
                                      lambda: ticks.append(1)) == 3000
        assert len(ticks) == 3000
        assert blocked.protocol_counts == one_by_one.protocol_counts
        assert blocked.rate_buckets == one_by_one.rate_buckets
        assert blocked.send_error.to_state() \
            == one_by_one.send_error.to_state()


class TestReport:
    def _fake_registry(self):
        def runner(name):
            def run(scale):
                output = ExperimentOutput(name, f"title-{name}", ["col"])
                output.add_row("value")
                output.paper_claims["claim"] = "expected"
                return output
            return run
        return {"figA": runner("figA"), "figB": runner("figB")}

    def test_generate_contains_all_sections(self):
        from repro.experiments import report
        from repro.experiments.common import SMOKE
        document = report.generate(self._fake_registry(), SMOKE)
        assert "## figA: title-figA" in document
        assert "## figB: title-figB" in document
        assert "claim: expected" in document
        assert "smoke" in document

    def test_generate_subset(self):
        from repro.experiments import report
        from repro.experiments.common import SMOKE
        document = report.generate(self._fake_registry(), SMOKE,
                                   names=["figB"])
        assert "figB" in document and "figA" not in document

    def test_cli_report_to_file(self, monkeypatch, tmp_path, capsys):
        registry = self._fake_registry()
        monkeypatch.setattr(cli, "EXPERIMENTS", registry)
        out_file = tmp_path / "report.md"
        assert cli.main(["report", "-o", str(out_file)]) == 0
        content = out_file.read_text()
        assert "figA" in content and "figB" in content
