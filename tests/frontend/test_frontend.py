"""Unit tests for the front-end settings builder, dashboard and CLI."""

import pytest

from repro.core.config import SamplerAlgorithm
from repro.core.hdsampler import HDSampler
from repro.core.config import HDSamplerConfig
from repro.core.tradeoff import TradeoffSlider
from repro.exceptions import ConfigurationError
from repro.frontend.cli import build_parser, main
from repro.frontend.dashboard import Dashboard
from repro.frontend.settings import FrontEndSettings


class TestFrontEndSettings:
    def test_defaults_select_every_attribute(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        assert settings.selected_attributes == tiny_schema.attribute_names
        config = settings.build_config()
        assert config.attributes is None  # "all" is encoded as None

    def test_select_only_and_deselect(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.select_only("price", "make")
        assert settings.selected_attributes == ("make", "price")
        settings.deselect_attribute("price")
        assert settings.selected_attributes == ("make",)
        with pytest.raises(ConfigurationError):
            settings.deselect_attribute("make")

    def test_reselecting_keeps_schema_order(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.select_only("price")
        settings.select_attribute("make")
        assert settings.selected_attributes == ("make", "price")

    def test_bind_and_unbind_values(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.bind_value("color", "red")
        assert settings.bindings == {"color": "red"}
        assert "color" not in settings.selected_attributes
        config = settings.build_config()
        assert config.bindings == {"color": "red"}
        settings.unbind_value("color")
        assert settings.bindings == {}
        assert "color" in settings.selected_attributes

    def test_bind_validation(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        with pytest.raises(ConfigurationError):
            settings.bind_value("make", "Tesla")
        with pytest.raises(ConfigurationError):
            settings.unbind_value("make")

    def test_binding_a_selected_attribute_then_selecting_it_again_fails(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.bind_value("make", "Toyota")
        with pytest.raises(ConfigurationError):
            settings.select_attribute("make")

    def test_run_parameters(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.set_sample_count(42)
        settings.set_tradeoff(0.8)
        settings.set_algorithm("brute_force")
        settings.set_history_enabled(False)
        settings.set_seed(99)
        config = settings.build_config()
        assert config.n_samples == 42
        assert config.tradeoff.position == pytest.approx(0.8)
        assert config.algorithm is SamplerAlgorithm.BRUTE_FORCE
        assert not config.use_history
        assert config.seed == 99
        with pytest.raises(ConfigurationError):
            settings.set_sample_count(0)

    def test_describe_round_trips_through_config(self, tiny_schema):
        settings = FrontEndSettings(tiny_schema)
        settings.select_only("make")
        assert "make" in settings.describe()


class TestDashboard:
    def test_dashboard_tracks_progress_and_renders(self, tiny_interface):
        sampler = HDSampler(
            tiny_interface, HDSamplerConfig(n_samples=6, tradeoff=TradeoffSlider(1.0), seed=1)
        )
        dashboard = Dashboard(sampler, recent_samples=3, histogram_attributes=("make",))
        assert dashboard.render_progress_line() == "sampling not started"
        sampler.run()
        progress = dashboard.render_progress_line()
        assert "6/6 samples" in progress
        recent = dashboard.render_recent_samples()
        assert "make" in recent
        assert len(recent.splitlines()) <= 2 + 3  # header + separator + at most 3 rows
        full = dashboard.render()
        assert "samples" in full and "#" in full

    def test_dashboard_periodic_printing(self, tiny_interface):
        printed = []
        sampler = HDSampler(
            tiny_interface, HDSamplerConfig(n_samples=10, tradeoff=TradeoffSlider(1.0), seed=2)
        )
        Dashboard(sampler, printer=printed.append, print_every=5)
        sampler.run()
        assert len(printed) == 2  # at samples 5 and 10

    def test_recent_samples_validation(self, tiny_interface):
        sampler = HDSampler(tiny_interface, HDSamplerConfig(n_samples=2, seed=3))
        with pytest.raises(ValueError):
            Dashboard(sampler, recent_samples=-1)

    def test_dashboard_renders_the_attached_backend_stack(self, tiny_table):
        from repro.backends import engine_stack
        from repro.database.limits import QueryBudget

        stack = engine_stack(tiny_table, k=2, budget=QueryBudget(limit=50), history=True)
        sampler = HDSampler(stack, HDSamplerConfig(n_samples=4, tradeoff=TradeoffSlider(1.0), seed=4))
        dashboard = Dashboard(sampler, backend=stack)
        sampler.run()
        line = dashboard.render_backend_line()
        assert "QueryEngineBackend" in line and "issued" in line
        assert "budget" in line and "history saved" in line

    def test_dashboard_backend_line_without_backend(self, tiny_interface):
        sampler = HDSampler(tiny_interface, HDSamplerConfig(n_samples=2, seed=3))
        assert Dashboard(sampler).render_backend_line() == "no backend attached"


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "vehicles"
        assert args.samples == 100

    def test_cli_runs_the_boolean_demo(self, capsys):
        exit_code = main([
            "--dataset", "boolean", "--rows", "300", "--top-k", "10",
            "--samples", "15", "--tradeoff", "1.0", "--seed", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "samples requested : 15" in captured.out
        assert "a1" in captured.out
        assert "queries/sample" in captured.out

    def test_cli_runs_vehicles_with_bindings_and_aggregate(self, capsys):
        exit_code = main([
            "--rows", "800", "--top-k", "50", "--samples", "20",
            "--tradeoff", "0.9", "--seed", "5",
            "--where", "condition=used",
            "--histogram", "make",
            "--aggregate", "avg", "--measure", "price",
            "--progress",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "AVG" in captured.out
        assert "make" in captured.out

    def test_cli_reports_errors_cleanly(self, capsys):
        exit_code = main(["--where", "notanattr"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err

    def test_cli_rejects_unknown_binding_attribute(self, capsys):
        exit_code = main(["--rows", "100", "--samples", "5", "--where", "engine=V8"])
        assert exit_code == 2

    def test_cli_sharded_run_matches_unsharded(self, capsys):
        flags = ["--rows", "400", "--top-k", "20", "--samples", "10",
                 "--tradeoff", "1.0", "--seed", "6", "--histogram", "make"]
        assert main(flags + ["--shards", "1"]) == 0
        unsharded = capsys.readouterr().out
        assert main(flags + ["--shards", "4"]) == 0
        sharded = capsys.readouterr().out
        assert "ShardRouter" in sharded and "ShardRouter" not in unsharded
        # Identical samples, histograms and query accounting either way.
        assert [l for l in sharded.splitlines() if "samples=" in l] == [
            l for l in unsharded.splitlines() if "samples=" in l
        ]
        assert [l for l in sharded.splitlines() if "|" in l and "issued" not in l] == [
            l for l in unsharded.splitlines() if "|" in l and "issued" not in l
        ]
        # Same queries issued, counted once, on either access path.
        assert [l for l in sharded.splitlines() if "issued" in l][0].endswith(
            [l for l in unsharded.splitlines() if "issued" in l][0].split("|")[-1]
        )

    def test_cli_rejects_bad_shard_count(self, capsys):
        assert main(["--rows", "100", "--samples", "5", "--shards", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--parallel", "--batch"])
    def test_cli_has_no_fan_out_flags(self, capsys, flag):
        # A sampling job submits one query at a time, so there is no batch
        # for a worker pool or a wire batch to carry.
        with pytest.raises(SystemExit) as exit_info:
            main(["--rows", "100", "--samples", "5", "--shards", "2", flag, "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_samples_a_remote_endpoint(self, capsys):
        from repro.backends import engine_stack
        from repro.datasets.vehicles import (
            VehiclesConfig,
            default_vehicles_ranking,
            generate_vehicles_table,
        )
        from repro.web.httpd import HiddenDatabaseHTTPServer

        table = generate_vehicles_table(VehiclesConfig(n_rows=300, seed=0))
        served = engine_stack(
            table, 100, ranking=default_vehicles_ranking(), statistics=False
        )
        with HiddenDatabaseHTTPServer(served) as endpoint:
            exit_code = main(["--remote", endpoint.url, "--samples", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "RemoteBackend" in captured.out
        assert "samples=5" in captured.out

    def test_cli_lists_the_scenario_corpus(self, capsys):
        from repro.scenarios.corpus import build_corpus

        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario in build_corpus():
            assert scenario.name in out

    def test_cli_delegates_scenario_runs_to_the_harness(self, capsys):
        exit_code = main(["--scenario", "tiny_k"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tiny_k" in captured.out
        assert "PASS" in captured.out
