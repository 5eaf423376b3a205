"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "mitm", "--scheme", "magic"])

    def test_rejects_bad_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])


class TestCommands:
    def test_list_schemes(self):
        text = run_cli("list-schemes")
        assert "s-arp" in text
        assert "hybrid" in text
        assert "sdn-arp-guard" in text
        assert len(text.strip().splitlines()) == 14

    def test_table_1(self):
        text = run_cli("table", "1")
        assert "Table 1" in text
        assert "S-ARP" in text

    def test_table_1_csv(self):
        text = run_cli("table", "1", "--csv")
        assert text.startswith("Scheme,")
        assert len(text.strip().splitlines()) == 15

    def test_figure_3(self):
        text = run_cli("figure", "3")
        assert "resolution latency" in text
        assert "plain-arp" in text

    def test_demo_mitm_baseline(self):
        text = run_cli("demo", "mitm", "--duration", "10")
        assert "outcome=missed" in text

    def test_demo_mitm_with_scheme(self):
        text = run_cli("demo", "mitm", "--scheme", "dai", "--duration", "10")
        assert "outcome=prevented" in text

    def test_demo_dos(self):
        text = run_cli("demo", "dos", "--duration", "10")
        assert "service denied" in text

    def test_demo_dos_protected(self):
        text = run_cli("demo", "dos", "--scheme", "static-arp", "--duration", "10")
        assert "service survived" in text

    def test_demo_flood(self):
        text = run_cli("demo", "flood", "--duration", "3")
        assert "FAIL-OPEN" in text

    def test_demo_flood_with_port_security(self):
        text = run_cli("demo", "flood", "--scheme", "port-security", "--duration", "3")
        assert "holding" in text

    def test_demo_starvation(self):
        text = run_cli("demo", "starvation", "--duration", "20")
        assert "EXHAUSTED" in text

    def test_recommend(self):
        text = run_cli(
            "recommend", "--managed-switches", "--no-host-changes",
            "--infrastructure",
        )
        assert "dai" in text
        assert "Rejected:" in text

    def test_recommend_impossible(self):
        text = run_cli("recommend")
        assert "anticap" in text  # host schemes fit the default env

    def test_analyze_pcap(self, tmp_path):
        """Full loop: simulate an attack, export pcap, analyze via the CLI."""
        from repro import Lan, Simulator
        from repro.analysis.pcap import PcapWriter
        from repro.attacks import MitmAttack
        from repro.stack import WINDOWS_XP

        sim = Simulator(seed=12)
        lan = Lan(sim)
        monitor = lan.add_monitor()
        victim = lan.add_host("victim", profile=WINDOWS_XP)
        mallory = lan.add_host("mallory")
        victim.ping(lan.gateway.ip)
        sim.run(until=2.0)
        mitm = MitmAttack(mallory, victim, lan.gateway)
        mitm.start()
        sim.run(until=10.0)
        mitm.stop()
        pcap = tmp_path / "incident.pcap"
        with PcapWriter(pcap) as writer:
            for record in monitor.recorder.records:
                writer.append(record)

        text = run_cli("analyze", str(pcap))
        assert "rebinding events:" in text
        assert "changed" in text or "flip-flop" in text


class TestBenchCommand:
    def test_update_then_check_roundtrip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        text = run_cli("bench", "--quick", "--update", "--baseline", str(baseline))
        assert "broadcast_flood_deliveries" in text
        assert baseline.exists()

        text = run_cli(
            "bench", "--quick", "--check", "--baseline", str(baseline),
            "--tolerance", "0.05",
        )
        assert "bench check passed" in text
        assert "x baseline" in text  # ratio column rendered
        assert "# perf:" in text

    def test_check_without_baseline_fails(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["bench", "--quick", "--check", "--baseline",
             str(tmp_path / "missing.json")],
            out=out,
        )
        assert code == 1
        assert "no baseline" in out.getvalue()

    def test_regression_detected(self, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "meta": {},
            "results": {"decode_frame_eager": 1e12},  # impossible bar
        }))
        out = io.StringIO()
        code = main(
            ["bench", "--quick", "--check", "--baseline", str(baseline)],
            out=out,
        )
        assert code == 1
        assert "REGRESSION decode_frame_eager" in out.getvalue()


class TestRunCommand:
    """``repro run KIND``: --set routing, clean errors, one observer path."""

    def test_prints_the_result_as_json(self):
        import json

        text = run_cli("run", "effectiveness", "--scheme", "dai",
                       "--set", "n_hosts=3", "--set", "attack_duration=5")
        result = json.loads(text.splitlines()[0])
        assert result["kind"] == "EffectivenessResult"
        assert result["scheme"] == "dai" and result["prevented"]

    def test_set_routes_seed_to_the_kind_or_the_config(self):
        from repro.cli import _route_settings
        from repro.core.api import KINDS

        assert _route_settings(KINDS["overhead"], ["seed=3"]) == ({"seed": 3}, {})
        assert _route_settings(KINDS["effectiveness"], ["seed=3"]) == ({}, {"seed": 3})

    def test_set_parses_bools(self):
        from repro.cli import _route_settings
        from repro.core.api import KINDS

        params, overrides = _route_settings(
            KINDS["effectiveness"], ["with_monitor=false", "technique=gratuitous"]
        )
        assert params == {"technique": "gratuitous"}
        assert overrides == {"with_monitor": False}

    def test_unknown_key_lists_both_allowed_sets(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "overhead", "--set", "bogus=1"], out=io.StringIO())
        message = str(excinfo.value)
        assert "bogus" in message
        assert "['n_hosts', 'resolutions_per_host', 'seed']" in message
        assert "'attack_duration'" in message and "'with_monitor'" in message

    def test_faults_twice_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="faults given both"):
            main(["run", "effectiveness", "--faults", "loss=0.1",
                  "--set", "fault_spec=loss=0.2"], out=io.StringIO())

    def test_bad_testbed_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="at most 244"):
            main(["run", "effectiveness", "--set", "n_hosts=300"],
                 out=io.StringIO())

    def test_profiles_campus_churn(self, tmp_path):
        import re

        folded = tmp_path / "churn.folded"
        text = run_cli("run", "campus-churn", "--profile-out", str(folded))
        samples = sum(
            int(line.rsplit(" ", 1)[1]) for line in folded.read_text().splitlines()
        )
        assert samples >= 10
        attributed = re.search(r"# attributed: ([\d.]+)% of samples", text)
        assert attributed and float(attributed.group(1)) >= 90.0

    def test_replay_with_every_observer(self, tmp_path):
        import re

        from repro.obs.export import parse_jsonl, parse_prometheus
        from repro.obs.live import read_series
        from repro.obs.trace import TRACER

        paths = {
            "--trace-out": tmp_path / "trace.jsonl",
            "--metrics-out": tmp_path / "metrics.prom",
            "--profile-out": tmp_path / "replay.folded",
            "--telemetry-out": tmp_path / "telemetry.jsonl",
        }
        argv = ["run", "replay", "--set", "source=synthetic:frames=20k",
                "--scheme", "arpwatch"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        text = run_cli(*argv)
        assert not TRACER.enabled
        assert parse_jsonl(paths["--trace-out"].read_text())
        metrics = parse_prometheus(paths["--metrics-out"].read_text())
        assert sum(metrics["replay_frames_total"].values()) == 20_000
        for line in paths["--profile-out"].read_text().splitlines():
            assert re.fullmatch(r"\S.*? \d+", line), line
        assert read_series(paths["--telemetry-out"].read_text())
        for prefix in ("# trace:", "# profile:", "# telemetry:", "# metrics:"):
            assert prefix in text
