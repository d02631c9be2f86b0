"""Config parsing, CSV emission, and the command line entry point."""

import csv
import math

import pytest

from repeaterlab.cli import (
    CaseSpec,
    ConfigError,
    RunConfig,
    _GOLAY_THROUGHPUT_MEMORIES,
    emit_csv,
    emit_gnuplot,
    main,
    parse_config,
    render_config,
    report_operating_points,
    to_protocol_config,
)
from repeaterlab.pipeline import evaluate

HEADER = [
    "code",
    "family",
    "k",
    "tau_c_s",
    "one_minus_T",
    "L_km",
    "L0_km",
    "F",
    "F_final",
    "P0",
    "P_k",
    "rate_hz_per_memory",
]

SWEEP_TEXT = """\
# shared hardware
tau_c_s = 0.1
one_minus_t = 1e-3
rounds = 2

[case rep3]
code = [3,1,3]

[case golay]
code = [23,1,7]
tau_c_s = 1.0
"""


class TestParseConfig:
    def test_empty_text_single_default_case(self):
        rc = parse_config("")
        assert rc.cases == (CaseSpec(),)
        assert rc.cases[0].code == "[3,1,3]"
        assert rc.cases[0].fidelity == 0.95

    def test_inheritance(self):
        rc = parse_config(SWEEP_TEXT)
        rep3, golay = rc.cases
        assert rep3.name == "rep3"
        assert rep3.tau_c_s == 0.1          # inherited
        assert golay.tau_c_s == 1.0         # overridden
        assert golay.one_minus_t == 1e-3    # inherited
        assert golay.code == "[23,1,7]"
        assert rep3.rounds == golay.rounds == 2

    def test_unnamed_case_numbering(self):
        rc = parse_config("[case]\nrounds = 1\n[case]\nrounds = 3\n")
        assert [c.name for c in rc.cases] == ["case1", "case2"]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("bogus_key = 1\n", "line 1"),
            ("rounds = 2\nbogus_key = 1\n", "line 2"),
            ("rounds = many\n", "bad value"),
            ("[grid]\n", "unknown section"),
            ("[case x\n", "unterminated"),
            ("just words\n", "expected key = value"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_none_literal(self):
        rc = parse_config("fidelity = none\nalpha = 20.0\ntheta_rad = 0.01\n")
        case = rc.cases[0]
        assert case.fidelity is None
        assert case.alpha == 20.0

    def test_exclusive_sources_same_level(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("fidelity = 0.9\nalpha = 20.0\n")

    def test_channel_case_clears_default_fidelity(self):
        rc = parse_config("fidelity = 0.9\n[case q]\nalpha = 20.0\ntheta_rad = 0.01\n")
        assert rc.cases[0].fidelity is None
        assert rc.cases[0].alpha == 20.0

    def test_fidelity_case_clears_channel(self):
        rc = parse_config("alpha = 20.0\ntheta_rad = 0.01\n[case f]\nfidelity = 0.9\n")
        assert rc.cases[0].fidelity == 0.9
        assert rc.cases[0].alpha is None
        assert rc.cases[0].theta_rad is None


class TestOverrides:
    def test_beat_top_level_but_not_cases(self):
        rc = parse_config(SWEEP_TEXT, overrides=["tau_c_s=0.5"])
        rep3, golay = rc.cases
        assert rep3.tau_c_s == 0.5   # --set beats the file default
        assert golay.tau_c_s == 1.0  # explicit case assignment still wins

    def test_multiple(self):
        rc = parse_config("", overrides=["rounds=3", "code=[7,1,3]"])
        assert rc.cases[0].rounds == 3
        assert rc.cases[0].code == "[7,1,3]"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="--set"):
            parse_config("", overrides=["bogus=1"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("", overrides=["rounds"])

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("", overrides=["rounds=two"])


class TestRenderRoundTrip:
    def test_round_trip(self):
        rc = RunConfig(
            (
                CaseSpec(name="a", code="[23,1,7]", rounds=1, tau_c_s=0.25),
                CaseSpec(name="b", fidelity=None, alpha=18.0, theta_rad=0.012),
            )
        )
        assert parse_config(render_config(rc)) == rc

    def test_renders_none_free_text(self):
        text = render_config(RunConfig((CaseSpec(),)))
        assert "none" not in text
        assert "[case default]" in text


class TestToProtocolConfig:
    def test_fidelity_route(self):
        cfg = to_protocol_config(CaseSpec(attenuation_km=30.0))
        assert cfg.fidelity == 0.95
        assert cfg.channel is None
        assert cfg.segment_transmittance() == pytest.approx(math.exp(-20.0 / 30.0), rel=1e-12)

    def test_channel_route(self):
        case = CaseSpec(fidelity=None, alpha=20.0, theta_rad=0.01)
        cfg = to_protocol_config(case)
        assert cfg.fidelity is None
        assert cfg.channel.qubus_strength == 20.0
        assert cfg.channel.segment_length_km == 20.0
        assert 0.5 < cfg.raw_fidelity() < 1.0

    def test_missing_both_sources(self):
        with pytest.raises(ConfigError, match="need fidelity"):
            to_protocol_config(CaseSpec(fidelity=None))

    @pytest.mark.parametrize("label", ["[3,1,3]", "3,1,3", "[[3,1,3]]", " [3, 1, 3] "])
    def test_label_spellings(self, label):
        assert to_protocol_config(CaseSpec(code=label)).code.n == 3

    def test_unknown_code_lists_catalog(self):
        with pytest.raises(ConfigError, match=r"known codes: .*\[23,1,7\]"):
            to_protocol_config(CaseSpec(code="[5,1,5]"))


class TestCsv:
    def rows(self):
        rc = parse_config(SWEEP_TEXT)
        return [evaluate(to_protocol_config(c)) for c in rc.cases]

    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.rows(), str(path))
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == HEADER
        assert len(table) == 3
        assert table[1][0] == "[3,1,3]"
        assert table[2][0] == "[23,1,7]"
        # 8 significant digits
        assert len(table[1][7].replace(".", "").replace("-", "").lstrip("0")) <= 8

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [HEADER]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = self.rows()
        emit_csv(rows, str(a))
        emit_csv(rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gnuplot_companion(self, tmp_path):
        path = tmp_path / "out.dat"
        emit_gnuplot(self.rows(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# " + " ".join(HEADER)
        assert len(lines) == 3
        assert lines[1].split()[0] == "[3,1,3]"


class TestReport:
    def test_canonical_rows(self):
        rows = report_operating_points(0.95)
        assert [r.name for r in rows] == ["repetition-3", "golay", "steane", "golay-station"]
        by_name = {r.name: r for r in rows}
        assert all(r.feasible for r in rows)
        station = by_name["golay-station"]
        assert station.memories == _GOLAY_THROUGHPUT_MEMORIES
        assert station.throughput_hz == pytest.approx(
            by_name["golay"].rate_per_memory_hz * _GOLAY_THROUGHPUT_MEMORIES, rel=1e-12
        )
        assert by_name["repetition-3"].rate_per_memory_hz > by_name["golay"].rate_per_memory_hz


class TestMain:
    def test_fidelity_ok(self, capsys):
        rc = main(["fidelity", "--code", "[3,1,3]", "--rounds", "2", "--fidelity", "0.95"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "F_final = " in out
        assert "rate_hz_per_memory = " in out

    def test_operating_point_feasible(self, capsys):
        rc = main(
            [
                "operating-point",
                "--code", "[3,1,3]",
                "--rounds", "2",
                "--tau-c", "0.01",
                "--one-minus-t", "1e-4",
                "--target", "0.95",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "operating_fidelity = 0.91479" in out

    def test_operating_point_infeasible(self, capsys):
        rc = main(
            [
                "operating-point",
                "--code", "[1,1,1]",
                "--rounds", "0",
                "--target", "0.9",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "infeasible" in out
        assert "0.85135656" in out

    def test_rate_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SWEEP_TEXT)
        out = tmp_path / "rates.csv"
        rc = main(["rate-sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        with open(out, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == HEADER
        assert len(table) == 3

    def test_rate_sweep_set_override(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("code = [3,1,3]\n")
        out = tmp_path / "rates.csv"
        assert main(["rate-sweep", "--config", str(cfg), "--out", str(out), "--set", "rounds=1"]) == 0
        with open(out, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[1][2] == "1"

    def test_rate_sweep_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for text, message in (("bogus = 1\n", "error:"), ("rounds = 2000\n", "error: rounds must be")):
            cfg.write_text(text)
            rc = main(["rate-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_rate_sweep_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["rate-sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_qubus_check_exit_codes(self, capsys):
        assert main(["qubus-check", "--n", "3", "--theta-rad", "0.01"]) == 0
        assert "feasible: True" in capsys.readouterr().out
        assert main(["qubus-check", "--n", "11", "--theta-rad", "0.01"]) == 1
        assert "feasible: False" in capsys.readouterr().out

    def test_qubus_check_plan_and_beta(self, capsys):
        rc = main(
            [
                "qubus-check",
                "--n", "3",
                "--theta-rad", "0.01",
                "--show-plan",
                "--beta", "90000",
                "--target-error", "1e-5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "000 -> 0" in out
        assert "qubus 2:" in out
        assert "homodyne_error" in out
        assert "min_beta" in out

    def test_montecarlo_metadata_and_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        rc = main(
            [
                "montecarlo",
                "--code", "[3,1,3]",
                "--rounds", "0",
                "--fidelity", "0.95",
                "--blocks", "2048",
                "--trials", "500",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "rng = numpy PCG64, SeedSequence(seed=3), blocks = 2048" in stdout
        assert "|z| =" in stdout
        with open(out, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == HEADER + ["rate_mc_hz", "stderr_hz", "z"]
        assert len(table) == 2
        assert float(table[1][-2]) > 0.0
        assert float(table[1][-1]) <= 3.0

    def test_report_prints_station_row(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "golay-station" in out
        assert "x 166 memories" in out
