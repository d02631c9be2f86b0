"""Config parsing, CSV emission, and the command line entry point."""

import contextlib
import csv
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterlab.cli import (
    CaseSpec,
    ConfigError,
    _CSV_HEADER,
    _GOLAY_THROUGHPUT_MEMORIES,
    _KEYS,
    _PLAN_MAX_N,
    _z_score,
    build_parser,
    emit_csv,
    emit_gnuplot,
    main,
    parse_config,
    report_operating_points,
    to_protocol_config,
)
from repeaterlab import montecarlo, oracle
from repeaterlab.codes import code_catalog
from repeaterlab.pipeline import SweepResult, evaluate

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

# every catalog code on the fidelity route, two channel cases and a channel
# so strong that the raw fidelity hits 1/2, an errored row
FROZEN_GRID = [
    CaseSpec(name=f"f{j}", code=code.label, rounds=j % 4, tau_c_s=10.0 ** (j % 3 - 1),
             one_minus_t=10.0 ** -(2 + j % 3), fidelity=0.8 + 0.02 * j, total_km=80.0 * 2**j)
    for j, code in enumerate(code_catalog())
] + [
    CaseSpec(name="q1", code="[3,1,3]", fidelity=None, alpha=20.0, theta_rad=0.01),
    CaseSpec(name="q2", code="[23,1,7]", rounds=1, fidelity=None, alpha=18.0, theta_rad=0.012),
    CaseSpec(name="dead", code="[7,1,3]", fidelity=None, alpha=1e6, theta_rad=0.01),
]


# labels that need quoting, or none, and floats at the edges of :.8g
_CSV_LABELS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "[", "]", "3", "\u00e9"]), max_size=6)
_CSV_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]), st.floats())


def render_config(cases) -> str:
    """Config text that parse_config reads back as ``cases``: one [case] section each, unset keys left out."""
    lines = []
    for case in cases:
        lines.append(f"[case {case.name}]")
        # the exclusivity rule re-clears the other fidelity source
        lines += [f"{key} = {getattr(case, key)}" for key in _KEYS if getattr(case, key) is not None]
        lines.append("")
    return "\n".join(lines)


class TestParseConfig:
    def test_empty_text_single_default_case(self):
        cases = parse_config("")
        assert cases == (CaseSpec(),)
        assert cases[0].code == "[3,1,3]"
        assert cases[0].fidelity == 0.95

    def test_inheritance(self):
        rep3, golay = parse_config(SWEEP_TEXT)
        assert rep3.name == "rep3"
        assert rep3.tau_c_s == 0.1          # inherited
        assert golay.tau_c_s == 1.0         # overridden
        assert golay.one_minus_t == 1e-3    # inherited
        assert golay.code == "[23,1,7]"
        assert rep3.rounds == golay.rounds == 2

    def test_unnamed_case_numbering(self):
        cases = parse_config("[case]\nrounds = 1\n[case]\nrounds = 3\n")
        assert [c.name for c in cases] == ["case1", "case2"]

    def test_none_literal(self):
        (case,) = parse_config("fidelity = none\nalpha = 20.0\ntheta_rad = 0.01\n")
        assert case.fidelity is None
        assert case.alpha == 20.0

    @pytest.mark.parametrize("literal", ["NONE", "None", " none "])
    def test_none_literal_any_case_and_in_overrides(self, literal):
        (case,) = parse_config(f"fidelity = {literal}\nalpha = 20.0\ntheta_rad = 0.01\n")
        assert case.fidelity is None
        (case,) = parse_config("", [f"fidelity={literal}", "alpha=20.0", "theta_rad=0.01"])
        assert case.fidelity is None

    def test_comment_holding_an_assignment_is_skipped(self):
        assert parse_config("# rounds = 3\n  # fidelity = none\n") == (CaseSpec(),)

    def test_header_holding_equals_names_the_case(self):
        (case,) = parse_config("[case a=b]\nrounds = 1\n")
        assert (case.name, case.rounds) == ("a=b", 1)

    def test_assignment_without_spaces(self):
        (case,) = parse_config("rounds=3\ncode=[7,1,3]\ntau_c_s=0.5\n")
        assert (case.rounds, case.code, case.tau_c_s) == (3, "[7,1,3]", 0.5)

    @pytest.mark.parametrize("pad", ["\xa0", "\x1f", "\u3000"])
    def test_values_padded_with_any_whitespace(self, pad):
        text = f"{pad}rounds ={pad}3{pad}\ntau_c_s{pad}={pad}0.5{pad}\ncode = {pad}[7,1,3]{pad}\n"
        (case,) = parse_config(text)
        assert (case.rounds, case.tau_c_s, case.code) == (3, 0.5, "[7,1,3]")
        (case,) = parse_config(f"fidelity ={pad}None\nalpha = 20.0\ntheta_rad = 0.01\n")
        assert case.fidelity is None

    def test_channel_case_clears_default_fidelity(self):
        (case,) = parse_config("fidelity = 0.9\n[case q]\nalpha = 20.0\ntheta_rad = 0.01\n")
        assert case.fidelity is None
        assert case.alpha == 20.0

    def test_fidelity_case_clears_channel(self):
        (case,) = parse_config("alpha = 20.0\ntheta_rad = 0.01\n[case f]\nfidelity = 0.9\n")
        assert case.fidelity == 0.9
        assert case.alpha is None
        assert case.theta_rad is None


class TestOverrides:
    def test_beat_top_level_but_not_cases(self):
        rep3, golay = parse_config(SWEEP_TEXT, overrides=["tau_c_s=0.5"])
        assert rep3.tau_c_s == 0.5   # --set beats the file default
        assert golay.tau_c_s == 1.0  # explicit case assignment still wins

    def test_multiple(self):
        (case,) = parse_config("", overrides=["rounds=3", "code=[7,1,3]"])
        assert case.rounds == 3
        assert case.code == "[7,1,3]"


class TestRenderRoundTrip:
    def test_round_trip(self):
        cases = (
            CaseSpec(name="a", code="[23,1,7]", rounds=1, tau_c_s=0.25),
            CaseSpec(name="b", fidelity=None, alpha=18.0, theta_rad=0.012),
        )
        assert parse_config(render_config(cases)) == cases

    def test_renders_none_free_text(self):
        text = render_config((CaseSpec(),))
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

    @pytest.mark.parametrize("label", ["[3,1,3]", "3,1,3", "[[3,1,3]]", " [3, 1, 3] "])
    def test_label_spellings(self, label):
        assert to_protocol_config(CaseSpec(code=label)).code.n == 3

    @pytest.mark.parametrize("label", ["[23,1,7]", "23,1,7", " [23, 1, 7] "])
    def test_golay_spellings(self, label):
        assert to_protocol_config(CaseSpec(code=label)).code.label == "[23,1,7]"


class TestCsv:
    def rows(self):
        return [evaluate(to_protocol_config(c)) for c in parse_config(SWEEP_TEXT)]

    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.rows(), str(path))
        with open(path, newline="", encoding="utf-8") as fh:
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
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [HEADER]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = self.rows()
        emit_csv(rows, str(a))
        emit_csv(rows, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_names_the_sweep_result_fields(self):
        # rows are SweepResult's first 12 fields in order, under these names
        assert dict(zip(SweepResult._fields[:12], _CSV_HEADER, strict=True)) == {
            "code_label": "code",
            "family": "family",
            "rounds": "k",
            "tau_c_s": "tau_c_s",
            "one_minus_t": "one_minus_T",
            "total_distance_km": "L_km",
            "segment_km": "L0_km",
            "f": "F",
            "f_final": "F_final",
            "p0": "P0",
            "p_k": "P_k",
            "rate_per_memory_hz": "rate_hz_per_memory",
        }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _CSV_LABELS, _CSV_LABELS, st.integers(0, 1000), st.lists(_CSV_FLOATS, min_size=9, max_size=9)
            ),
            max_size=4,
        )
    )
    def test_bytes_match_the_csv_module(self, fuzz_dir, rows):
        # any label, any float: the bytes a plain csv.writer writes for the
        # same 8-significant-digit fields
        results = [SweepResult(label, family, k, *values) for label, family, k, values in rows]
        emit_csv(results, str(fuzz_dir / "emitted.csv"))
        with open(fuzz_dir / "reference.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [HEADER, *([r.code_label, r.family, *(f"{v:.8g}" for v in r[2:12])] for r in results)]
            )
        assert (fuzz_dir / "emitted.csv").read_bytes() == (fuzz_dir / "reference.csv").read_bytes()

    def test_gnuplot_companion(self, tmp_path):
        path = tmp_path / "out.dat"
        emit_gnuplot(self.rows(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# " + " ".join(HEADER)
        assert len(lines) == 3
        assert lines[1].split()[0] == "[3,1,3]"


class TestReport:
    NAMES = ["repetition-3", "golay", "steane", "golay-station"]

    def test_canonical_rows(self, capsys):
        points = report_operating_points(0.95)
        # the paper's target is both commands' default
        assert build_parser().parse_args(["report"]).target == 0.95
        assert build_parser().parse_args(["operating-point"]).target == 0.95
        assert list(points) == self.NAMES[:3]
        assert all(op.feasible for op in points.values())
        golay_rate = points["golay"].result.rate_per_memory_hz
        assert main(["report"]) == 0
        station = capsys.readouterr().out.splitlines()[-1]
        assert station.startswith("golay-station ")
        assert station.endswith(
            f"  x {_GOLAY_THROUGHPUT_MEMORIES} memories = {golay_rate * _GOLAY_THROUGHPUT_MEMORIES:.8g} Hz"
        )
        assert points["repetition-3"].result.rate_per_memory_hz > golay_rate

    @pytest.mark.parametrize(
        "target, feasible",
        [
            (0.99999, {"repetition-3": False, "golay": False, "steane": False}),
            # repetition-3 tops out at F_final 0.968, the other two above 0.97
            (0.969, {"repetition-3": False, "golay": True, "steane": True}),
        ],
    )
    def test_infeasible_rows_print_no_rate(self, capsys, target, feasible):
        points = report_operating_points(target)
        assert {name: op.feasible for name, op in points.items()} == feasible
        assert main(["report", "--target", str(target)]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == self.NAMES
        for row, op in zip(rows, [*points.values(), points["golay"]]):
            cells = row.split()
            if op.feasible:
                assert "infeasible" not in row
                assert float(cells[5]) == pytest.approx(op.result.rate_per_memory_hz, rel=1e-7)
                continue
            # no F*, no rate, no throughput: the best F_final instead
            assert cells[4:6] == ["-", "-"]
            assert row.endswith(f"  infeasible: max achievable F_final = {op.max_f_final:.8g} < target {target}")
            assert "memories" not in row and "Hz" not in row

    def test_readme_transcript(self, capsys):
        # the README shows `report --target 0.969` verbatim, up to its fence
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        command = "$ repeaterlab report --target 0.969\n"
        shown = readme[readme.index(command) + len(command):]
        shown = shown[: shown.index("```")]
        assert main(["report", "--target", "0.969"]) == 1
        assert capsys.readouterr().out == shown


class TestKeyTable:
    def test_readme_table_is_the_key_table(self):
        # the README's key | flag | meaning rows, in order, from the table below its header
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme[readme.index("| key | flag | meaning |"):].split("\n\n", 1)[0].splitlines()[2:]
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
        assert rows == [
            [f"`{key}`", ", ".join(f"`{flag}`" for flag in k.flags), k.help] for key, k in _KEYS.items()
        ]

    def test_case_spec_is_a_named_tuple_over_the_keys(self):
        assert CaseSpec._fields == ("name", *_KEYS)
        assert CaseSpec() == ("default", *(k.default for k in _KEYS.values()))
        assert CaseSpec()._replace(rounds=3) == CaseSpec(rounds=3)
        # only the keys that may be unset take the literal none
        assert [key for key, k in _KEYS.items() if k.nullable] == ["fidelity", "alpha", "theta_rad"]


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

    def test_operating_point_at_the_shortest_priced_segment(self, capsys):
        # ten times longer than the segment whose transmittance rounds to 1,
        # the solve prints P0 = 1
        argv = ["--code", "[3,1,3]", "--rounds", "1", "--total-km", "2e-14", "--segment-km", "1e-14"]
        assert main(["operating-point", *argv, "--target", "0.9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("operating_fidelity = 0.82049596\n") and "P0 = 1\n" in out

    def test_overflowing_probe_names_alpha_and_theta(self, capsys):
        # alpha^2 overflows to inf where 1 - cos(theta) rounds to 0: the row
        # blames the channel's inputs, not the fidelity check downstream
        assert main(["fidelity", "--alpha", "1e160", "--theta-rad", "1e-9"]) == 1
        out = capsys.readouterr().out
        assert "F = nan\n" in out
        assert out.endswith(
            "error = alpha and theta_rad give no finite dephasing exponent, got alpha=1e+160, theta_rad=1e-09\n"
        )

    def test_gate_charge_without_a_float_names_n_k_and_swaps(self, capsys):
        # N = 2^1020 segments: the charge exponent 2n (N - 1) has no float, which
        # once gave an error row and an error reading "int too large to convert to float"
        flags = ["--code", "51,1,51", "--rounds", "0", "--total-km", "1.1235582092889474e+307", "--segment-km", "1"]
        message = f"gate-charge exponent exceeds the float range, got n=51, k=0, swaps={2**1020 - 1}"
        assert main(["fidelity", *flags]) == 1
        out = capsys.readouterr().out
        assert "F_final = nan\n" in out
        assert out.endswith(f"error = {message}\n")

    def test_css_block_count_without_a_float_names_n(self, capsys):
        # N = 2^1023 segments: the 2N = 2^1024 blocks that (1 - Q_n) is raised
        # to have no float, which once gave "int too large to convert to float"
        flags = ["--code", "7,1,3", "--rounds", "0", "--total-km", "8.98846567431158e307", "--segment-km", "1"]
        message = f"css block count 2N exceeds the float range, got N={2**1023}"
        assert main(["fidelity", *flags]) == 1
        out = capsys.readouterr().out
        assert "F_final = nan\n" in out
        assert out.endswith(f"error = {message}\n")

    def test_rate_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out, plot, want = tmp_path / "rates.csv", tmp_path / "rates.dat", tmp_path / "want.dat"
        rc = main(["rate-sweep", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        assert rc == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == HEADER
        assert len(table) == 3
        emit_gnuplot([evaluate(to_protocol_config(case)) for case in parse_config(SWEEP_TEXT)], str(want))
        assert plot.read_bytes() == want.read_bytes()

    def test_rate_sweep_csv_bytes_frozen(self, tmp_path, capsys):
        cfg, out = tmp_path / "grid.cfg", tmp_path / "rates.csv"
        cfg.write_text(render_config(FROZEN_GRID), encoding="utf-8")
        assert main(["rate-sweep", "--config", str(cfg), "--out", str(out)]) == 1
        # SUITES["cli_rate_sweep"] pins the written bytes
        assert capsys.readouterr().err == "case 'dead': fidelity must lie in (1/2, 1], got 0.5\n"

    def test_rate_sweep_set_override(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("code = [3,1,3]\n", encoding="utf-8")
        out = tmp_path / "rates.csv"
        assert main(["rate-sweep", "--config", str(cfg), "--out", str(out), "--set", "rounds=1"]) == 0
        assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[1][2] == "1"

    def test_set_override_does_not_leak_into_the_next_call(self, tmp_path, capsys):
        # main reuses one parser; each call starts from the --set default
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("code = [3,1,3]\n", encoding="utf-8")
        out = tmp_path / "rates.csv"
        argv = ["rate-sweep", "--config", str(cfg), "--out", str(out)]
        for extra, k in ((["--set", "rounds=3"], "3"), ([], "2")):
            assert main(argv + extra) == 0
            assert capsys.readouterr().out == f"wrote 1 rows to {out}\n"
            with open(out, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh))[1][2] == k

    @pytest.mark.parametrize("text", [SWEEP_TEXT, "code = [7,1,3]\nrounds = 1\n"], ids=["comment-first", "key-first"])
    def test_rate_sweep_ignores_a_byte_order_mark(self, tmp_path, capsys, text):
        # Windows Notepad starts a UTF-8 file with one
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            (tmp_path / f"{name}.cfg").write_text(text, encoding=encoding)
            argv = ["rate-sweep", "--config", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / f"{name}.csv")]
            assert main(argv) == 0
            assert capsys.readouterr().out == f"wrote {len(parse_config(text))} rows to {argv[-1]}\n"
        assert (tmp_path / "bom.cfg").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_qubus_check_exit_codes(self, capsys):
        assert main(["qubus-check", "--n", "3", "--theta-rad", "0.01"]) == 0
        assert "feasible: True" in capsys.readouterr().out
        assert main(["qubus-check", "--n", "11", "--theta-rad", "0.01"]) == 1
        assert "feasible: False" in capsys.readouterr().out
        # past the n = 16 enumeration cap, 1e-10 rad steps still collide
        # within the 1e-9 rad width, as they do at n = 16
        assert main(["qubus-check", "--n", "17", "--theta-rad", "1e-10"]) == 1
        assert "feasible: False" in capsys.readouterr().out

    def test_qubus_check_huge_n_infeasible(self, capsys):
        # the largest phase (2^4999 - 1) theta overflows a float: infeasible, not an error
        assert main(["qubus-check", "--n", "5000", "--theta-rad", "0.01"]) == 1
        out = capsys.readouterr().out
        assert "max_phase = inf rad" in out
        assert "feasible: False" in out

    @pytest.mark.parametrize("n", [_PLAN_MAX_N + 1, 10**8, 10**30])
    def test_qubus_check_past_the_plan_cap_without_the_plan(self, capsys, n):
        # an n that --show-plan refuses gets its analytic verdict without the plan
        assert main(["qubus-check", "--n", str(n), "--theta-rad", "1e-9"]) == 1
        assert "feasible: False" in capsys.readouterr().out

    def test_qubus_check_plan_at_the_cap(self, capsys):
        assert main(["qubus-check", "--n", str(_PLAN_MAX_N), "--theta-rad", "1e-9", "--show-plan"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"  qubus {_PLAN_MAX_N - 1}: 00:0, 01:1e-09, 10:-1e-09, 11:0"

    @pytest.mark.parametrize(
        "matching, rc",
        [
            ({oracle.GateErrorVariant.ZCXT_BEFORE, oracle.GateErrorVariant.ZCXT_AFTER}, 0),
            (set(oracle.GateErrorVariant), 1),
            ({oracle.GateErrorVariant.ZCXT_AFTER}, 1),
            ({oracle.GateErrorVariant.ZZ_BEFORE, oracle.GateErrorVariant.ZZ_AFTER}, 1),
            (set(), 1),
        ],
        ids=["zcxt-pair", "all-four", "one-zcxt", "zz-pair", "none"],
    )
    def test_oracle_verify_needs_exactly_the_zcxt_pair(self, monkeypatch, capsys, matching, rc):
        rows = tuple((v, 0.0 if v in matching else 1.0) for v in oracle.GateErrorVariant)
        monkeypatch.setattr(oracle, "match_gate_variant", lambda: oracle.VariantReport(rows))
        assert main(["oracle-verify"]) == rc
        assert capsys.readouterr().out.splitlines()[-1] == "oracle-verify: " + ("ok" if rc == 0 else "FAILED")

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
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert table[0] == HEADER + ["rate_mc_hz", "stderr_hz", "z"]
        assert len(table) == 2
        assert float(table[1][-2]) > 0.0
        assert float(table[1][-1]) <= 3.0

    @pytest.mark.parametrize(
        "blocks, mean",
        [(64, "11.168371"), (512, "14.899125"), (4096, "15.366377"), (32768, "15.424784")],
    )
    def test_montecarlo_judged_against_finite_window_mean(self, blocks, mean, capsys):
        # few blocks leave many pairs short of a tree; the closed form is the
        # many-blocks limit, so the sample is judged against the window's mean
        argv = ["montecarlo", "--code", "[3,1,3]", "--rounds", "2", "--fidelity", "0.95"]
        assert main(argv + ["--trials", "3000", "--seed", "4", "--blocks", str(blocks)]) == 0
        out = capsys.readouterr().out
        assert "analytic rate = 15.433128 Hz per memory" in out
        assert f"finite-window mean = {mean} Hz ({blocks} blocks)" in out

    def test_montecarlo_refuses_blocks_before_it_samples(self, capsys, monkeypatch):
        # the exact estimate runs first, so a count past its walk draws nothing
        def no_draw(*args):
            raise AssertionError("sampled before the exact estimate refused the block count")

        monkeypatch.setattr(montecarlo, "simulate_rate", no_draw)
        assert main(["montecarlo", "--blocks", str(10**12), "--trials", "2"]) == 2
        assert capsys.readouterr() == (
            "", "error: blocks must be at most 2**24 for the exact finite-window estimate, got 1000000000000\n"
        )

    def test_montecarlo_trials_past_memory_names_the_field(self, capsys, monkeypatch):
        # numpy refuses 10^15 trials (7.11 PiB of counts) with a MemoryError;
        # the draw is stubbed so that no test asks for the array
        class NoMemory:
            def binomial(self, *args, **kwargs):
                raise MemoryError("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoMemory())
        assert main(["montecarlo", "--trials", str(10**15)]) == 2
        assert capsys.readouterr() == ("", "error: trials must fit in memory, got 1000000000000000\n")

    def test_montecarlo_zero_rates_agree(self, capsys):
        # at F = 1 the closed form and every sample give rate 0 with no spread
        assert main(["montecarlo", "--fidelity", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "analytic rate = 0 Hz" in out
        assert "|z| = 0.00 sigma" in out

    def test_montecarlo_empty_windows_judged_by_exact_std_error(self, capsys):
        # every sampled window is empty (0 +/- 0), yet the expected rate is
        # positive: the exact standard error keeps |z| finite and small
        argv = ["montecarlo", "--code", "[3,1,3]", "--rounds", "3", "--fidelity", "0.9999"]
        assert main(argv + ["--blocks", "64", "--trials", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "finite-window mean = 2.708075e-20 Hz (64 blocks)" in out
        assert "simulated     = 0 +/- 0 Hz (200 trials)" in out
        z = float(out.split("|z| = ")[1].split()[0])
        assert math.isfinite(z) and z <= 3.0

    def test_montecarlo_deterministic_estimator_agrees(self, capsys):
        # p0 = 1 at k = 0: every window yields the same count, so the sample
        # mean matches the finite-window mean up to float rounding only
        argv = ["montecarlo", "--rounds", "0", "--segment-km", "0.001", "--total-km", "0.002"]
        assert main(argv + ["--fidelity", "0.6", "--trials", "1000"]) == 0
        out = capsys.readouterr().out
        assert "finite-window mean = 33333333 Hz (4096 blocks)" in out
        assert "exact std error = 0 Hz (1000 trials)" in out
        assert "|z| = 0.00 sigma" in out

    @pytest.mark.parametrize(
        "sampled, mean, std_error, z",
        [
            (1.0 + 1e-15, 1.0, 0.0, 0.0),  # rounding-level miss, no spread
            (0.0, 0.0, 0.0, 0.0),
            (1.0 + 1e-9, 1.0, 0.0, math.inf),  # a real miss with no spread
            (0.0, 2.7e-20, 0.0, math.inf),
            (1.5, 1.0, 0.25, 2.0),
        ],
    )
    def test_z_score(self, sampled, mean, std_error, z):
        assert _z_score(sampled, mean, std_error) == z

    def test_report_prints_station_row(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "golay-station" in out
        assert "x 166 memories" in out


# Raw values a user may type: codes, integers, floats, special and malformed
# strings, any of them on any key.  Arbitrary text is fuzzed against the
# parser alone, because hypothesis draws it far slower than these.
_RAW_VALUE = st.one_of(
    st.sampled_from(
        [c.label for c in code_catalog()]
        + ["[5,1,5]", "-1", "0", "2", "6", "1001", "2.5", "9" * 5000, "0.5", "0.9", "0.95", "20",
           "40", "1280", "0.01", "1e-3", "1e308", "1e-320", "1e999", "inf", "-inf", "nan", "none", "", "x"]
    ),
    st.floats().map(repr),
)
_ASSIGNMENT = st.tuples(st.sampled_from(list(_KEYS)), _RAW_VALUE)
_ASSIGNMENTS = st.lists(_ASSIGNMENT, max_size=6)
# key = value lines with [case] headers anywhere among them
_CONFIG_TEXTS = st.lists(
    st.one_of(_ASSIGNMENT.map(" = ".join), st.sampled_from(["[case]", "[case a]", "[case b c]"])),
    max_size=8,
).map("\n".join)
_PRINTABLE = st.characters(min_codepoint=33, max_codepoint=126)
# every whitespace character that str.splitlines does not split on
_PAD_CHARS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and len(f"a{c}b".splitlines()) == 1]


def _flags(pairs):
    """``--flag=value`` argv items; the ``=`` keeps a value like -inf a value."""
    return [f"{flag}={value}" for flag, value in pairs if value is not None]


_POINT_FLAGS = _ASSIGNMENTS.map(lambda assigns: _flags((_KEYS[key].flags[0], value) for key, value in assigns))
# ledger sizes stay small: --show-plan prints one line per pattern (2^n for
# n <= 16) and one per probe (n - 1) beyond that; an n past the plan's cap
# must exit 2 with the plan asked for, before any ledger is built
_QUBUS_ARGV = st.builds(
    lambda n, theta, plan, beta, target: _flags(
        [("--n", n), ("--theta-rad", theta), ("--beta", beta), ("--target-error", target)]
    ) + (["--show-plan"] if plan else []),
    st.sampled_from(["-1", "0", "1", "2", "3", "5", "8", "11", "17", "64", str(_PLAN_MAX_N + 1), "10" * 20, "2.5", "x"]),
    _RAW_VALUE,
    st.booleans(),
    st.none() | _RAW_VALUE,
    st.none() | _RAW_VALUE,
)
_MONTECARLO_ARGV = st.builds(
    lambda point, blocks, trials, seed: point + _flags([("--blocks", blocks), ("--trials", trials), ("--seed", seed)]),
    _POINT_FLAGS,
    st.none() | st.integers(-1, 64),
    st.none() | st.integers(-1, 200),
    st.none() | st.integers(-1, 2**64),
)

# report --target inside (0, 1), at and past its ends, special and malformed
_REPORT_ARGV = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr),
    st.sampled_from(["0", "1", "-0.5", "1.5", "1e-320", "nan", "inf", "-inf", "", "x", "0.95"]),
    st.floats().map(repr),
).map(lambda target: [f"--target={target}"])


@st.composite
def _case_specs(draw):
    """A CaseSpec over every key, with exactly one fidelity source."""
    kinds = {str: st.text(_PRINTABLE), int: st.integers(-10**6, 10**6), float: st.floats(allow_nan=False)}
    values = {key: draw(kinds[k.kind]) for key, k in _KEYS.items()}
    if draw(st.booleans()):
        values.update(alpha=None, theta_rad=None)
    else:
        values["fidelity"] = None
        unset = draw(st.sampled_from([None, "alpha", "theta_rad"]))
        if unset is not None:
            values[unset] = None
    return CaseSpec(name=draw(st.text(_PRINTABLE, min_size=1)), **values)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.text(), _CONFIG_TEXTS),
        st.lists(st.one_of(st.text(max_size=10), _ASSIGNMENT.map("=".join)), max_size=2),
    )
    def test_parse_config_returns_cases_or_config_error(self, text, overrides):
        try:
            cases = parse_config(text, overrides)
        except ConfigError:
            return
        assert cases and all(isinstance(c, CaseSpec) for c in cases)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_case_specs(), min_size=1, max_size=2))
    def test_render_round_trip(self, cases):
        cases = tuple(cases)
        assert parse_config(render_config(cases)) == cases

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_case_specs(), min_size=1, max_size=2), st.data())
    def test_whitespace_padding_changes_no_case(self, cases, data):
        # padding around "=" and at each line's ends, with any whitespace
        # that does not break the line
        pad = st.text(st.sampled_from(_PAD_CHARS), max_size=3)
        text = render_config(cases)
        lines = []
        for line in text.splitlines():
            key, eq, value = line.partition(" = ")
            if eq and not line.startswith("["):
                line = key + data.draw(pad) + "=" + data.draw(pad) + value
            lines.append(data.draw(pad) + line + data.draw(pad))
        assert parse_config("\n".join(lines)) == parse_config(text) == tuple(cases)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("rate-sweep"), _CONFIG_TEXTS),
            st.tuples(st.sampled_from(["fidelity", "operating-point"]), _POINT_FLAGS),
            st.tuples(st.just("qubus-check"), _QUBUS_ARGV),
            st.tuples(st.just("montecarlo"), _MONTECARLO_ARGV),
            st.tuples(st.just("report"), _REPORT_ARGV),
        )
    )
    # the per-memory spread of these speeds' samples squares past 1e308
    @example(run=("montecarlo", ["--fiber-speed=6.146275630615131e+161"]))
    @example(run=("montecarlo", ["--fiber-speed=1.8765873624083062e+160"]))
    # a subnormal T0 once printed an infinite rate and exited 0
    @example(run=("fidelity", "--code=[1,1,1] --rounds=0 --segment-km=1e-4 --total-km=2e-4 --fiber-speed=1e308".split()))
    @example(run=("fidelity", "--code=[3,1,3] --rounds=1 --segment-km=1e-6 --total-km=2e-6 --fiber-speed=1.7e308".split()))
    def test_main_exit_codes(self, fuzz_dir, run):
        command, payload = run
        if command == "rate-sweep":
            (fuzz_dir / "fuzz.cfg").write_text(payload, encoding="utf-8")
            argv = [command, "--config", str(fuzz_dir / "fuzz.cfg"), "--out", str(fuzz_dir / "out.csv")]
        else:
            argv = [command, *payload]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a malformed flag value
                rc = exc.code
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            # one error line, after argparse's usage text when argparse
            # rejected it; a flag name such as --target-error may sit inside
            lines = err.getvalue().splitlines()
            assert [line for line in lines if re.match(r"(repeaterlab \S+: )?error: ", line)] == lines[-1:]
        if command in ("qubus-check", "montecarlo", "report"):
            # fidelity and operating-point print an errored row's nan beside
            # its error line; these print only numbers they computed
            assert re.search(r"\bnan\b", out.getvalue().lower()) is None
        if command in ("fidelity", "operating-point") and rc == 0:
            # a row that exits 0 computed every number it prints; only the
            # echoed tau_c_s may be inf (no memory dephasing)
            printed = [line for line in out.getvalue().splitlines() if not line.startswith("tau_c_s = ")]
            assert re.search(r"\binf\b", "\n".join(printed).lower()) is None
