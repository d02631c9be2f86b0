"""Command line front end: sweeps, single points, oracles, and reports.

Config files are flat ``key = value`` text with optional repeated
``[case]`` sections; top-level assignments set defaults that every case
inherits and may override.  Unknown keys are rejected with their line
number rather than ignored.  Sweep output is CSV (one row per case, 8
significant digits) plus an optional gnuplot-ready companion file.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .bell_algebra import BellDiagonal, swap_ideal
from .codes import Code, code_catalog, logical_error_prob
from .core import ChannelParams, HardwareParams
from .montecarlo import McConfig, simulate_rate
from .oracle import enumerate_logical_error, match_gate_variant, simulate_swapping
from .pipeline import (
    OperatingPoint,
    ProtocolConfig,
    SweepResult,
    operating_point,
    rate_purified,
    rate_unpurified,
    sweep,
    evaluate,
)
from .qubus import chained_qubus_phases, feasibility, homodyne_error, min_beta, single_qubus_phases

__all__ = [
    "CaseSpec",
    "RunConfig",
    "ReportRow",
    "parse_config",
    "render_config",
    "emit_csv",
    "report_operating_points",
    "main",
]

_CSV_HEADER = [
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

# qubits per station half needed to run the k = 2 Golay pump at full duty
_GOLAY_THROUGHPUT_MEMORIES = 166


@dataclass(frozen=True)
class CaseSpec:
    """One fully merged sweep case (defaults applied)."""

    name: str = "default"
    code: str = "[3,1,3]"
    rounds: int = 2
    total_km: float = 1280.0
    segment_km: float = 20.0
    attenuation_km: float = 25.5
    fiber_speed_m_per_s: float = 2.0e8
    tau_c_s: float = 0.1
    one_minus_t: float = 1e-3
    fidelity: float | None = 0.95
    alpha: float | None = None
    theta_rad: float | None = None


@dataclass(frozen=True)
class RunConfig:
    """Parsed sweep configuration: the merged case grid."""

    cases: tuple[CaseSpec, ...]


class ConfigError(ValueError):
    pass


_FLOAT_KEYS = {
    "total_km",
    "segment_km",
    "attenuation_km",
    "fiber_speed_m_per_s",
    "tau_c_s",
    "one_minus_t",
}
_OPTIONAL_FLOAT_KEYS = {"fidelity", "alpha", "theta_rad"}
_INT_KEYS = {"rounds"}
_STR_KEYS = {"code"}
_ALL_KEYS = _FLOAT_KEYS | _OPTIONAL_FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def _parse_value(key: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if key in _STR_KEYS:
            return raw
        if key in _INT_KEYS:
            return int(raw)
        if key in _OPTIONAL_FLOAT_KEYS:
            if raw.lower() == "none":
                return None
            return float(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r} ({exc})") from None


def _parse_overrides(overrides: Sequence[str]) -> dict[str, object]:
    assigns: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        assigns[key] = _parse_value(key, value, f"--set {key}")
    return assigns


def _apply_level(base: CaseSpec, assigns: dict[str, object], where: str) -> CaseSpec:
    """Merge one level of assignments, keeping F vs (alpha, theta) exclusive."""
    sets_fidelity = assigns.get("fidelity") is not None
    sets_channel = assigns.get("alpha") is not None or assigns.get("theta_rad") is not None
    if sets_fidelity and sets_channel:
        raise ConfigError(f"{where}: set either fidelity or alpha/theta_rad, not both")
    merged = replace(base, **assigns)
    if sets_channel and "fidelity" not in assigns:
        merged = replace(merged, fidelity=None)
    if sets_fidelity:
        if "alpha" not in assigns:
            merged = replace(merged, alpha=None)
        if "theta_rad" not in assigns:
            merged = replace(merged, theta_rad=None)
    return merged


def parse_config(text: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Parse flat key = value text with inherited [case] sections.

    Unknown keys and malformed lines fail with their line number.  A file
    without [case] sections defines a single case from the top level.
    ``overrides`` are ``key=value`` strings (from --set) that beat the
    file's top level before cases inherit.
    """
    top_assigns: dict[str, object] = {}
    case_blocks: list[tuple[str, dict[str, object], int]] = []
    current: dict[str, object] | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: unterminated section header {line!r}")
            inner = line[1:-1].strip()
            parts = inner.split(None, 1)
            if not parts or parts[0] != "case":
                raise ConfigError(f"line {line_no}: unknown section {inner!r} (only [case] allowed)")
            name = parts[1].strip() if len(parts) == 2 else f"case{len(case_blocks) + 1}"
            current = {}
            case_blocks.append((name, current, line_no))
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        parsed = _parse_value(key, value, f"line {line_no}")
        (top_assigns if current is None else current)[key] = parsed

    base = _apply_level(CaseSpec(), top_assigns, "top level")
    if overrides:
        base = _apply_level(base, _parse_overrides(overrides), "--set overrides")
    if not case_blocks:
        return RunConfig((base,))
    cases = []
    for name, assigns, line_no in case_blocks:
        merged = _apply_level(base, assigns, f"line {line_no} [case {name}]")
        cases.append(replace(merged, name=name))
    return RunConfig(tuple(cases))


def _fmt_value(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(rc: RunConfig) -> str:
    """Serialize a RunConfig so that parse_config round-trips it."""
    lines: list[str] = []
    for case in rc.cases:
        lines.append(f"[case {case.name}]")
        for f in fields(CaseSpec):
            if f.name == "name":
                continue
            value = getattr(case, f.name)
            if value is None:
                continue  # the exclusivity rule re-clears the other source
            lines.append(f"{f.name} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)


def _code_by_label(label: str) -> Code:
    wanted = label.strip().replace("[", "").replace("]", "").replace(" ", "")
    for code in code_catalog():
        have = code.label.replace("[", "").replace("]", "")
        if wanted == have:
            return code
    known = ", ".join(c.label for c in code_catalog())
    raise ConfigError(f"unknown code {label!r}; known codes: {known}")


def to_protocol_config(case: CaseSpec) -> ProtocolConfig:
    """Instantiate the pipeline config for one merged case."""
    hardware = HardwareParams(
        local_transmission=1.0 - case.one_minus_t,
        memory_coherence_s=case.tau_c_s,
        fiber_speed_m_per_s=case.fiber_speed_m_per_s,
    )
    code = _code_by_label(case.code)
    if case.fidelity is None:
        if case.alpha is None or case.theta_rad is None:
            raise ConfigError(f"case {case.name!r}: need fidelity or both alpha and theta_rad")
        channel = ChannelParams(
            segment_length_km=case.segment_km,
            qubus_strength=case.alpha,
            interaction_angle_rad=case.theta_rad,
            attenuation_length_km=case.attenuation_km,
        )
        return ProtocolConfig(
            total_distance_km=case.total_km,
            segment_km=case.segment_km,
            code=code,
            rounds=case.rounds,
            hardware=hardware,
            channel=channel,
        )
    return ProtocolConfig(
        total_distance_km=case.total_km,
        segment_km=case.segment_km,
        code=code,
        rounds=case.rounds,
        hardware=hardware,
        fidelity=case.fidelity,
        attenuation_km=case.attenuation_km,
    )


def _g8(x: float) -> str:
    return f"{x:.8g}"


def _result_row(r: SweepResult) -> list[str]:
    return [
        r.code_label,
        r.family,
        str(r.rounds),
        _g8(r.tau_c_s),
        _g8(r.one_minus_t),
        _g8(r.total_distance_km),
        _g8(r.segment_km),
        _g8(r.f),
        _g8(r.f_final),
        _g8(r.p0),
        _g8(r.p_k),
        _g8(r.rate_per_memory_hz),
    ]


def emit_csv(results: Sequence[SweepResult], path: str) -> None:
    """Write sweep rows as CSV with 8 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in results:
            writer.writerow(_result_row(r))


def emit_gnuplot(results: Sequence[SweepResult], path: str) -> None:
    """Companion whitespace-separated table for gnuplot."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(_CSV_HEADER) + "\n")
        for r in results:
            fh.write(" ".join(_result_row(r)) + "\n")


@dataclass(frozen=True)
class ReportRow:
    """One line of the canonical operating-point report."""

    name: str
    code_label: str
    tau_c_s: float
    one_minus_t: float
    target_f_final: float
    feasible: bool
    operating_fidelity: float | None
    rate_per_memory_hz: float
    memories: int | None = None
    throughput_hz: float | None = None


def _canonical_cases() -> list[tuple[str, CaseSpec]]:
    base = CaseSpec(rounds=2, total_km=1280.0, segment_km=20.0)
    return [
        ("repetition-3", replace(base, code="[3,1,3]", tau_c_s=0.01, one_minus_t=1e-4)),
        ("golay", replace(base, code="[23,1,7]", tau_c_s=0.1, one_minus_t=1e-3)),
        ("steane", replace(base, code="[7,1,3]", tau_c_s=1.0, one_minus_t=1e-3)),
    ]


def report_operating_points(target_f_final: float = 0.95) -> tuple[ReportRow, ...]:
    """Canonical operating points at the 0.95 final-fidelity target.

    Three hardware points (pumped repetition-3, Golay, Steane), each solved
    for the smallest workable raw fidelity, plus a throughput row scaling
    the Golay per-memory rate to a full station.
    """
    rows: list[ReportRow] = []
    golay_rate = math.nan
    for name, case in _canonical_cases():
        op = operating_point(to_protocol_config(replace(case, name=name)), target_f_final)
        rows.append(
            ReportRow(
                name=name,
                code_label=case.code,
                tau_c_s=case.tau_c_s,
                one_minus_t=case.one_minus_t,
                target_f_final=target_f_final,
                feasible=op.feasible,
                operating_fidelity=op.operating_fidelity,
                rate_per_memory_hz=op.result.rate_per_memory_hz,
            )
        )
        if name == "golay":
            golay_rate = op.result.rate_per_memory_hz
    rows.append(
        ReportRow(
            name="golay-station",
            code_label="[23,1,7]",
            tau_c_s=0.1,
            one_minus_t=1e-3,
            target_f_final=target_f_final,
            feasible=not math.isnan(golay_rate),
            operating_fidelity=None,
            rate_per_memory_hz=golay_rate,
            memories=_GOLAY_THROUGHPUT_MEMORIES,
            throughput_hz=golay_rate * _GOLAY_THROUGHPUT_MEMORIES,
        )
    )
    return tuple(rows)


def _case_from_args(args: argparse.Namespace) -> CaseSpec:
    assigns: dict[str, object] = {}
    for key in sorted(_ALL_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            assigns[key] = value
    return _apply_level(CaseSpec(), assigns, "arguments")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--code", dest="code", help="code label, e.g. [23,1,7] or 23,1,7")
    p.add_argument("--rounds", "-k", dest="rounds", type=int, help="purification rounds k")
    p.add_argument("--total-km", dest="total_km", type=float, help="total distance L in km")
    p.add_argument("--segment-km", dest="segment_km", type=float, help="segment length L0 in km")
    p.add_argument("--attenuation-km", dest="attenuation_km", type=float, help="fiber attenuation length")
    p.add_argument("--fiber-speed", dest="fiber_speed_m_per_s", type=float, help="signal speed m/s")
    p.add_argument("--tau-c", dest="tau_c_s", type=float, help="memory coherence time s")
    p.add_argument("--one-minus-t", dest="one_minus_t", type=float, help="gate interface loss 1 - T")
    p.add_argument("--fidelity", "-F", dest="fidelity", type=float, help="raw pair fidelity")
    p.add_argument("--alpha", dest="alpha", type=float, help="qubus strength (with --theta-rad)")
    p.add_argument("--theta-rad", dest="theta_rad", type=float, help="interaction angle (with --alpha)")


def _print_result(r: SweepResult) -> None:
    for key, value in zip(_CSV_HEADER, _result_row(r)):
        print(f"{key} = {value}")
    if r.error is not None:
        print(f"error = {r.error}")


def cmd_rate_sweep(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        rc = parse_config(fh.read(), overrides=args.set)
    configs = [to_protocol_config(c) for c in rc.cases]
    results = sweep(configs)
    emit_csv(results, args.out)
    if args.gnuplot:
        emit_gnuplot(results, args.gnuplot)
    status = 0
    for case, r in zip(rc.cases, results):
        if r.error is not None:
            print(f"case {case.name!r}: {r.error}", file=sys.stderr)
            status = 1
    print(f"wrote {len(results)} rows to {args.out}")
    return status


def cmd_fidelity(args: argparse.Namespace) -> int:
    cfg = to_protocol_config(_case_from_args(args))
    r = evaluate(cfg)
    _print_result(r)
    return 0 if r.error is None else 1


def cmd_operating_point(args: argparse.Namespace) -> int:
    cfg = to_protocol_config(_case_from_args(args))
    op: OperatingPoint = operating_point(cfg, args.target)
    if not op.feasible:
        print(f"infeasible: max achievable F_final = {_g8(op.max_f_final)} < target {args.target}")
        return 1
    print(f"operating_fidelity = {_g8(op.operating_fidelity)}")
    _print_result(op.result)
    return 0


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    report = match_gate_variant()
    print(report)
    ok = bool(report.matching)

    s = BellDiagonal(0.85, 0.07, 0.05, 0.03)
    swap_dev = max(
        abs(x - y)
        for x, y in zip(simulate_swapping(s).as_tuple(), swap_ideal(s).as_tuple())
    )
    print(f"swap circuit vs closed form          max deviation {swap_dev:.3e}")
    ok = ok and swap_dev <= 1e-10

    for code in code_catalog():
        if code.n > 15:
            continue
        dev = abs(enumerate_logical_error(code, 0.05) - logical_error_prob(code, 0.05))
        print(f"enumeration vs tail sum {code.label:12s} deviation {dev:.3e}")
        ok = ok and dev <= 1e-12
    print("oracle-verify:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def cmd_qubus_check(args: argparse.Namespace) -> int:
    verdict = feasibility(args.n, args.theta_rad)
    print(f"n = {args.n}  theta = {_g8(args.theta_rad)} rad")
    print(f"max_phase = {_g8(verdict.max_phase_rad)} rad ({_g8(verdict.max_phase_rad / math.pi)} pi)")
    print(f"single-qubus feasible: {verdict.feasible}")
    if args.show_plan:
        plan = single_qubus_phases(args.n, args.theta_rad) if args.n <= 16 else None
        if plan is not None:
            for pattern in sorted(plan.per_state_phases):
                print(f"  {pattern} -> {_g8(plan.per_state_phases[pattern])}")
        chained = chained_qubus_phases(args.n, args.theta_rad)
        for j, ledger in enumerate(chained.per_state_phases, start=1):
            entries = ", ".join(f"{k}:{_g8(v)}" for k, v in sorted(ledger.items()))
            print(f"  qubus {j}: {entries}")
    if args.beta is not None:
        print(f"homodyne_error(beta={_g8(args.beta)}) = {_g8(homodyne_error(args.beta, args.theta_rad))}")
    if args.target_error is not None:
        print(f"min_beta(target={_g8(args.target_error)}) = {_g8(min_beta(args.theta_rad, args.target_error))}")
    return 0 if verdict.feasible else 1


def cmd_montecarlo(args: argparse.Namespace) -> int:
    case = _case_from_args(args)
    cfg = to_protocol_config(case)
    f = cfg.raw_fidelity()
    mc = McConfig(p0=1.0, blocks=args.blocks, rounds=cfg.rounds, trials=args.trials, seed=args.seed)
    est = simulate_rate(cfg, f, mc)
    analytic = rate_purified(cfg) if cfg.rounds > 0 else rate_unpurified(cfg)
    z = abs(est.rate_per_memory_hz - analytic) / est.std_error_hz if est.std_error_hz > 0 else math.inf
    print(f"rng = numpy PCG64, SeedSequence(seed={args.seed}), blocks = {args.blocks}")
    print(f"analytic rate = {_g8(analytic)} Hz per memory")
    print(f"simulated     = {_g8(est.rate_per_memory_hz)} +/- {_g8(est.std_error_hz)} Hz ({est.trials} trials)")
    print(f"|z| = {z:.2f} sigma")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER + ["rate_mc_hz", "stderr_hz", "z"])
            writer.writerow(
                _result_row(evaluate(cfg))
                + [_g8(est.rate_per_memory_hz), _g8(est.std_error_hz), f"{z:.3f}"]
            )
    return 0 if z <= 3.0 else 1


def cmd_report(args: argparse.Namespace) -> int:
    rows = report_operating_points(args.target)
    header = f"{'name':16s} {'code':12s} {'tau_c':>8s} {'1-T':>8s} {'F*':>10s} {'rate/mem':>12s}"
    print(header)
    for row in rows:
        fstar = _g8(row.operating_fidelity) if row.operating_fidelity is not None else "-"
        line = (
            f"{row.name:16s} {row.code_label:12s} {_g8(row.tau_c_s):>8s} "
            f"{_g8(row.one_minus_t):>8s} {fstar:>10s} {_g8(row.rate_per_memory_hz):>12s}"
        )
        if row.throughput_hz is not None:
            line += f"  x {row.memories} memories = {_g8(row.throughput_hz)} Hz"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeaterlab",
        description="Fidelity and rate models for hybrid quantum repeaters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate-sweep", help="evaluate a config grid and write CSV")
    p.add_argument("--config", required=True, help="key = value config file with [case] sections")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--gnuplot", help="optional whitespace-separated companion file")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a top-level config key (repeatable)",
    )
    p.set_defaults(func=cmd_rate_sweep)

    p = sub.add_parser("fidelity", help="evaluate one operating point")
    _add_point_flags(p)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("operating-point", help="solve for the smallest workable raw fidelity")
    _add_point_flags(p)
    p.add_argument("--target", type=float, default=0.95, help="final-fidelity target")
    p.set_defaults(func=cmd_operating_point)

    p = sub.add_parser("oracle-verify", help="cross-check closed forms against brute force")
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("qubus-check", help="phase-ledger feasibility and homodyne error")
    p.add_argument("--n", type=int, required=True, help="number of atoms")
    p.add_argument("--theta-rad", type=float, required=True, help="interaction angle")
    p.add_argument("--show-plan", action="store_true", help="print the phase ledgers")
    p.add_argument("--beta", type=float, help="probe amplitude for homodyne error")
    p.add_argument("--target-error", type=float, help="solve for the minimal amplitude")
    p.set_defaults(func=cmd_qubus_check)

    p = sub.add_parser("montecarlo", help="sampled rate vs the closed form")
    _add_point_flags(p)
    p.add_argument("--blocks", type=int, default=4096, help="parallel generation slots")
    p.add_argument("--trials", type=int, default=20000, help="windows to sample")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--out", help="optional CSV: sweep columns plus rate_mc_hz, stderr_hz, z")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("report", help="canonical operating points and station throughput")
    p.add_argument("--target", type=float, default=0.95, help="final-fidelity target")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
