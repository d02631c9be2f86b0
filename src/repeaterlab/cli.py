"""Command line front end: sweeps, single points, oracles, and reports.

Config files are flat ``key = value`` text with optional repeated
``[case]`` sections; top-level assignments set defaults that every case
inherits and may override.  Unknown keys are rejected with their line
number rather than ignored.  Sweep output is CSV (one row per case, 8
significant digits) plus an optional gnuplot-ready companion file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import sys
from collections import namedtuple
from typing import Callable, Iterator, NamedTuple, Sequence

from .bell_algebra import BellDiagonal, swap_ideal
from .codes import Code, code_catalog, logical_error_prob
from .core import ATTENUATION_LENGTH_KM, FIBER_SPEED_M_PER_S, ChannelParams, HardwareParams
from .pipeline import (
    OperatingPoint,
    ProtocolConfig,
    SweepResult,
    operating_point,
    sweep,
    evaluate,
)

__all__ = [
    "CaseSpec",
    "parse_config",
    "emit_csv",
    "report_operating_points",
    "main",
]

# one column per field of SweepResult, its first 12 in order
_CSV_HEADER = [
    "code", "family", "k", "tau_c_s", "one_minus_T", "L_km", "L0_km", "F", "F_final", "P0", "P_k",
    "rate_hz_per_memory",
]

# the paper's final-fidelity target, the default of operating-point and report
_TARGET_F_FINAL = 0.95

# qubits per station half needed to run the k = 2 Golay pump at full duty
_GOLAY_THROUGHPUT_MEMORIES = 166

# qubus-check --show-plan builds and prints one ledger per probe, n - 1 of
# them, so it takes no n beyond this
_PLAN_MAX_N = 4096


class _Key(NamedTuple):
    """A config key: default, value type, whether ``none`` unsets it, flags and help."""

    default: object
    kind: type
    nullable: bool
    flags: tuple[str, ...]
    help: str


# the config keys, in CaseSpec's field order after ``name``
_KEYS = {
    "code": _Key("[3,1,3]", str, False, ("--code",), "code label, e.g. [23,1,7] or 23,1,7"),
    "rounds": _Key(2, int, False, ("--rounds", "-k"), "purification rounds k"),
    "total_km": _Key(1280.0, float, False, ("--total-km",), "total distance L in km"),
    "segment_km": _Key(20.0, float, False, ("--segment-km",), "segment length L0 in km"),
    "attenuation_km": _Key(ATTENUATION_LENGTH_KM, float, False, ("--attenuation-km",), "fiber attenuation length"),
    "fiber_speed_m_per_s": _Key(FIBER_SPEED_M_PER_S, float, False, ("--fiber-speed",), "signal speed m/s"),
    "tau_c_s": _Key(0.1, float, False, ("--tau-c",), "memory coherence time s"),
    "one_minus_t": _Key(1e-3, float, False, ("--one-minus-t",), "gate interface loss 1 - T"),
    "fidelity": _Key(0.95, float, True, ("--fidelity", "-F"), "raw pair fidelity"),
    "alpha": _Key(None, float, True, ("--alpha",), "qubus strength (with --theta-rad)"),
    "theta_rad": _Key(None, float, True, ("--theta-rad",), "interaction angle (with --alpha)"),
}
_DEFAULTS = {key: k.default for key, k in _KEYS.items()}

_tuple_new = tuple.__new__


class CaseSpec(namedtuple("CaseSpec", ["name", *_KEYS], defaults=["default", *_DEFAULTS.values()])):
    """One fully merged sweep case (defaults applied): a name, then one field per config key.

    A NamedTuple, as SweepResult is: one is built per config row.
    """

    __slots__ = ()


class ConfigError(ValueError):
    pass


def _apply_level(
    base: dict[str, object], assigns: dict[str, object], where: str, *where_args: object
) -> dict[str, object]:
    """Merge one level of assignments, keeping F vs (alpha, theta) exclusive.

    Setting one fidelity source clears the other, so a source inherited
    from a lower level never clashes.  An error starts with
    ``where.format(*where_args)``, formatted only when raised.
    """
    merged = {**base, **assigns}
    sets_fidelity = assigns.get("fidelity") is not None
    if assigns.get("alpha") is not None or assigns.get("theta_rad") is not None:
        if sets_fidelity:
            raise ConfigError(f"{where.format(*where_args)}: set either fidelity or alpha/theta_rad, not both")
        merged["fidelity"] = None
    elif sets_fidelity:
        merged["alpha"] = merged["theta_rad"] = None
    return merged


def _value(key: str, raw: str, where: str) -> object:
    """``raw``, stripped, as the known ``key``'s value; ``none`` unsets a nullable key, and a bad value fails here."""
    spec = _KEYS[key]
    raw = raw.strip()
    if spec.nullable and raw.lower() == "none":
        return None
    try:
        return spec.kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r} ({exc})") from None


# each key's value type as a converter of the unstripped value: int and float
# skip surrounding whitespace exactly as str.strip does
_CONVERT = {key: str.strip if k.kind is str else k.kind for key, k in _KEYS.items()}


def parse_config(text: str, overrides: Sequence[str] = ()) -> tuple[CaseSpec, ...]:
    """Parse flat key = value text with inherited [case] sections into cases.

    Unknown keys and malformed lines fail with their line number.  A file
    without [case] sections defines a single case from the top level.
    ``overrides`` are ``key=value`` strings (from --set) that beat the
    file's top level before cases inherit.
    """
    top_assigns: dict[str, object] = {}
    set_assigns: dict[str, object] = {}
    case_blocks: list[tuple[str, dict[str, object], int]] = []
    assigns = top_assigns
    for line_no, line in enumerate(text.splitlines(), start=1):
        # one partition decides the line: a known key's value converts as it
        # stands, and only one that does not (none, an error) is read again
        key, eq, raw = line.partition("=")
        key = key.strip()
        convert = _CONVERT.get(key)
        if convert is not None and eq:
            try:
                assigns[key] = convert(raw)
            except ValueError:
                assigns[key] = _value(key, raw, f"line {line_no}")
        elif not (key or eq) or key[:1] == "#":  # a blank line or a comment
            continue
        elif key[:1] == "[":
            header = line.strip()  # "[case a=b]" names the case a=b
            if not header.endswith("]"):
                raise ConfigError(f"line {line_no}: unterminated section header {header!r}")
            inner = header[1:-1].strip()
            parts = inner.split(None, 1)
            if not parts or parts[0] != "case":
                raise ConfigError(f"line {line_no}: unknown section {inner!r} (only [case] allowed)")
            name = parts[1] if len(parts) == 2 else f"case{len(case_blocks) + 1}"
            assigns = {}
            case_blocks.append((name, assigns, line_no))
        elif eq:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        else:
            raise ConfigError(f"line {line_no}: expected key = value, got {key!r}")
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown key {key!r}")
        set_assigns[key] = _value(key, raw, "--set")

    base = _apply_level(_DEFAULTS, top_assigns, "top level")
    base = _apply_level(base, set_assigns, "--set overrides")
    # a merged level keeps _DEFAULTS' key order, which is CaseSpec's
    if not case_blocks:
        return (_tuple_new(CaseSpec, ("default", *base.values())),)
    return tuple([
        _tuple_new(CaseSpec, (name, *_apply_level(base, assigns, "line {} [case {}]", line_no, name).values()))
        for name, assigns, line_no in case_blocks
    ])


_CODES = {code.label.strip("[]"): code for code in code_catalog()}


@functools.lru_cache(maxsize=64)
def _code_by_label(label: str) -> Code:
    """Catalog code of a label spelling; a grid's few spellings resolve once each."""
    code = _CODES.get(label.strip().replace("[", "").replace("]", "").replace(" ", ""))
    if code is None:
        known = ", ".join(c.label for c in _CODES.values())
        raise ConfigError(f"unknown code {label!r}; known codes: {known}")
    return code


def to_protocol_config(case: CaseSpec) -> ProtocolConfig:
    """Instantiate the pipeline config for one merged case."""
    # positional arguments, in each value type's field order
    hardware = HardwareParams(1.0 - case.one_minus_t, case.tau_c_s, case.fiber_speed_m_per_s)
    code = _code_by_label(case.code)
    channel = None
    if case.fidelity is None:
        if case.alpha is None or case.theta_rad is None:
            raise ConfigError(f"case {case.name!r}: need fidelity or both alpha and theta_rad")
        channel = ChannelParams(case.segment_km, case.alpha, case.theta_rad)
    return ProtocolConfig(
        case.total_km, case.segment_km, code, case.rounds, hardware, channel, case.fidelity, case.attenuation_km
    )


_g8 = "{:.8g}".format

# the _CSV_HEADER fields: two labels, then numbers to 8 significant digits
# (an integer k below 1e8 prints as str would), as CSV, gnuplot and printout
_FIELDS = ["%s", "%s", *["%.8g"] * 10]
_CSV_ROW = ",".join(_FIELDS)
_GNUPLOT_ROW = " ".join(_FIELDS)
_PRINTOUT = "\n".join(f"{key} = {spec}" for key, spec in zip(_CSV_HEADER, _FIELDS))


def _format_row(template: str, r: SweepResult, label: Callable[[str], str] = str) -> str:
    """The 12 fields of ``r`` through one of the templates, labels through ``label``."""
    return template % (label(r.code_label), label(r.family), *r[2:12])


@functools.lru_cache(maxsize=64)
def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row: quoted only if it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # drop the empty last field and the CRLF


def _write_table(path: str, lines: Sequence[str], end: str = "\r\n") -> None:
    """The one file writer: ``lines`` in one call, each ended by ``end`` (csv.writer's CRLF by default)."""
    # the empty last item ends the last line too
    with open(path, "w", newline="") as fh:
        fh.write(end.join([*lines, ""]))


def emit_csv(results: Sequence[SweepResult], path: str) -> None:
    """Write sweep rows as CSV with 8 significant digits.

    The bytes are csv.writer's, minimal quoting included: only the two
    label columns can need quotes, so each distinct label asks the writer once.
    """
    _write_table(path, [",".join(_CSV_HEADER), *[_format_row(_CSV_ROW, r, _csv_field) for r in results]])


def emit_gnuplot(results: Sequence[SweepResult], path: str) -> None:
    """Companion whitespace-separated table for gnuplot, with LF line ends."""
    _write_table(path, ["# " + " ".join(_CSV_HEADER), *[_format_row(_GNUPLOT_ROW, r) for r in results]], "\n")


# k = 2 over L = 1280 km in L0 = 20 km segments: the CaseSpec defaults
_CANONICAL_CASES = (
    CaseSpec(name="repetition-3", code="[3,1,3]", tau_c_s=0.01, one_minus_t=1e-4),
    CaseSpec(name="golay", code="[23,1,7]", tau_c_s=0.1, one_minus_t=1e-3),
    CaseSpec(name="steane", code="[7,1,3]", tau_c_s=1.0, one_minus_t=1e-3),
)


def report_operating_points(target_f_final: float) -> dict[str, OperatingPoint]:
    """Canonical operating points at a final-fidelity target, by case name.

    Three hardware points (pumped repetition-3, Golay, Steane), each solved
    for the smallest workable raw fidelity.
    """
    return {case.name: operating_point(to_protocol_config(case), target_f_final) for case in _CANONICAL_CASES}


def _case_from_args(args: argparse.Namespace) -> CaseSpec:
    assigns = {key: value for key, value in vars(args).items() if key in _KEYS and value is not None}
    return CaseSpec(**_apply_level(_DEFAULTS, assigns, "arguments"))


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    for key, k in _KEYS.items():
        p.add_argument(*k.flags, dest=key, type=k.kind, help=k.help)


def _print_result(r: SweepResult) -> int:
    print(_format_row(_PRINTOUT, r))
    if r.error is not None:
        print(f"error = {r.error}")
    return 0 if r.error is None else 1


@contextlib.contextmanager
def _file_named(flag: str, path: str) -> Iterator[None]:
    """Reword an OSError raised inside as ``flag 'path': reason``, so that it names the flag."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{flag} {path!r}: {exc.strerror or exc}") from None


def cmd_rate_sweep(args: argparse.Namespace) -> int:
    try:  # UTF-8 whatever the locale; utf-8-sig drops a leading byte-order mark
        with _file_named("--config", args.config), open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {args.config!r} is not UTF-8 text ({exc})") from None
    cases = parse_config(text, overrides=args.set)
    configs = [to_protocol_config(c) for c in cases]
    results = sweep(configs)
    with _file_named("--out", args.out):
        emit_csv(results, args.out)
    if args.gnuplot:
        with _file_named("--gnuplot", args.gnuplot):
            emit_gnuplot(results, args.gnuplot)
    status = 0
    for case, r in zip(cases, results):
        if r.error is not None:
            print(f"case {case.name!r}: {r.error}", file=sys.stderr)
            status = 1
    print(f"wrote {len(results)} rows to {args.out}")
    return status


def cmd_fidelity(args: argparse.Namespace) -> int:
    cfg = to_protocol_config(_case_from_args(args))
    return _print_result(evaluate(cfg))


def _infeasible(op: OperatingPoint, target: float) -> str:
    return f"infeasible: max achievable F_final = {_g8(op.max_f_final)} < target {target}"


def cmd_operating_point(args: argparse.Namespace) -> int:
    cfg = to_protocol_config(_case_from_args(args))
    op = operating_point(cfg, args.target)
    if not op.feasible:
        print(_infeasible(op, args.target))
        return 1
    print(f"operating_fidelity = {_g8(op.operating_fidelity)}")
    return _print_result(op.result)


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    from .oracle import (  # needs numpy
        _ENUM_MAX_N, _ENUM_TOL, _SWAP_TOL, GateErrorVariant, enumerate_logical_error, match_gate_variant,
        simulate_swapping,
    )

    report = match_gate_variant()
    print(report)
    # the closed form is the Z-control, X-target channel, whose two placements
    # coincide; any other set of matching placements is a failure
    ok = set(report.matching) == {GateErrorVariant.ZCXT_BEFORE, GateErrorVariant.ZCXT_AFTER}

    s = BellDiagonal(0.85, 0.07, 0.05, 0.03)
    swap_dev = max(abs(x - y) for x, y in zip(simulate_swapping(s), swap_ideal(s)))
    print(f"swap circuit vs closed form          max deviation {swap_dev:.3e}")
    ok = ok and swap_dev <= _SWAP_TOL

    for code in code_catalog():
        if code.n > _ENUM_MAX_N:
            continue
        dev = abs(enumerate_logical_error(code, 0.05) - logical_error_prob(code, 0.05))
        print(f"enumeration vs tail sum {code.label:12s} deviation {dev:.3e}")
        ok = ok and dev <= _ENUM_TOL
    print("oracle-verify:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def cmd_qubus_check(args: argparse.Namespace) -> int:
    from .qubus import (
        _ENUM_LIMIT, chained_qubus_phases, feasibility, homodyne_error, min_beta, single_qubus_phases,
    )

    if args.show_plan and args.n > _PLAN_MAX_N:
        raise ValueError(f"--n must be <= {_PLAN_MAX_N} with --show-plan, got {args.n}")
    verdict = feasibility(args.n, args.theta_rad)
    # the optional figures come first, so that a bad --beta or --target-error
    # exits before anything is printed
    figures = []
    if args.beta is not None:
        figures.append(f"homodyne_error(beta={_g8(args.beta)}) = {_g8(homodyne_error(args.beta, args.theta_rad))}")
    if args.target_error is not None:
        figures.append(f"min_beta(target={_g8(args.target_error)}) = {_g8(min_beta(args.theta_rad, args.target_error))}")
    print(f"n = {args.n}  theta = {_g8(args.theta_rad)} rad")
    print(f"max_phase = {_g8(verdict.max_phase_rad)} rad ({_g8(verdict.max_phase_rad / math.pi)} pi)")
    print(f"single-qubus feasible: {verdict.feasible}")
    if args.show_plan:
        if args.n <= _ENUM_LIMIT:  # the single ledger is built up to n = 16 only
            (single,) = single_qubus_phases(args.n, args.theta_rad).ledgers
            for pattern in sorted(single):
                print(f"  {pattern} -> {_g8(single[pattern])}")
        for j, ledger in enumerate(chained_qubus_phases(args.n, args.theta_rad).ledgers, start=1):
            entries = ", ".join(f"{k}:{_g8(v)}" for k, v in sorted(ledger.items()))
            print(f"  qubus {j}: {entries}")
    for line in figures:
        print(line)
    return 0 if verdict.feasible else 1


def _z_score(sampled: float, mean: float, std_error: float) -> float:
    """|sampled - mean| in standard errors; a rounding-level miss is 0.

    A deterministic estimator (no spread) still reproduces its mean only to
    float rounding, so a miss within a relative 1e-12 of the mean agrees;
    any larger miss with no spread is infinitely unlikely.
    """
    miss = abs(sampled - mean)
    if miss <= 1e-12 * abs(mean):
        return 0.0
    return miss / std_error if std_error > 0 else math.inf


def cmd_montecarlo(args: argparse.Namespace) -> int:
    from .montecarlo import McConfig, finite_window_estimate, simulate_rate  # needs numpy

    cfg = to_protocol_config(_case_from_args(args))
    row = evaluate(cfg)
    if row.error is not None:
        raise ValueError(row.error)
    mc = McConfig(p0=1.0, blocks=args.blocks, rounds=cfg.rounds, trials=args.trials, seed=args.seed)
    # the sample is judged against its exact finite-window mean and standard error, not the
    # closed form and its own spread; they come first, so too many blocks exit before sampling
    expected = finite_window_estimate(cfg, row.f, mc)
    est = simulate_rate(cfg, row.f, mc)
    z = _z_score(est.rate_per_memory_hz, expected.rate_per_memory_hz, expected.std_error_hz)
    if args.out:  # written first, so that an unwritable path exits before anything is printed
        sampled = f"{_g8(est.rate_per_memory_hz)},{_g8(est.std_error_hz)},{z:.3f}"
        line = f"{_format_row(_CSV_ROW, row, _csv_field)},{sampled}"
        with _file_named("--out", args.out):
            _write_table(args.out, [",".join([*_CSV_HEADER, "rate_mc_hz", "stderr_hz", "z"]), line])
    print(f"rng = numpy PCG64, SeedSequence(seed={args.seed}), blocks = {args.blocks}")
    print(f"analytic rate = {_g8(row.rate_per_memory_hz)} Hz per memory")
    print(f"finite-window mean = {_g8(expected.rate_per_memory_hz)} Hz ({args.blocks} blocks)")
    print(f"exact std error = {_g8(expected.std_error_hz)} Hz ({est.trials} trials)")
    print(f"simulated     = {_g8(est.rate_per_memory_hz)} +/- {_g8(est.std_error_hz)} Hz ({est.trials} trials)")
    print(f"|z| = {z:.2f} sigma")
    return 0 if z <= 3.0 else 1


def _report_line(name: str, op: OperatingPoint, target: float, station: bool = False) -> str:
    """One report row; an infeasible point prints no F*, rate or throughput."""
    r = op.result
    line = f"{name:16s} {r.code_label:12s} {_g8(r.tau_c_s):>8s} {_g8(r.one_minus_t):>8s} "
    if not op.feasible:
        return line + f"{'-':>10s} {'-':>12s}  {_infeasible(op, target)}"
    fstar = "-" if station else _g8(op.operating_fidelity)
    line += f"{fstar:>10s} {_g8(r.rate_per_memory_hz):>12s}"
    if station:
        throughput = r.rate_per_memory_hz * _GOLAY_THROUGHPUT_MEMORIES
        line += f"  x {_GOLAY_THROUGHPUT_MEMORIES} memories = {_g8(throughput)} Hz"
    return line


def cmd_report(args: argparse.Namespace) -> int:
    points = report_operating_points(args.target)
    print(f"{'name':16s} {'code':12s} {'tau_c':>8s} {'1-T':>8s} {'F*':>10s} {'rate/mem':>12s}")
    for name, op in points.items():
        print(_report_line(name, op, args.target))
    # the station row scales the Golay per-memory rate to a full station
    print(_report_line("golay-station", points["golay"], args.target, station=True))
    return 0 if all(op.feasible for op in points.values()) else 1


@functools.cache
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
    p.add_argument("--target", type=float, default=_TARGET_F_FINAL, help="final-fidelity target")
    p.set_defaults(func=cmd_operating_point)

    p = sub.add_parser("oracle-verify", help="cross-check closed forms against brute force")
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("qubus-check", help="phase-ledger feasibility and homodyne error")
    p.add_argument("--n", type=int, required=True, help="number of atoms")
    p.add_argument("--theta-rad", type=float, required=True, help="interaction angle")
    p.add_argument("--show-plan", action="store_true", help=f"print the phase ledgers (n <= {_PLAN_MAX_N})")
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
    p.add_argument("--target", type=float, default=_TARGET_F_FINAL, help="final-fidelity target")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
