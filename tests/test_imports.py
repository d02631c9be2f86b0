"""Import cost, public API and structure: the package root loads nothing, the closed-form
model and the CLI load numpy only on demand, and each fact is written where OWNERS says."""

import ast
import collections
import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import repeaterlab

SRC = str(Path(repeaterlab.__file__).resolve().parents[1])

# the public API: each module's __all__, by the module that defines it
EXPORTS = {
    "bell_algebra": [
        "BellDiagonal", "PurifyOutcome", "purify_ideal", "purify_imperfect_exact",
        "purify_k_rounds_lower", "swap_ideal",
    ],
    "codes": [
        "Code", "code_catalog", "css_effective_qubit_error", "effective_coefficients",
        "logical_error_prob", "pair_no_error_prob",
    ],
    "core": [
        "ChannelParams", "HardwareParams", "gate_error_prob", "initial_fidelity",
        "memory_error_prob", "success_probability", "transmittance",
    ],
    "montecarlo": [
        "McConfig", "RateEstimate", "finite_window_estimate", "simulate_rate",
    ],
    "oracle": [
        "DensityMatrix", "GateErrorVariant", "VariantReport", "enumerate_logical_error",
        "match_gate_variant", "simulate_purification_round", "simulate_swapping",
    ],
    "pipeline": [
        "OperatingPoint", "ProtocolConfig", "SweepResult", "Timing", "evaluate",
        "final_fidelity", "heralding_probability", "operating_point",
        "pump_success_probability", "rate_purified", "rate_unpurified", "sweep", "timing",
        "with_fidelity",
    ],
    "qubus": [
        "Feasibility", "QubusPlan", "chained_qubus_phases", "feasibility", "homodyne_error",
        "min_beta", "phases_distinct", "single_qubus_phases",
    ],
    "cli": ["CaseSpec", "emit_csv", "main", "parse_config", "report_operating_points"],
}
POINT = ["fidelity", "--code", "[7,1,3]", "--rounds", "1", "--fidelity", "0.97"]
# the one subcommand that imports qubus; its largest phase, 2^11 * 0.0005 =
# 1.02 rad, lies below the branch cut, so it decides by certificate and
# builds no ledger
QUBUS = ["qubus-check", "--n", "12", "--theta-rad", "0.0005"]


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def _leaves_imported(program: str, module: str = "numpy", cwd=None) -> bool:
    """Run ``program`` in a fresh interpreter; did it leave ``module`` imported?"""
    proc = _python("-c", program + f"\nimport sys\nprint({module!r} in sys.modules)", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


@pytest.mark.parametrize(
    "program",
    [
        pytest.param("import repeaterlab", id="package"),
        pytest.param("import repeaterlab.pipeline", id="pipeline"),
        pytest.param("import repeaterlab.cli", id="cli"),
        pytest.param(
            "from repeaterlab.pipeline import operating_point, sweep\nfrom repeaterlab.codes import logical_error_prob",
            id="exports",
        ),
        pytest.param(f"from repeaterlab import cli\nassert cli.main({POINT!r}) == 0", id="fidelity"),
        pytest.param(f"from repeaterlab import cli\nassert cli.main({QUBUS!r}) == 0", id="qubus-check"),
    ],
)
def test_model_and_cli_import_no_numpy(program):
    assert not _leaves_imported(program)


def test_rate_sweep_imports_no_numpy(tmp_path):
    (tmp_path / "grid.cfg").write_text(
        "rounds = 1\n[case rep]\ncode = [3,1,3]\n[case steane]\ncode = [7,1,3]\n"
        "[case channel]\nalpha = 0.001\ntheta_rad = 0.01\n"
    )
    argv = ["rate-sweep", "--config", "grid.cfg", "--out", "rates.csv"]
    assert not _leaves_imported(f"from repeaterlab import cli\nassert cli.main({argv!r}) == 0", cwd=tmp_path)
    assert len((tmp_path / "rates.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "argv, imports_qubus",
    [
        pytest.param(["rate-sweep", "--config", "grid.cfg", "--out", "rates.csv"], False, id="rate-sweep"),
        pytest.param(POINT, False, id="fidelity"),
        pytest.param(
            ["operating-point", "--code", "[7,1,3]", "--tau-c", "1", "--target", "0.9"], False, id="operating-point"
        ),
        pytest.param(["report"], False, id="report"),
        pytest.param(QUBUS, True, id="qubus-check"),
    ],
)
def test_cli_imports_qubus_only_for_qubus_check(tmp_path, argv, imports_qubus):
    (tmp_path / "grid.cfg").write_text("[case rep]\ncode = [3,1,3]\n[case channel]\nalpha = 0.001\ntheta_rad = 0.01\n")
    program = f"from repeaterlab import cli\nassert cli.main({argv!r}) == 0"
    assert _leaves_imported(program, "repeaterlab.qubus", cwd=tmp_path) == imports_qubus


@pytest.mark.parametrize(
    "program",
    [
        pytest.param("import repeaterlab.pipeline", id="pipeline"),
        pytest.param("import repeaterlab.cli", id="cli"),
        pytest.param("import repeaterlab.oracle", id="oracle"),
        pytest.param("import repeaterlab.montecarlo", id="montecarlo"),
        pytest.param("import repeaterlab.qubus", id="qubus"),
    ],
)
def test_closed_form_model_imports_no_dataclasses(program):
    # every value type is a NamedTuple; dataclasses would also load inspect, ast, dis and tokenize
    assert not _leaves_imported(program, "dataclasses")


def test_python_dash_m_qubus_check_imports_no_dataclasses_or_inspect():
    proc = _python("-X", "importtime", "-m", "repeaterlab", "qubus-check", "--n", "4", "--theta-rad", "0.1")
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "repeaterlab.qubus" in imported
    assert not {"dataclasses", "inspect"} & set(imported)


def test_python_dash_m_rate_sweep_imports_no_dataclasses(tmp_path):
    (tmp_path / "grid.cfg").write_text("[case rep]\ncode = [3,1,3]\n[case steane]\ncode = [7,1,3]\nrounds = 1\n")
    argv = ["rate-sweep", "--config", "grid.cfg", "--out", "rates.csv"]
    proc = _python("-X", "importtime", "-m", "repeaterlab", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "repeaterlab.pipeline" in imported
    assert "dataclasses" not in imported
    assert len((tmp_path / "rates.csv").read_text().splitlines()) == 3


def test_python_dash_m_runs_the_cli_without_numpy():
    proc = _python("-X", "importtime", "-m", "repeaterlab", *POINT)
    assert proc.returncode == 0, proc.stderr
    assert "F_final = " in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "repeaterlab.cli" in imported
    assert "numpy" not in imported


@pytest.mark.parametrize(
    "program",
    [
        pytest.param("from repeaterlab import cli\nassert cli.main(['oracle-verify']) == 0", id="oracle-verify"),
        pytest.param("from repeaterlab.montecarlo import simulate_rate", id="montecarlo-export"),
        pytest.param("import repeaterlab.oracle\nrepeaterlab.oracle.DensityMatrix", id="oracle-attribute"),
    ],
)
def test_numpy_layers_still_load_numpy(program):
    assert _leaves_imported(program)


def test_package_root_loads_and_exports_nothing():
    # `import repeaterlab` runs only the docstring and __version__: every
    # public name is imported from the module that defines it
    program = """
import sys
import repeaterlab
loaded = [name for name in sys.modules if name.partition(".")[0] == "repeaterlab"]
assert loaded == ["repeaterlab"], loaded
public = [name for name in dir(repeaterlab) if not name.startswith("_")]
assert public == [], public
assert not hasattr(repeaterlab, "__all__")
assert repeaterlab.__version__ == "0.1.0"
try:
    repeaterlab.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error), error
else:
    raise AssertionError("repeaterlab.no_such_name resolved")
for name in ("evaluate", "no_such_name"):
    try:
        exec(f"from repeaterlab import {name}", {})
    except ImportError:
        pass
    else:
        raise AssertionError(f"from repeaterlab import {name} succeeded")
"""
    proc = _python("-c", program)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_public_name_resolves_in_its_module(module, name):
    namespace = {}
    exec(f"from repeaterlab.{module} import {name}", namespace)
    assert namespace[name].__module__ == f"repeaterlab.{module}"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_match_the_submodule_all(module):
    assert set(importlib.import_module(f"repeaterlab.{module}").__all__) == set(EXPORTS[module])


def test_every_export_is_reached_by_the_package_or_the_benchmark():
    # a public name is loaded, as a name or an attribute, somewhere in the
    # package, or named in the benchmark harness (its tracer table counts);
    # a name that only tests reach is surface that does no work
    loaded = set()
    for tree in trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(getattr(node, "id", None) or node.attr)
    perfbench = "\n".join(p.read_text() for p in Path(SRC).parent.joinpath("perfbench").glob("*.py"))
    unreached = [
        f"repeaterlab.{module}.{name}"
        for module in sorted(EXPORTS)
        for name in importlib.import_module(f"repeaterlab.{module}").__all__
        if name not in loaded and not re.search(rf"\b{name}\b", perfbench)
    ]
    assert unreached == []


def test_every_submodule_has_an_export_entry():
    # private modules (_checked, __main__) export nothing
    submodules = {info.name for info in pkgutil.iter_modules(repeaterlab.__path__) if not info.name.startswith("_")}
    assert submodules == set(EXPORTS)


@pytest.mark.parametrize(
    "module, name",
    [
        ("bell_algebra", "purify_lower_bound"),
        ("bell_algebra", "swap_lower_bound"),
        ("montecarlo", "WindowStats"),
        ("montecarlo", "simulate_window"),
        ("oracle", "apply_dephasing"),
        ("oracle", "apply_noisy_two_qubit_gate"),
        ("oracle", "bell_diagonal_projection"),
        ("cli", "render_config"),
    ],
)
def test_deleted_export_stays_gone(module, name):
    # the pump charge lives in purify_k_rounds_lower, the sampler in simulate_rate,
    # the oracle's gates run only inside its circuits, and config text is read, not written
    with pytest.raises(ImportError):
        exec(f"from repeaterlab.{module} import {name}", {})


# one-number wrappers of evaluate's row, and BellDiagonal.as_tuple, which a
# BellDiagonal already is: only the benchmark harness and tests still call them
BENCHMARK_ONLY = {
    "final_fidelity", "pump_success_probability", "heralding_probability", "rate_unpurified", "rate_purified",
    "as_tuple",
}


# names deleted as surface that did no work: the oracle's hand-held gate API and
# its qubit-index guard, which no command or workload ran, HardwareParams'
# one-line q_g wrapper, whose one caller calls gate_error_prob, the config
# writer that only tests called, the row's storage-window column, which nothing
# read, and the CSV-only writer that _write_table replaced
RETIRED = {
    "apply_dephasing", "apply_noisy_two_qubit_gate", "bell_diagonal_projection", "from_bell_diagonal",
    "num_qubits", "_qubit", "gate_error", "render_config", "t_wait_s", "_write_csv",
}


PACKAGE = Path(repeaterlab.__file__).parent


@functools.cache
def trees():
    """Each package module's AST, by module name: the one place a test parses src/."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@functools.cache
def _nodes():
    """(module, site, owner, node) for every node in the package, depth first: site
    is ``module.function`` of the innermost function, owner the class-qualified path."""
    found = []

    def visit(node, module, site, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                site = f"{module}.{node.name}"
        found.append((module, site, owner, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, site, owner)

    for module, tree in trees().items():
        visit(tree, module, module, module)
    return found


def sites_in_src(match, scope=None):
    """The site of every node in the package, or in module ``scope``, for which
    ``match`` holds; a match that returns a text is named by owner and text."""
    found = []
    for module, site, owner, node in _nodes():
        if scope in (None, module):
            label = match(node)
            if isinstance(label, str):
                found.append(f"{owner} {label}")
            elif label:
                found.append(site)
    return found


def package_imports(tree):
    """The names ``tree`` imports from each package module, by module."""
    imported = collections.defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("repeaterlab") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("repeaterlab")):
            imported[(node.module or "").removeprefix("repeaterlab").lstrip(".")] |= {a.name for a in node.names}
    return imported


def called_name(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def names_a_retired_name(node):
    # a definition, a name, an attribute (a call or a property read) or a string, as in __all__
    field = {ast.FunctionDef: "name", ast.ClassDef: "name", ast.Name: "id", ast.Attribute: "attr",
             ast.Constant: "value"}.get(type(node))
    return field is not None and getattr(node, field) in RETIRED


def divides_by_fiber_speed(node):
    right = getattr(node, "right", None)
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and (
        getattr(right, "attr", None) or getattr(right, "id", None)
    ) == "fiber_speed_m_per_s"


def times_a_power_of_two(node):
    right = getattr(node, "right", None)
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and isinstance(right, ast.BinOp) and isinstance(right.op, ast.Pow)
        and isinstance(right.left, ast.Constant) and right.left.value == 2
    )


def pump_tree_merges(node):
    # 2^k - 1 for a non-constant k
    left = getattr(node, "left", None)
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and getattr(node.right, "value", None) == 1
        and isinstance(left, ast.BinOp) and isinstance(left.op, ast.Pow)
        and getattr(left.left, "value", None) == 2 and not isinstance(left.right, ast.Constant)
    )


def gate_qubits_of_a_code(node):
    # 2n per swap, 4n per merge: a constant times the code length
    right = getattr(node, "right", None)
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Constant)
        and (getattr(right, "id", None) or getattr(right, "attr", None)) == "n"
    )


def calls_math_cos(node):
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and getattr(func, "attr", None) == "cos" and (
        getattr(func.value, "id", None) == "math"
    )


def partitions_at_equals(node):
    return (
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "partition"
        and [getattr(arg, "value", None) for arg in node.args] == ["="]
    )


def compares_a_family(node):
    return isinstance(node, ast.Compare) and any(
        getattr(side, "attr", None) == "family" for side in (node.left, *node.comparators)
    )


def opens_for_writing(node):
    if not isinstance(node, ast.Call):
        return False
    name = called_name(node)
    if name in ("write_text", "write_bytes"):
        return True
    mode = next((k.value for k in node.keywords if k.arg == "mode"), node.args[1] if len(node.args) > 1 else None)
    return name == "open" and mode is not None and not (
        isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")
    )


def imports_dataclasses(node):
    if isinstance(node, ast.Import):
        return "dataclasses" in {a.name.partition(".")[0] for a in node.names}
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"


MATRIX_PRODUCTS = {"matmul", "dot", "vdot", "einsum", "inner", "tensordot"}


def multiplies_matrices(node):
    """The text of a matrix product or a LAPACK call, else False."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute) and (
        node.attr in MATRIX_PRODUCTS or ast.unparse(node.value) in ("np.linalg", "numpy.linalg")
    ):
        return ast.unparse(node)
    return False


class Owner(NamedTuple):
    match: Callable[[ast.AST], object]  # the fact's predicate on one node
    scope: str | None  # the one module searched, or None for all of them
    sites: list[str]  # every site where the fact is written, in walk order
    control: str | None = None  # a line the predicate must fire on; needed where sites is empty


# one owner per fact: each fact is written at exactly these sites
OWNERS = {
    # outside the wrappers' own bodies, the package reads the priced row
    "benchmark-only-calls": Owner(
        lambda node: isinstance(node, ast.Call) and called_name(node) in BENCHMARK_ONLY,
        None, ["pipeline.rate_unpurified", "pipeline.rate_purified", "pipeline.rate_purified"],
        "f = final_fidelity(cfg)",
    ),
    # the oracle's one circuit path is _run behind its three simulators
    "retired-names": Owner(names_a_retired_name, None, [], "rho = apply_dephasing(rho, 0, q)"),
    # T0 = 2 L0 / c is computed by timing alone, which the config check
    # calls, and n 2^k by _rate alone, so that an accepted config's windows
    # and rate are the ones the model computes
    "clock-division": Owner(divides_by_fiber_speed, None, ["pipeline.timing"]),
    "rate-denominator": Owner(times_a_power_of_two, None, ["pipeline._rate"]),
    # the exponent 2n swaps + 4n (2^k - 1) is formed in _gate_charge alone,
    # which the pump and the chain call; qubus._coefficients' 2^(n-1) - 1 is
    # the single probe's extreme phase coefficient, a different fact
    "pump-tree-merges": Owner(pump_tree_merges, None, ["bell_algebra._gate_charge", "qubus._coefficients"]),
    "gate-qubits": Owner(gate_qubits_of_a_code, None, ["bell_algebra._gate_charge"] * 2),
    # 1 - cos theta, which F and the homodyne readout both read
    "phase-gap": Owner(calls_math_cos, None, ["core._phase_gap"]),
    # the clock rule prices its top rate at bell_algebra._COEFF_TOL, imported, not retyped
    "coefficient-tolerance": Owner(
        lambda node: isinstance(node, ast.Constant) and node.value == 1e-12, "pipeline", [], "tol = 1e-12"
    ),
    # one reader partitions each config line, and each --set item, once
    "config-split": Owner(partitions_at_equals, None, ["cli.parse_config", "cli.parse_config"]),
    # eta comes from one call, which the config's constructor checks
    "transmittance-call": Owner(
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "transmittance",
        "pipeline", ["pipeline.segment_transmittance"],
    ),
    # _chain picks each family's storage window from timing (t_k or t'_k)
    "family-window": Owner(compares_a_family, "pipeline", ["pipeline._chain"]),
    # the CSV, the gnuplot table and montecarlo --out go through _write_table
    "file-writing": Owner(opens_for_writing, None, ["cli._write_table"]),
    "table-writer-calls": Owner(
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_table",
        None, ["cli.emit_csv", "cli.emit_gnuplot", "cli.cmd_montecarlo"],
    ),
    # one value-type idiom: every value type is a NamedTuple
    "dataclasses-import": Owner(imports_dataclasses, None, [], "from dataclasses import dataclass"),
    # a bare complex product leaves the vector unit slow for the code that runs
    # next (see _product); eigvalsh is the one other BLAS/LAPACK call: measured
    # after a 16x16 eigvalsh, simulate_rate ran at its clean speed
    "matrix-product": Owner(
        multiplies_matrices, "oracle", ["oracle.DensityMatrix.__init__ np.linalg.eigvalsh", "oracle._product np.matmul"]
    ),
    # _make, and so _replace, builds through the constructor in one place
    "checked-make": Owner(
        lambda node: isinstance(node, ast.FunctionDef) and node.name == "_make", None, ["_checked._make"]
    ),
}

# (importer, source) -> every name the importer takes from that package
# module; "*" stands for the package modules no other row of the importer names
IMPORTS = {
    # the pump, its round, the ladder and their checks live once, in
    # bell_algebra; the chain calls them on four floats and builds none of
    # its value types, and HardwareParams, not the chain, checks q_g
    ("pipeline", "bell_algebra"): {"_COEFF_TOL", "_gate_charge", "_noisy_factors", "_pump", "_pump_noisy", "_swap"},
    # the chain prices the stored pair through the float kernel that
    # effective_coefficients wraps, not through the BellDiagonal it returns;
    # the css chain splits css_effective_qubit_error and logical_error_prob
    # into their f-free set-up (_css_base, _tail_terms), run once, and the
    # float kernels its price calls (_q_eff, _tail_sum)
    ("pipeline", "codes"): {
        "Code", "_css_base", "_q_eff", "_stored_pair", "_tail_sum", "_tail_terms", "logical_error_prob",
        "pair_no_error_prob",
    },
    # p0, P_k and the k = 0 rate come from one evaluate row, the pump window from timing
    ("montecarlo", "pipeline"): {"ProtocolConfig", "SweepResult", "evaluate", "timing", "with_fidelity"},
    # 1 - cos theta has one owner, in core
    ("qubus", "core"): {"_phase_gap"},
    # the oracle shares no code with the closed forms: from the package it
    # takes the checked value types' base, the state types, the round it is
    # compared against, and Code
    ("oracle", "_checked"): {"checked_tuple"},
    ("oracle", "bell_algebra"): {"BellDiagonal", "PurifyOutcome", "purify_imperfect_exact"},
    ("oracle", "codes"): {"Code"},
    ("oracle", "*"): set(),
}


@pytest.mark.parametrize("fact", OWNERS)
def test_fact_is_written_at_its_owners(fact):
    match, scope, sites, control = OWNERS[fact]
    assert sites_in_src(match, scope) == sites
    # a row that expects no site shows that its predicate can fire at all
    assert sites or control
    assert control is None or any(match(node) for node in ast.walk(ast.parse(control)))


@pytest.mark.parametrize("importer, source", IMPORTS)
def test_module_imports_exactly_these_names(importer, source):
    imported = package_imports(trees()[importer])
    if source == "*":
        named = {row_source for row_importer, row_source in IMPORTS if row_importer == importer}
        got = {f"{module}.{name}" for module, names in imported.items() if module not in named for name in names}
    else:
        got = imported[source]
    assert got == IMPORTS[importer, source]


def test_chain_prices_build_no_value_type():
    # price(f) runs about 15 times per solve: no call in it may build a
    # BellDiagonal or PurifyOutcome, directly or through a public wrapper
    (chain,) = (n for n in trees()["pipeline"].body if isinstance(n, ast.FunctionDef) and n.name == "_chain")
    prices = [n for n in ast.walk(chain) if isinstance(n, ast.FunctionDef) and n.name == "price"]
    assert len(prices) == 2  # one per code family
    called = set()
    for price in prices:
        for node in ast.walk(price):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    banned = {"BellDiagonal", "PurifyOutcome", "effective_coefficients", "swap_ideal"}
    assert not {name for name in called if name in banned or (name or "").startswith("purify_")}
    # work that does not depend on f runs once per chain, not once per price
    f_free = {"_noisy_factors", "_css_base", "_tail_terms", "css_effective_qubit_error", "logical_error_prob"}
    assert not called & f_free
    assert {"_pump", "_pump_noisy", "_q_eff", "_stored_pair", "_swap", "_tail_sum"} <= called


def test_readme_names_no_retired_name():
    readme = Path(SRC).parent.joinpath("README.md").read_text(encoding="utf-8")
    assert not re.findall(rf"\b(?:{'|'.join(sorted(RETIRED))})\b", readme)


def test_readme_lists_every_owner():
    # README's "One owner per fact" paragraph names each row's fact and each of its sites
    readme = Path(SRC).parent.joinpath("README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.partition("**One owner per fact.**")[2].partition("\n## ")[0].split())
    named = dict.fromkeys(text for fact, row in OWNERS.items() for text in (fact, *row.sites))
    assert [text for text in named if f"`{text}`" not in paragraph] == []


def test_code_holds_no_constant_dimension():
    # every code protects one logical qubit, so the 1 of [n,1,d] is the label's, not a field
    from repeaterlab.codes import Code, code_catalog

    assert Code._fields == ("n", "d", "family")
    assert [c.label for c in code_catalog()] == [
        "[1,1,1]", "[3,1,3]", "[7,1,7]", "[51,1,51]", "[7,1,3]", "[25,1,5]", "[23,1,7]",
    ]


def test_transmittance_is_one_expression_that_the_config_checks():
    # eta comes from one call (OWNERS' transmittance-call), in
    # segment_transmittance, which the constructor checks; so P0 and the rate
    # cannot fail in _row, and evaluate's try is the one error capture on the row path
    pipeline = trees()["pipeline"]
    config = next(n for n in pipeline.body if isinstance(n, ast.ClassDef) and n.name == "ProtocolConfig")
    methods = {n.name: n for n in config.body if isinstance(n, ast.FunctionDef)}

    def called(node):
        return {called_name(n) for n in ast.walk(node) if isinstance(n, ast.Call)}

    assert not any(isinstance(n, ast.If) for n in ast.walk(methods["segment_transmittance"]))
    assert "segment_transmittance" in called(methods["__init__"])
    # the channel's F reads the same eta as P0
    assert "segment_transmittance" in called(methods["raw_fidelity"])
    functions = {n.name: n for n in pipeline.body if isinstance(n, ast.FunctionDef)}
    assert not any(isinstance(n, ast.Try) for n in ast.walk(functions["_row"]))
    assert sum(isinstance(n, ast.Try) for n in ast.walk(functions["evaluate"])) == 1
    # a fidelity copy keeps the one attenuation length it already holds
    (replace,) = [n for n in ast.walk(functions["with_fidelity"]) if isinstance(n, ast.Call)]
    assert {keyword.arg for keyword in replace.keywords} == {"fidelity", "channel"}


def test_oracle_verify_reads_the_oracles_tolerances():
    # the swap and enumeration thresholds live in oracle beside _MATCH_TOL;
    # the verdict compares against them and writes no threshold of its own
    from repeaterlab import oracle

    cli = trees()["cli"]
    (verify,) = (n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "cmd_oracle_verify")
    compares = [n for n in ast.walk(verify) if isinstance(n, ast.Compare)]
    assert not [
        side for c in compares for side in (c.left, *c.comparators)
        if isinstance(side, ast.Constant) and isinstance(side.value, float)
    ]
    bounds = [c.comparators[0].id for c in compares if isinstance(c.ops[0], ast.LtE)]
    assert bounds == ["_SWAP_TOL", "_ENUM_TOL"]
    assert set(bounds) <= package_imports(verify)["oracle"]
    assert (oracle._SWAP_TOL, oracle._ENUM_TOL) == (1e-10, 1e-12)
