"""Import cost: the closed-form model and the CLI load numpy only on demand."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repeaterlab

SRC = str(Path(repeaterlab.__file__).resolve().parents[1])

# every name `from repeaterlab import X` served when the package imported
# all of its submodules eagerly, by the submodule that defines it
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
        "DensityMatrix", "GateErrorVariant", "VariantReport", "apply_dephasing",
        "apply_noisy_two_qubit_gate", "bell_diagonal_projection", "enumerate_logical_error",
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
}
SUBMODULES = [*EXPORTS, "cli"]
POINT = ["fidelity", "--code", "[7,1,3]", "--rounds", "1", "--fidelity", "0.97"]
# the full 2^12-pattern ledger runs in pure Python
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
        pytest.param("from repeaterlab import operating_point, sweep, logical_error_prob", id="exports"),
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
    "program, imports_dataclasses",
    [
        pytest.param("import repeaterlab.pipeline", False, id="pipeline"),
        pytest.param("import repeaterlab.cli", False, id="cli"),
        # the numpy-side value types are still dataclasses
        pytest.param("import repeaterlab.oracle", True, id="oracle"),
    ],
)
def test_closed_form_model_imports_no_dataclasses(program, imports_dataclasses):
    # its value types are NamedTuples; dataclasses would also load inspect, ast, dis and tokenize
    assert _leaves_imported(program, "dataclasses") == imports_dataclasses


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
        pytest.param("from repeaterlab import simulate_rate", id="montecarlo-export"),
        pytest.param("import repeaterlab\nrepeaterlab.oracle", id="oracle-attribute"),
    ],
)
def test_numpy_layers_still_load_numpy(program):
    assert _leaves_imported(program)


def test_submodules_resolve_after_a_plain_import():
    program = "import repeaterlab\n" + "\n".join(
        f"assert repeaterlab.{name}.__name__ == 'repeaterlab.{name}'" for name in SUBMODULES
    )
    assert _leaves_imported(program)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in EXPORTS.items() for name in names]
)
def test_export_is_the_submodule_object(module, name):
    namespace = {}
    exec(f"from repeaterlab import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"repeaterlab.{module}"), name)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_exports_match_the_submodule_all(module):
    assert set(importlib.import_module(f"repeaterlab.{module}").__all__) == set(repeaterlab._EXPORTS[module])


def test_every_submodule_has_an_export_entry():
    submodules = {info.name for info in pkgutil.iter_modules(repeaterlab.__path__)}
    assert submodules - {"cli", "__main__"} == set(repeaterlab._EXPORTS)


def test_all_and_dir_list_every_export():
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(repeaterlab.__all__) == exported
    assert exported | set(SUBMODULES) | {"__version__"} <= set(dir(repeaterlab))
    assert repeaterlab.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repeaterlab.no_such_name
    assert not hasattr(repeaterlab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from repeaterlab import no_such_name", {})


@pytest.mark.parametrize(
    "module, name",
    [
        ("bell_algebra", "purify_lower_bound"),
        ("bell_algebra", "swap_lower_bound"),
        ("montecarlo", "WindowStats"),
        ("montecarlo", "simulate_window"),
    ],
)
def test_deleted_export_stays_gone(module, name):
    # the pump charge lives in purify_k_rounds_lower and the sampler in simulate_rate
    assert not hasattr(importlib.import_module(f"repeaterlab.{module}"), name)
    assert not hasattr(repeaterlab, name)
    with pytest.raises(ImportError):
        exec(f"from repeaterlab import {name}", {})


PIPELINE_TREE = ast.parse(Path(repeaterlab.__file__).with_name("pipeline.py").read_text())


def pipeline_imports_from(module):
    imported = set()
    for node in ast.walk(PIPELINE_TREE):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("repeaterlab") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("repeaterlab")):
            if (node.module or "").removeprefix("repeaterlab").lstrip(".") == module:
                imported |= {a.name for a in node.names}
    return imported


def test_pipeline_takes_only_float_kernels_from_bell_algebra():
    # the pump, its round, the ladder and their checks live once, in
    # bell_algebra; the chain calls them on four floats and builds none of
    # its value types
    assert pipeline_imports_from("bell_algebra") == {
        "_check_gate_error", "_gate_charge", "_pump", "_pump_noisy", "_swap",
    }


def test_pipeline_takes_the_stored_pair_as_floats_from_codes():
    # the chain prices the stored pair through the float kernel that
    # effective_coefficients wraps, not through the BellDiagonal it returns
    assert pipeline_imports_from("codes") == {
        "Code", "_stored_pair", "css_effective_qubit_error", "logical_error_prob", "pair_no_error_prob",
    }


def test_chain_prices_build_no_value_type():
    # price(f) runs about 15 times per solve: no call in it may build a
    # BellDiagonal or PurifyOutcome, directly or through a public wrapper
    (chain,) = (n for n in PIPELINE_TREE.body if isinstance(n, ast.FunctionDef) and n.name == "_chain")
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
    assert {"_pump", "_pump_noisy", "_stored_pair", "_swap"} <= called
