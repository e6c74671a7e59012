"""The public surface: the names ``cpamm`` exports, the figure ids, and the
layers each command loads."""

import dataclasses
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cpamm
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("analytics", "compounding", "errors", "figures", "pool", "rational", "scenario")


def test_figure_ids_are_pinned_in_order():
    assert cpamm.FIGURE_IDS == (
        "il_one_coin",
        "portfolio_one_coin",
        "fee_model_comparison",
        "roi_comparison",
        "corrected_fee_model_comparison",
    )


def test_all_has_no_duplicates():
    assert len(cpamm.__all__) == len(set(cpamm.__all__))


def test_all_matches_the_export_table():
    assert sorted(cpamm._EXPORTS) == cpamm.__all__
    for name, layer in cpamm._EXPORTS.items():
        assert getattr(cpamm, name) is getattr(sys.modules[f"cpamm.{layer}"], name)
    public = {
        name
        for name, value in vars(cpamm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(cpamm.__all__)
    assert set(cpamm.__all__) <= set(dir(cpamm))


def _fresh(code: str, *options: str):
    """Run ``code`` in a new interpreter, started with ``options``, on the
    ``cpamm`` this one imported; returns what it prints as JSON."""
    done = subprocess.run([sys.executable, *options, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


#: Prints which layers' bodies have run: ``type`` reads no attribute, so it loads none.
_LOADED = """
import importlib.util, json, sys
print(json.dumps(sorted(name.split(".")[1] for name, module in sys.modules.items()
      if name.startswith("cpamm.") and type(module) is not importlib.util._LazyModule)))
"""


#: Modules a command on float input leaves unloaded: ``dataclasses`` pulls
#: in ``inspect`` and through it ``ast``, ``dis`` and ``tokenize``,
#: ``fractions`` pulls in ``decimal`` and ``numbers``, and ``argparse``
#: pulls in ``gettext``, whose first message loads ``locale``.
_UNLOADED = ("dataclasses", "inspect", "fractions", "decimal", "numbers", "argparse", "gettext",
             "locale")


def _layers_of_a_call(argv, loaded=()) -> list:
    """The cpamm layers ``main(argv)`` runs in a new interpreter, which must
    load the modules of ``_UNLOADED`` that are in ``loaded`` and no other."""
    code = "import contextlib, io, sys, cpamm.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
    code += f"    assert cpamm.cli.main({argv!r}) == 0\n"
    code += f"assert [m for m in {_UNLOADED!r} if m in sys.modules] == {list(loaded)!r}\n"
    return _fresh(code + _LOADED)


#: One float argv of each command kind of the benchmark's one-shot calls
#: but ``run-scenario`` (tested below), with the layers it runs.
_FLOAT_CALLS = {
    "quote": (["quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "5",
               "--max-spread", "0.01"], ["cli", "errors", "kernel"]),
    "swap": (["swap", "--x", "100", "--y", "100", "--direction", "x2y", "--amount", "5",
              "--fee", "0.003", "--fee-model", "collect_separately"], ["cli", "errors", "kernel"]),
    "pool-info": (["pool-info", "--x", "3", "--y", "2", "--p-x", "0.5"],
                  ["cli", "errors", "kernel"]),
    "il": (["il", "--delta-x", "1", "--delta-y", "4"], ["cli", "curves", "errors"]),
    "il --replay-check": (["il", "--delta-x", "1", "--delta-y", "4", "--replay-check"],
                          ["cli", "curves", "errors", "kernel"]),
    "evolve": (["evolve", "--delta-x", "2", "--alpha", "0.3"], ["cli", "curves", "errors"]),
    "roi": (["roi"], ["cli", "curves", "errors"]),
    "roi rk4": (["roi", "--method", "rk4"], ["cli", "curves", "errors"]),
    "emit-figure roi": (["emit-figure", "--figure", "roi_comparison"], ["cli", "curves", "errors"]),
    "emit-figure il": (["emit-figure", "--figure", "il_one_coin"], ["cli", "curves", "errors"]),
}


@pytest.mark.parametrize("kind", list(_FLOAT_CALLS))
def test_each_command_on_floats_runs_its_engine_alone(kind):
    argv, layers = _FLOAT_CALLS[kind]
    assert _layers_of_a_call(argv) == layers


def test_no_command_on_floats_loads_typing():
    # Under -S, as a site may load typing itself (a .pth file can), which
    # would hide an import of the cli's: it annotates with builtin generics.
    code = "import contextlib, io, json, sys, cpamm.cli\nloaded = ['typing' in sys.modules]\n"
    code += f"for argv in {[argv for argv, _ in _FLOAT_CALLS.values()]!r}:\n"
    code += "    with contextlib.redirect_stdout(io.StringIO()):\n"
    code += "        assert cpamm.cli.main(argv) == 0\n"
    code += "    loaded.append('typing' in sys.modules)\nprint(json.dumps(loaded))\n"
    assert _fresh(code, "-S") == [False] * (1 + len(_FLOAT_CALLS))


@pytest.mark.parametrize(
    "argv",
    [
        ["quote", "--x", "100/1", "--y", "100/1", "--direction", "y2x", "--amount", "5/2"],
        ["swap", "--x", "100/1", "--y", "100/1", "--direction", "x2y", "--amount", "5/1",
         "--fee", "3/1000", "--fee-model", "collect_separately"],
        ["pool-info", "--x", "1/3", "--y", "2"],
    ],
)
def test_an_exact_argv_loads_fractions_but_not_dataclasses(argv):
    assert _layers_of_a_call(argv, ["fractions", "decimal", "numbers"]) == [
        "cli", "errors", "kernel"]


def test_the_parser_reads_its_choices_from_the_engines():
    # Help and usage errors build every command's arguments: the choices of
    # --direction, --fee-model and --figure come from the engines alone.
    code = "import cpamm.cli\ncpamm.cli.build_parser()\n" + _LOADED
    assert _fresh(code) == ["cli", "curves", "errors", "kernel"]


def test_importing_the_cli_runs_no_engine_module():
    code = "import cpamm.cli, sys\nassert 'cpamm.kernel' not in sys.modules\n"
    code += "assert 'cpamm.replay' not in sys.modules\nassert 'cpamm.curves' not in sys.modules\n"
    code += "assert 'argparse' not in sys.modules\n"
    code += _LOADED
    assert _fresh(code) == ["cli", "errors"]


def _run_scenario_in_fresh(tmp_path, doc) -> list:
    """``run-scenario`` on ``doc`` in a new interpreter: the CSV it prints,
    the modules of ``_UNLOADED`` it loaded, and the cpamm layers it ran."""
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys, cpamm.cli\nout = io.StringIO()\n"
        f"with contextlib.redirect_stdout(out):\n"
        f"    assert cpamm.cli.main(['run-scenario', {str(path)!r}]) == 0\n"
        f"print(json.dumps([out.getvalue(), [m for m in {_UNLOADED!r} if m in sys.modules]]))\n"
    )
    return [*_fresh(code), _fresh(code + _LOADED)]


def test_a_float_script_runs_on_the_engine_alone(tmp_path):
    doc = {"pool": {"x": 100, "y": 100, "fee_rate": 0.003, "fee_model": "collect_separately"},
           "prices": {"p_x": 1, "p_y": 1},
           "events": [{"type": "trade", "t": 0.5, "direction": "y2x", "amount": 5,
                       "max_spread": 0.5},
                      {"type": "price_move", "t": 0.6, "delta_x": 1.1, "delta_y": 1},
                      {"type": "collect_fees", "t": 0.75, "provider": "lp"},
                      {"type": "snapshot", "t": 1, "label": "end"}]}
    csv, loaded, layers = _run_scenario_in_fresh(tmp_path, doc)
    assert csv == cpamm.snapshots_to_csv(cpamm.run_scenario(cpamm.load_script(
        tmp_path / "script.json")))
    assert [row.split(",")[0] for row in csv.splitlines()] == ["label", "end", "final"]
    assert loaded == []
    assert layers == ["cli", "errors", "kernel", "replay"]


def test_an_exact_script_loads_fractions_and_prints_exact_rows(tmp_path):
    doc = {"pool": {"x": "100/1", "y": "100/1"}, "prices": {"p_x": 1, "p_y": 1},
           "events": [{"type": "trade", "t": "1/2", "direction": "y2x", "amount": "1/1"}]}
    csv, loaded, layers = _run_scenario_in_fresh(tmp_path, doc)
    assert csv.splitlines()[-1].startswith("final,0.5,99.00990099009901,101.0,")
    assert "fractions" in loaded and "dataclasses" not in loaded and "argparse" not in loaded
    assert layers == ["cli", "errors", "kernel", "replay"]


def test_the_csv_columns_are_the_snapshot_fields():
    from cpamm import replay

    names = tuple(field.name for field in dataclasses.fields(cpamm.PortfolioSnapshot))
    assert replay._COLUMNS == names
    assert replay._CSV_HEADER == ",".join(names) + "\n"


def test_the_receipt_fields_are_the_quote_fields():
    from cpamm import kernel

    names = tuple(field.name for field in dataclasses.fields(cpamm.SwapQuote))
    assert kernel._RECEIPT_FIELDS == names


@pytest.mark.parametrize("check, checked", [
    ("_check_prices", "PriceScenario"), ("_check_growth", "GrowthParams"),
    ("_roi_params", "RoiParams"), ("_figure_spec", "FigureSpec"),
])
def test_each_engine_check_takes_the_fields_and_defaults_of_its_type(check, checked):
    # The commands call the check with the type's defaults left out.
    from cpamm import curves

    params = inspect.signature(getattr(curves, check)).parameters.values()
    assert [(param.name, param.default) for param in params] == [
        (field.name, inspect.Parameter.empty if field.default is dataclasses.MISSING
         else field.default) for field in dataclasses.fields(getattr(cpamm, checked))]


def test_the_pool_and_scenario_value_types_are_frozen_slotted_dataclasses():
    names = {name for name, layer in cpamm._EXPORTS.items() if layer in ("pool", "scenario")
             and dataclasses.is_dataclass(getattr(cpamm, name))}
    assert names == {"CollectFees", "LpPosition", "PoolState", "PortfolioSnapshot", "PriceMove",
                     "ScenarioScript", "SideLedger", "Snapshot", "SwapQuote", "SwapReceipt",
                     "Trade"}
    for name in names:
        params = getattr(cpamm, name).__dataclass_params__
        assert params.frozen and "__slots__" in vars(getattr(cpamm, name)), name


def test_star_import_binds_exactly_all():
    code = (
        "import json\nnames = {}\nexec('from cpamm import *', names)\n"
        "import cpamm\nnames.pop('__builtins__')\n"
        "print(json.dumps([sorted(names) == cpamm.__all__,"
        " all(names[n] is getattr(cpamm, n) for n in names)]))"
    )
    assert _fresh(code) == [True, True]


def test_every_layer_resolves_after_a_bare_import():
    code = (
        "import json, types, cpamm\n"
        f"print(json.dumps([isinstance(getattr(cpamm, layer), types.ModuleType)"
        f" and bool(vars(getattr(cpamm, layer))) for layer in {LAYERS!r}]))"
    )
    assert _fresh(code) == [True] * len(LAYERS)


def test_every_traced_layer_is_registered_by_importing_the_cli():
    # The benchmark's tracer imports cpamm.cli and then reads each layer it
    # wraps from sys.modules, before any command has run.
    code = (
        "import json, runpy, sys\n"
        f"targets = runpy.run_path({str(ROOT / 'bench' / 'tracing.py')!r})['TARGETS']\n"
        "import cpamm.cli\n"
        "modules = sorted({module for spans in targets.values() for module, _ in spans})\n"
        "print(json.dumps([modules, [m for m in modules if m not in sys.modules]]))"
    )
    modules, missing = _fresh(code)
    assert len(modules) >= 4
    assert missing == []
