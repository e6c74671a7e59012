"""Constant-product pool engine and liquidity-provider analytics.

The package splits into five layers:

- :mod:`cpamm.pool`: the swap engine itself (spread caps, fees, shares)
- :mod:`cpamm.rational`: an exact rational swap oracle for cross-checking
- :mod:`cpamm.analytics`: impermanent loss and fee-model value evolution
- :mod:`cpamm.compounding`: the compounding-vs-collecting ROI growth model
- :mod:`cpamm.scenario` / :mod:`cpamm.figures` / :mod:`cpamm.cli`: replay
  scripts, CSV figure emitters and the command-line front end

Each layer is loaded on first use: ``import cpamm`` registers every layer in
``sys.modules`` without running its body, and the body runs when one of its
attributes (or one of the names below) is first read.  A one-shot command
thus pays only for the layers it calls, and an error raised while a layer's
body runs surfaces at that first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Each exported name and the layer that defines it.
_EXPORTS = {
    name: layer
    for layer, names in {
        "analytics": """GrowthParams IlReport PriceScenario hold_value_relative
            il_brute_force impermanent_loss relative_evolution_collected
            relative_evolution_compounded""",
        "compounding": """RoiParams RoiSample RoiTrajectory integrate_lc
            lc_implicit_solve roi_pair""",
        "errors": """CpammError DomainError EmptyWindow InactivePool InputError
            InsufficientShares InternalError InvalidFee InvalidRate InvalidStep
            NoConvergence NonPositiveAmount NonPositiveDelta NonPositiveInput
            NonPositivePrice NonPositiveReserve RateMismatch ScriptError
            SpreadOutOfRange""",
        "figures": "FIGURE_IDS FigureSpec default_figure_spec emit_figure",
        "pool": """Direction FeeModel LpPosition Numeric PoolState SideLedger
            SwapQuote SwapReceipt add_liquidity arbitrage_input_for_rate
            create_pool execute_swap liquidity_of max_input_for_spread pool_value
            quote rate_of remove_liquidity reserves_from_rate_liquidity
            reserves_from_value""",
        "rational": "RationalPool oracle_split_sum oracle_swap",
        "scenario": """CollectFees Event PortfolioSnapshot PriceMove ScenarioScript
            Snapshot Trade load_script measure_effective_alpha run_scenario
            snapshots_to_csv""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def _register_lazy(layer: str):
    """``cpamm.<layer>`` in ``sys.modules``, its body deferred to first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in sorted(set(_EXPORTS.values())):
    globals()[_layer] = _register_lazy(_layer)
del _layer


def __getattr__(name: str):
    try:
        layer = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[layer], name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
