"""The public surface: the names ``cpamm`` exports and the figure ids."""

import types

import cpamm


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


#: Importable from ``cpamm`` but left out of ``__all__``: none.
NOT_STAR_EXPORTED = set()


def test_all_matches_the_import_block():
    public = {
        name
        for name, value in vars(cpamm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - NOT_STAR_EXPORTED == set(cpamm.__all__)
    assert NOT_STAR_EXPORTED <= public
    for name in cpamm.__all__:
        assert getattr(cpamm, name) is not None
