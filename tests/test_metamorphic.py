"""Metamorphic gates over the benchmark's compare-param pool: swapping X and Y
mirrors every verdict, on the theorem route (with its oracle fallbacks) and on
the grid oracle alone.  Holds and HoldsReversed trade places; Equivalent,
BothDirectionsFail and Inconclusive stay as they are."""

import pytest

from qorder.cli import parse_spec
from qorder.orders import HOLDS, HOLDS_REVERSED, compare_all

MIRROR = {HOLDS: HOLDS_REVERSED, HOLDS_REVERSED: HOLDS}
METHODS = ("theorem", "oracle")

# forward, star is HoldsReversed from an oracle margin of 1.01e-9; swapped, the
# theorem route reads BothDirectionsFail (ROADMAP items 8 and 3)
THIN_MARGIN = ("govindarajulu:0.0205512,1.68569,3.44011", "govindarajulu:0.423898,1.78862,3.04193")


@pytest.fixture(scope="module")
def pool_pairs(workloads):
    """The (X, Y) model pairs of every compare-param argv, each spec parsed once
    so that both routes share each model's grid profile."""
    models = {}
    pairs = []
    for stratum in workloads.load_pool("compare-param").values():
        for entry in stratum:
            argv = entry["argv"]
            x, y = argv[argv.index("--x") + 1], argv[argv.index("--y") + 1]
            for spec in (x, y):
                if spec not in models:
                    models[spec] = parse_spec(spec)
            pairs.append((x, y, models[x], models[y]))
    return pairs


def _statuses(X, Y, method):
    return [v.status for v in compare_all(X, Y, method=method)]


def _unmirrored(pairs, method):
    return [(x, y) for x, y, X, Y in pairs
            if [MIRROR.get(s, s) for s in _statuses(X, Y, method)] != _statuses(Y, X, method)]


@pytest.mark.parametrize("method", METHODS)
def test_swapping_the_pair_mirrors_every_verdict(pool_pairs, method):
    assert len(pool_pairs) == 1602
    assert [pair[:2] for pair in pool_pairs].count(THIN_MARGIN) == 1
    # the oracle alone mirrors the thin-margin pair too; the theorem route is pinned below
    pairs = [pair for pair in pool_pairs if method == "oracle" or pair[:2] != THIN_MARGIN]
    assert _unmirrored(pairs, method) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP items 8 and 3: a star verdict from an "
                   "oracle margin of 1.01e-9")
def test_the_thin_margin_pair_mirrors(pool_pairs):
    pair = [p for p in pool_pairs if p[:2] == THIN_MARGIN]
    assert _unmirrored(pair, "theorem") == []
