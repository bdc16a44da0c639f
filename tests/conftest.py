"""Fixtures shared by the test modules."""

from math import isqrt

import pytest

from erdos_clopen import clopen, exact, space


@pytest.fixture()
def roots(monkeypatch):
    """The operand of every `isqrt` the library takes, in order, counted by
    wrapping `isqrt` where the library calls it: a count, not a timing."""
    calls = []

    def counted(n):
        calls.append(n)
        return isqrt(n)

    for module in (space, clopen, exact):
        monkeypatch.setattr(module, "isqrt", counted)
    return calls


@pytest.fixture()
def pairs(monkeypatch):
    """Every threshold-pair lookup and construction the library makes, in
    order, as ("pair_at", n) and ("built", pair) entries, counted by wrapping
    `Schedule.pair_at` and `AlphaBetaPair.__post_init__`, so a count holds
    with or without a pair cache."""
    calls = []
    pair_at, post_init = clopen.Schedule.pair_at, clopen.AlphaBetaPair.__post_init__

    def counted_pair_at(schedule, n):
        calls.append(("pair_at", n))
        return pair_at(schedule, n)

    def counted_post_init(pair):
        calls.append(("built", pair))
        post_init(pair)

    monkeypatch.setattr(clopen.Schedule, "pair_at", counted_pair_at)
    monkeypatch.setattr(clopen.AlphaBetaPair, "__post_init__", counted_post_init)
    return calls
