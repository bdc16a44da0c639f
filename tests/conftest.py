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
