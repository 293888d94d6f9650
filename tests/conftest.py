"""Set-up shared by every test module."""

import pytest

from covergeo import flatnorm


@pytest.fixture(autouse=True)
def whole_preflow_budget(monkeypatch):
    """Start every test with the whole per-process preflow budget.

    The budget is module state, so without this a cut that forces no solver
    would run the preflow or Dinic depending on which tests ran before it.
    """
    monkeypatch.setattr(flatnorm, "_preflow_left", flatnorm._PREFLOW_NODES)
