import pytest

from exdyn import harness


@pytest.fixture
def no_run(monkeypatch):
    """Make every way the package starts a simulation raise: a test that
    uses it shows that the input is checked before any run or stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the input")

    for name in ("substream", "_Run", "run_trajectory", "_lockstep_states"):
        monkeypatch.setattr(harness, name, refuse)
