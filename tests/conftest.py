import pytest

from nomafbl import eccalc


@pytest.fixture
def count_draws(monkeypatch):
    """The (k, size) of each sample_gain call Monte-Carlo makes, recorded
    from a cold memo."""
    eccalc.mc_gain_draws.cache_clear()
    calls = []
    sample_gain = eccalc.sample_gain
    monkeypatch.setattr(eccalc, "sample_gain", lambda *a: (
        calls.append((a[0], a[2])) or sample_gain(*a)))
    return calls
