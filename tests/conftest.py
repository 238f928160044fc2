import pytest


@pytest.fixture(autouse=True)
def cache_home(monkeypatch, tmp_path_factory):
    """Give every test, and the subprocesses it starts, a cache directory of
    its own in place of the user's, so no parsed file outlives its test."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
