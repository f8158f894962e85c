"""Shared test set-up."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _temporary_eigenbasis_cache(tmp_path_factory):
    """Point the default eigenbasis cache at a temporary directory, so calls
    that pass no ``cache_dir`` never write to ``~/.cache/thin-epi``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("THIN_EPI_CACHE",
                     str(tmp_path_factory.mktemp("eigenbasis-cache")))
        yield
