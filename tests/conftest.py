import shutil

import pytest

from lyapunov_lab import chain


@pytest.fixture
def compiled():
    """The compiled kernel, which every comparison with a reference loop must actually run."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler: the reference loops run by themselves")
    assert chain.chain_engine() == "compiled"
