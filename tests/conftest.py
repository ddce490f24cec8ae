import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

from diosum import kernel
from diosum.cf import IrrationalSpec
from diosum.errors import DiosumError

# keep the suite deterministic run to run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def _stale_extension() -> bool:
    """Whether _ckernel.c is newer than the extension module loaded from
    beside it: the in-place build is not redone by running the tests."""
    if kernel._ckernel is None:
        return False
    built = kernel._ckernel.__file__
    source = os.path.join(os.path.dirname(built), "_ckernel.c")
    return os.path.exists(source) and os.path.getmtime(source) > os.path.getmtime(built)


def pytest_report_header(config):
    # without the compiled extension the cross-backend tests are skipped;
    # with a stale one they compare the Python loop against an old C loop
    try:
        chosen = kernel.backend()
    except DiosumError as exc:  # a bad DIOSUM_KERNEL
        chosen = f"none ({exc})"
    line = f"diosum kernel backend: {chosen}; available: {', '.join(kernel.available_backends())}"
    if _stale_extension():
        line += "; stale: run python setup.py build_ext --inplace"
    return line


@pytest.fixture
def phi():
    return IrrationalSpec.phi()


@pytest.fixture
def sqrt2():
    return IrrationalSpec.sqrt2()


@pytest.fixture
def e_const():
    return IrrationalSpec.e()
