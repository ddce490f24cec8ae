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


def pytest_report_header(config):
    # without the compiled extension the cross-backend tests are skipped
    try:
        chosen = kernel.backend()
    except DiosumError as exc:  # a bad DIOSUM_KERNEL
        chosen = f"none ({exc})"
    return f"diosum kernel backend: {chosen}; available: {', '.join(kernel.available_backends())}"


@pytest.fixture
def phi():
    return IrrationalSpec.phi()


@pytest.fixture
def sqrt2():
    return IrrationalSpec.sqrt2()


@pytest.fixture
def e_const():
    return IrrationalSpec.e()
