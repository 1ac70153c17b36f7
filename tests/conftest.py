"""Shared fixtures; the helpers themselves live in ``helpers.py``."""

import pytest

from helpers import TEMPLATE_DAGS


@pytest.fixture(scope="session")
def template_dags():
    return TEMPLATE_DAGS
