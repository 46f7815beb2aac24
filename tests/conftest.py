"""Load a derandomized hypothesis profile, so every run draws the same examples,
and name the Python and numpy versions in the report header: the golden files
depend on the numpy version."""

import platform

import numpy as np
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_report_header(config):
    return f"python {platform.python_version()}, numpy {np.__version__}"
