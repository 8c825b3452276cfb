"""Ensure the in-tree package is importable when running pytest from the
repository root, independent of whether an editable install succeeded,
and that the reference oracles (``tests/kernel/reference_kernel.py``,
``tests/core/sa_oracle.py``, ...) are importable from every test and
benchmark directory."""

import os
import sys

_ROOT = os.path.dirname(__file__)
for _path in (
    os.path.join(_ROOT, "src"),
    os.path.join(_ROOT, "tests", "kernel"),
    os.path.join(_ROOT, "tests", "core"),
):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-trace fixtures under "
        "tests/fixtures/golden/ from the current simulator instead of "
        "comparing against them",
    )
