"""Packaging for the ``repro`` library (the advisor, fleet layer and service).

The package lives under ``src/`` and needs only NumPy at run time.  Build
it with ``python setup.py build`` (no ``wheel`` package needed) or install
it with ``pip install .`` where ``wheel`` is available.  The version is
read from ``src/repro/__init__.py`` so it has one definition.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Automatic virtual machine configuration for database workloads: "
        "a what-if advisor, fleet placement and an HTTP service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    # slots=True dataclasses and ``str | None`` annotations need 3.10.
    python_requires=">=3.10",
)
