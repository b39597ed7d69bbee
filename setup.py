"""Setup shim.

There is no ``pyproject.toml`` or ``setup.cfg``: this file is the whole
packaging configuration.  setuptools' automatic discovery finds the
``repro`` package under ``src/``; no name, version or dependency is declared
(numpy is the only runtime requirement, see README § Install).  A
``setup.py`` lets ``pip install -e .`` fall back to the legacy develop-mode
install where the ``wheel`` package, which PEP 660 editable installs need,
is missing.
"""

from setuptools import setup

setup()
