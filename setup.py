"""Setuptools shim.

The project metadata lives in ``pyproject.toml``.  ``pip install -e .``
needs the ``wheel`` package for its PEP 517 editable build (pip 23 no longer
falls back to the legacy path without it).  This file keeps
``python setup.py develop`` working as the offline editable install where
``wheel`` is not available.
"""

from setuptools import setup

setup()
