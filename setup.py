"""Legacy setup shim: metadata lives in pyproject.toml."""

from setuptools import setup

setup()
