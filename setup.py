"""Setup shim.

The offline environment has setuptools but no ``wheel`` package, so PEP 660
editable installs (which need ``bdist_wheel``) fail.  A classic ``setup.py``
lets ``pip install -e .`` fall back to the legacy develop-mode install.
Package metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Statistical leakage-power optimization under process variation "
        "using dual-Vth assignment and gate sizing (DAC 2004 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy"],
)
