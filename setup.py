from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: ship inline type information (repro.api is checked with
    # mypy --strict in CI; see mypy.ini and docs/LINTING.md).
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
)
