"""Every packaged data file is named by the package-data globs.

The tests import ``symchain`` from ``src/``, where every data file is
present, so a file that no ``[tool.setuptools.package-data]`` glob in
``pyproject.toml`` names would be missing only from an installed copy.
The globs are expanded as setuptools expands them, relative to the
package's directory.
"""

from pathlib import Path

import pytest

import symchain

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_data_file_matches_a_package_data_glob():
    package = Path(symchain.__file__).parent
    globs = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]["symchain"]
    packaged = {path.relative_to(package) for pattern in globs for path in package.glob(pattern)}
    files = {path.relative_to(package) for path in (package / "data").rglob("*") if path.is_file()}
    assert files
    assert sorted(map(str, files - packaged)) == []
