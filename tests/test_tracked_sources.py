"""No source file of the package, its tests or its examples is ignored
by git.

An ignore rule that matches a source directory keeps that directory out
of every commit while the code still runs on the machine that wrote it;
a clean checkout then fails at import.  This asks git which files its
ignore rules match, whether or not they are tracked.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCE_DIRS = ("src/repro", "tests", "examples")

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None or not (REPO / ".git").exists(),
    reason="needs git on the PATH and a git checkout")


def _source_files() -> list[str]:
    files = []
    for directory in SOURCE_DIRS:
        for path in sorted((REPO / directory).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files.append(path.relative_to(REPO).as_posix())
    return files


def test_no_source_file_is_ignored():
    files = _source_files()
    assert any(name.endswith(".py") for name in files)
    result = subprocess.run(
        ["git", "check-ignore", "--no-index", "--stdin"],
        input="\n".join(files) + "\n", cwd=REPO, capture_output=True,
        text=True, check=False)
    # Exit 1: nothing ignored; 0: the ignored paths are on stdout.
    assert result.returncode in (0, 1), result.stderr
    ignored = result.stdout.split()
    assert not ignored, f"git ignores source files: {ignored}"
