import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_as_written():
    # The outputs in README's "Library" block, record reprs included, are
    # checked against the package, so the block cannot go stale.
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
