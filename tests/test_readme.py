import doctest
import math
from pathlib import Path

from test_engine import DP_ONLY_ROWS, REFERENCE_ROWS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs_as_written():
    # The outputs in README's "Library" block, record reprs included, are
    # checked against the package, so the block cannot go stale.
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


# Each row of README's caps table, by its command cell, and the kind of work
# in cli._CAPS whose caps it states.
CAP_ROWS = {
    "`const` (subset DP), `table --max-p`, `verify --mode parity`": "dp",
    "`const --workers` and `bench --algo v2 --workers` above 1 (the walk)":
        "walk",
    "`bench --algo v2 --workers 1` and `verify --mode oeis` (the stream)":
        "stream",
    "`bench --algo v1` and `verify --mode generators` (the exhaustive "
    "filter)": "filter",
    "`verify --mode oracle`": "oracle",
    "`verify --mode theorem-random`": "theorem-random",
}


def test_readme_caps_table_states_the_cli_caps():
    from altwronsk.cli import _CAPS

    lines = README.read_text().splitlines()
    start = lines.index("| command | without `--slow` | with `--slow` |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, cap, slow_cap = map(str.strip, line.split("|")[1:-1])
        rows[command] = (int(cap),
                         int(cap if slow_cap == "(no `--slow`)" else slow_cap))
    assert sorted(CAP_ROWS.values()) == sorted(_CAPS)
    assert rows == {row: _CAPS[kind][:2] for row, kind in CAP_ROWS.items()}


def test_readme_results_table_states_the_pinned_rows():
    # Every published cell but the DP time: const(p), |Phi_p| / N! and
    # even / odd, against the rows the test suite pins.
    lines = README.read_text().splitlines()
    start = lines.index(
        "| p | const(p) | contributing / N! | even / odd | DP time |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        p, const, counts, parity, _ = map(str.strip, line.split("|")[1:-1])
        phi, n_factorial = counts.split(" / ")
        even, odd = parity.split(" / ")
        rows.append(tuple(map(int, (p, phi, n_factorial, even, odd, const))))
    assert rows == [(p, phi, math.factorial(2 * p), even, odd, const)
                    for p, phi, even, odd, const in REFERENCE_ROWS
                    + DP_ONLY_ROWS if p <= 12]
