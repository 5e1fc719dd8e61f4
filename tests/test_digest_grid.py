"""A fixed slice of the equivalence grid of `scripts/digest_grid.py`.

Each of its 30 configs must reproduce the trace digest in
`tests/grid_digests.txt`, which holds the script's own `--slice` output. The
slice takes two configs of every (n/t, policy) pair, with varied inject
modes, cores and recycling, and adds to the pinned golden digests. A change
that alters traces on purpose records the new table with

    PYTHONPATH=src python scripts/digest_grid.py --slice > tests/grid_digests.txt

and says why the traces changed.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("digest_grid", ROOT / "scripts" / "digest_grid.py")
digest_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_grid)

TABLE = dict(
    line.split() for line in Path(__file__).with_name("grid_digests.txt").read_text().splitlines()
)
SLICE = dict(digest_grid.grid_slice())


def test_table_is_the_slice_of_a_270_config_grid():
    assert len(digest_grid.grid()) == 270
    assert list(TABLE) == list(SLICE)
    pairs = {((s["n"], s["t"]), s["adversary"]) for s in SLICE.values()}
    assert len(pairs) == len(digest_grid.SIZES) * len(digest_grid.POLICIES)


@pytest.mark.parametrize("name", list(SLICE))
def test_grid_digest_unchanged(name):
    assert digest_grid.digest(SLICE[name]) == TABLE[name]
