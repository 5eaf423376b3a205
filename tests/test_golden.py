"""The paper's fixed-seed artifacts regenerate exactly (see ``tests/golden.py``).

Table 2 and Figures 1, 3 and 4 are compared here; Tables 3 and 4 and
Figure 2 take longer and are compared by
``python tests/golden.py --check T3 T4 F2``.
"""

from __future__ import annotations

import pytest

from tests import golden


def test_pin_covers_every_cell():
    assert sorted(golden.load()) == sorted(golden.cell_key(c) for c in golden.cells())


@pytest.mark.parametrize("artifact", golden.FAST_ARTIFACTS)
def test_artifact_matches_golden(artifact):
    assert golden.drift([artifact]) == []
