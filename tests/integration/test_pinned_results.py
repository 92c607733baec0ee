"""Results pinned across commits: the stream and matrix digests.

The in-suite determinism tests compare two runs of the *same* code, so a
change that shifts every result alike passes them.  These digests are
fixed values and must not move under refactors.  A deliberate semantic
change (for example recalibrating the strategy fees) updates them in the
same change, and says why.
"""

import hashlib
import json

from repro.matrix import run_matrix
from repro.streaming import run_stream
from tests.matrix.test_runner import SMALL as MATRIX_SMALL
from tests.streaming.test_pipeline import SMALL as STREAM_SMALL

STREAM_SHA256 = (
    "d01c323912ee39c42047be06c830391aa835ad1b4a3094224c1d270f0f7c09cf"
)
#: Over the ``cells`` and ``leaderboard`` only: ``config`` echoes every
#: config field, so removing an option changes it without changing any
#: result.
MATRIX_SHA256 = (
    "d2a658ec9d509aaf4c65fd38ee0b99bfea8c8223f1439b3ab0da100ba407415a"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_stream_report_is_pinned():
    assert _sha256(run_stream(STREAM_SMALL).deterministic_json()) == (
        STREAM_SHA256
    )


def test_matrix_cells_and_leaderboard_are_pinned():
    payload = run_matrix(MATRIX_SMALL).deterministic_payload()
    results = {key: payload[key] for key in ("cells", "leaderboard")}
    assert _sha256(json.dumps(results, sort_keys=True, indent=2)) == (
        MATRIX_SHA256
    )
