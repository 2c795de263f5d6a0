"""The benchmark's tracer still runs the CLI cleanly.

``perfbench/child.py traced`` wraps the package's traced functions by name;
a rename or a changed call path shows up here as a traceback or as a zero
call count, not only when the benchmark is run with ``--trace 1``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_multiparty_run_is_clean():
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"),
            "traced", "multiparty", "--d", "2", "--m", "3", "--perfect", "--seed", "9",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout.splitlines()[-1])
    assert envelope["exit_code"] == 0
    assert "traceback" not in envelope
    calls = envelope["trace"]["calls"]
    assert calls["channels.conjugate_subsystem"] > 0
    assert calls["channels.apply_at"] > 0
    # linalg.spectral_calls_per_state is computed from these two counts.
    assert calls["linalg.assert_density_matrix"] > 0
    assert calls["linalg.trace_norm"] > 0
