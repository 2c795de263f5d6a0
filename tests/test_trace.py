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


def traced_calls(*argv, exit_code=0):
    """Call counts of a clean traced run of ``aqss <argv>`` that exits with exit_code."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(ROOT / "src"), "traced", *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    envelope = json.loads(proc.stdout.splitlines()[-1])
    assert envelope["exit_code"] == exit_code
    assert "traceback" not in envelope
    return envelope["trace"]["calls"]


def test_traced_multiparty_run_is_clean():
    calls = traced_calls("multiparty", "--d", "2", "--m", "3", "--perfect", "--seed", "9")
    # Three rounds (the default) of m = 3. The plaintext is a product and
    # travels as its factor vectors: encoding and decoding multiply each
    # vector by its key, so no joint state is conjugated. Each victim's share
    # is its own channel on its factor, so no marginal is traced out, no
    # channel is applied to one factor of a joint state and no colluders'
    # joint state is formed.
    assert calls["channels.conjugate_subsystem"] == 0
    assert calls["channels.apply_at"] == 0
    assert calls["protocol.collusion_attack"] == 0
    assert calls["linalg.partial_trace"] == 0
    # linalg.spectral_calls_per_state is computed from these two counts.
    # Three rounds (the default), each decomposing the three factor outputs,
    # which give the exterior view and the victims' shares. The round trip
    # is one overlap of two product vectors, so no trace norm is taken.
    assert calls["linalg.assert_density_matrix"] == 9
    assert calls["linalg.trace_norm"] == 0


def test_traced_demo_keeps_the_interior_attack():
    # Five rounds (the default) of a product plaintext, measured through its
    # factors, so no marginal is traced out and no colluders' joint state is
    # formed.
    calls = traced_calls("aqss-demo", "--d", "2", "--perfect", "--seed", "1")
    assert calls["linalg.partial_trace"] == 0
    assert calls["protocol.collusion_attack"] == 0


def test_traced_entangled_demo_keeps_the_dense_path():
    # A separable mixture is not a product, so each of the five rounds reads
    # the victim's marginal with one partial trace of the plaintext and
    # decomposes the joint exterior view and the victim's share.
    calls = traced_calls(
        "aqss-demo", "--d", "2", "--perfect", "--family", "separable", "--seed", "1"
    )
    assert calls["linalg.partial_trace"] == 5
    assert calls["linalg.assert_density_matrix"] == 10
    assert calls["protocol.collusion_attack"] == 0
    # The mixture travels as a D x D state: each round's encoding and
    # decoding conjugate both factors once, and its round trip takes one
    # trace norm of the D x D difference.
    assert calls["channels.conjugate_subsystem"] == 20
    assert calls["linalg.trace_norm"] == 5


def test_traced_bound_sweep_forks_cleanly():
    # The Monte Carlo trials run in forked workers; the tracer counts the
    # caller's block only, and the estimator is entered once.
    calls = traced_calls(
        "bound-sweep", "--d", "4", "--n", "16", "--trials", "20", "--seed", "2", exit_code=1
    )
    assert calls["analysis.mc_expected_trace_distance"] == 1


def test_traced_sampled_demo_draws_no_stack():
    # Two channels of n = 2000 at d = 4, two chunks each, each sampled by
    # one pass over chunks replayed from generator states: no Haar stack is
    # drawn and no superoperator built, and each of the two rounds
    # decomposes the two factor outputs that pass read.
    calls = traced_calls("aqss-demo", "--d", "4", "--n", "2000", "--trials", "2", "--seed", "3")
    assert calls["random.haar_unitaries"] == 0
    assert calls["channels.RandomUnitaryChannel"] == 2
    assert calls["channels.superoperator"] == 0
    assert calls["protocol.charlie_encode"] == 2
    assert calls["linalg.assert_density_matrix"] == 4
