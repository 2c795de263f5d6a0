"""Mutation checks: each row breaks one step of the library, and its tests must fail.

Run from anywhere, with the test dependencies installed:

    python tools/mutants.py

For each row of MUTANTS the script copies ``pyproject.toml``, ``src/`` and
``tests/`` into a temporary directory, so the pytest settings there
(``pythonpath``, ``filterwarnings``) apply to the mutated copy. It replaces
the row's old text, which must occur exactly once in its file, by the new
text, and runs ``python -m pytest -x -q -p no:cacheprovider <tests>`` in the
copy. A row is killed when pytest reports a failure or an error. A row whose
tests pass survives: those tests do not see that fault. First, each set of
tests runs once on an unmutated copy and must pass, so that a broken copy or
a missing test dependency cannot pass for a kill. The script prints one line
per run and every survivor, and exits 1 if a control fails or a row survives.
``tests/test_mutants.py`` checks, in milliseconds, that each row's old text
still occurs exactly once, so a refactor that moves the code must update its
row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("pyproject.toml", "src", "tests")
# pytest exit codes: 1 some tests failed, 2 interrupted (a collection error).
KILLED = (1, 2)

# The tests of every pass over a unitary stack, which all take their chunks
# from linalg.chunks.
CHUNK_TESTS = (
    "tests/test_linalg.py",
    "tests/test_random.py",
    "tests/test_channels.py",
    "tests/test_properties.py",
)

# The tests of a replayed channel, pinned against its held stack.
REPLAY_TESTS = ("tests/test_random.py", "tests/test_channels.py")

# (file, exact old text, new text, test paths), paths relative to the root.
MUTANTS = (
    # A factor output without its 1/n weight has trace n, not 1.
    (
        "src/aqss/channels.py",
        "return total / self.n",
        "return total",
        ("tests/test_properties.py",),
    ),
    # A factor output without the conjugate is not the channel output.
    (
        "src/aqss/channels.py",
        "grams[key] = v.T @ v.conj()",
        "grams[key] = v.T @ v",
        ("tests/test_properties.py",),
    ),
    # A Kronecker product that drops the last factor.
    (
        "src/aqss/linalg.py",
        ".reshape(*p.shape[:-1], -1), factors",
        ".reshape(*p.shape[:-1], -1), factors[:-1]",
        ("tests/test_properties.py",),
    ),
    # Decoding with the keyed unitaries instead of their inverses.
    (
        "src/aqss/protocol.py",
        "inverses = [part.unitary(key).conj().T for part, key in zip(parts, keys)]",
        "inverses = [part.unitary(key) for part, key in zip(parts, keys)]",
        ("tests/test_protocol.py",),
    ),
    # A LOCC sweep without its computational-basis setting zero.
    (
        "src/aqss/analysis.py",
        "        yield np.eye(d_a, dtype=complex), np.eye(d_b, dtype=complex)\n",
        "",
        ("tests/test_analysis.py",),
    ),
    # A one-command parser whose usage line spells only its own command.
    (
        "src/aqss/cli.py",
        'metavar=None if command is None else "{" + ",".join(COMMANDS) + "}"',
        "metavar=None",
        ("tests/test_cli.py",),
    ),
    # A run sized with no unitaries per channel.
    (
        "src/aqss/protocol.py",
        """        if self.n_per_channel is not None and self.n_per_channel < 1:
            raise ValueError(f"n_per_channel must be positive, got {self.n_per_channel}")
""",
        "",
        ("tests/test_protocol.py",),
    ),
    # Encoding each factor with another receiver's key.
    (
        "src/aqss/protocol.py",
        "for part, key in zip(channels.parts, keys)]",
        "for part, key in zip(channels.parts, keys[::-1])]",
        ("tests/test_protocol.py",),
    ),
    # A factor output transposed: V† V instead of V^T conj(V).
    (
        "src/aqss/channels.py",
        "grams[key] = v.T @ v.conj()",
        "grams[key] = v.conj().T @ v",
        ("tests/test_properties.py",),
    ),
    # A unitarity verdict that lets a NaN deviation pass.
    (
        "src/aqss/channels.py",
        "if not dev <= linalg.HERMITIAN_TOL:",
        "if dev > linalg.HERMITIAN_TOL:",
        ("tests/test_channels.py",),
    ),
    # The exact channel sized by --n or epsilon instead of d^2.
    (
        "src/aqss/cli.py",
        "n_resolved = d * d if perfect else protocol.resolved_n",
        "n_resolved = protocol.resolved_n",
        ("tests/test_cli.py",),
    ),
    # A bad --trials reported before an epsilon too small to size n.
    (
        "src/aqss/cli.py",
        """        n_resolved = d * d if perfect else protocol.resolved_n
        if command == "key-cost":
            key_cost(protocol)  # its bit counts must fit a float
        if t < 1:
            raise ValueError(f"--trials must be positive, got {t}")
""",
        """        if command == "key-cost":
            key_cost(protocol)  # its bit counts must fit a float
        if t < 1:
            raise ValueError(f"--trials must be positive, got {t}")
        n_resolved = d * d if perfect else protocol.resolved_n
""",
        ("tests/test_cli.py",),
    ),
    # A pass on one taker that runs its chunks last first, so every fold and
    # the chain of generator states run out of chunk order.
    (
        "src/aqss/random.py",
        "        for k in range(count):\n            work(k, _IN_ORDER)",
        "        for k in reversed(range(count)):\n            work(k, _IN_ORDER)",
        ("tests/test_random.py",),
    ),
    # Zero draws of a one-chunk stack drawn again only when every draw is zero.
    (
        "src/aqss/random.py",
        "if bad.any():",
        "if bad.all():",
        ("tests/test_random.py",),
    ),
    # A Haar chunk decomposed with its real and imaginary halves swapped.
    (
        "src/aqss/random.py",
        "        return _ginibre_qr(re, im)\n",
        "        return _ginibre_qr(im, re)\n",
        ("tests/test_random.py",),
    ),
    # A superoperator without its 1/n weight.
    (
        "src/aqss/channels.py",
        "b *= 1.0 / self.n",
        "b *= 1.0",
        ("tests/test_channels.py",),
    ),
    # A superoperator left as C, without the realignment into M.
    (
        "src/aqss/channels.py",
        ".transpose(0, 2, 1, 3)",
        ".transpose(0, 1, 2, 3)",
        ("tests/test_channels.py",),
    ),
    # A key conjugation by U (x) U instead of U (x) conj(U).
    (
        "src/aqss/channels.py",
        "np.kron(u, u.conj())",
        "np.kron(u, u)",
        ("tests/test_channels.py",),
    ),
    # A Kronecker product with its factors in reversed order.
    (
        "src/aqss/linalg.py",
        ".reshape(*p.shape[:-1], -1), factors",
        ".reshape(*p.shape[:-1], -1), factors[::-1]",
        ("tests/test_protocol.py",),
    ),
    # An exit status that counts the flags of unasserted metrics too.
    (
        "src/aqss/cli.py",
        'for r in records for m in r["metrics"] if m.asserted) else 1',
        'for r in records for m in r["metrics"]) else 1',
        ("tests/test_cli.py",),
    ),
    # A record whose metrics bypass Metric.to_dict, so a NaN prints as NaN.
    (
        "src/aqss/cli.py",
        "default=Metric.to_dict",
        "default=vars",
        ("tests/test_cli.py",),
    ),
    # purity-check --perfect sampling Haar channels instead of the exact one.
    (
        "src/aqss/cli.py",
        "cfg.trials, cfg.seed,\n        channel_factory=_channel_factory(cfg),",
        "cfg.trials, cfg.seed,\n        channel_factory=sample_ruc,",
        ("tests/test_cli.py",),
    ),
    # A verdict without its 1e-12 slack.
    (
        "src/aqss/analysis.py",
        "return self.observed <= self.bound + BOUND_SLACK",
        "return self.observed <= self.bound",
        ("tests/test_analysis.py",),
    ),
    # A printed flag that claims every bounded metric holds.
    (
        "src/aqss/cli.py",
        "None if self.bound is None else BoundCheck(self.value, self.bound).satisfied",
        "None if self.bound is None else True",
        ("tests/test_cli.py",),
    ),
    # A standard error from the population deviation instead of the sample one.
    (
        "src/aqss/analysis.py",
        "np.std(self.per_trial_values, ddof=1)",
        "np.std(self.per_trial_values, ddof=0)",
        ("tests/test_analysis.py",),
    ),
    # A unitarity check folded with Python's max, which drops a NaN chunk.
    (
        "src/aqss/channels.py",
        "self.dev = np.maximum(self.dev, dev)",
        "self.dev = max(self.dev, dev)",
        ("tests/test_channels.py",),
    ),
    # A factored round trip read as the distance of the two product vectors,
    # without projecting out the plaintext: not the trace distance of states.
    (
        "src/aqss/protocol.py",
        "phi - psi * np.vdot(psi, phi)",
        "phi - psi",
        ("tests/test_properties.py",),
    ),
    # Keys drawn from the first half of each stack only.
    (
        "src/aqss/protocol.py",
        "int(rng.integers(n))",
        "int(rng.integers((n + 1) // 2))",
        ("tests/test_protocol.py",),
    ),
    # An audit that reads only the first victim's share.
    (
        "src/aqss/protocol.py",
        "for share in shares:",
        "for share in shares[:1]:",
        ("tests/test_protocol.py",),
    ),
    # A LOCC sweep that drops its last drawn setting.
    (
        "src/aqss/analysis.py",
        "for _ in range(num_settings):",
        "for _ in range(num_settings - 1):",
        ("tests/test_analysis.py",),
    ),
    # A decode that takes a bool key, which numpy reads as a mask.
    (
        "src/aqss/protocol.py",
        "if isinstance(key, bool) or not isinstance(",
        "if not isinstance(",
        ("tests/test_protocol.py",),
    ),
    # A pass over a channel's unitaries whose takers never take the last
    # chunk: its unitarity check, factor outputs and C all miss it.
    (
        "src/aqss/channels.py",
        "spread_chunks(len(slices), lambda",
        "spread_chunks(len(slices) - 1, lambda",
        ("tests/test_channels.py",),
    ),
    # Chunked Haar sampling whose last chunk keeps the plain QR output,
    # without the phase fix.
    (
        "src/aqss/random.py",
        "q, bad[rows] = _decomposed(real[k], im)",
        "q, bad[rows] = _decomposed(real[k], im)"
        " if k < len(slices) - 1 else"
        " (np.linalg.qr((real[k] + 1j * im) / np.sqrt(2))[0], False)",
        ("tests/test_properties.py",),
    ),
    # A factor of the wrong shape handed to numpy instead of refused by name.
    (
        "src/aqss/channels.py",
        """        if np.shape(psi) != (part.dim,):
            raise ValueError(f"factor {k} has shape {np.shape(psi)}, expected {(part.dim,)}")
""",
        "",
        ("tests/test_channels.py",),
    ),
    # The one chunk rule behind every pass over a stack: the last chunk of a
    # stack of more than one dropped, every chunk one row short, every chunk
    # one row long (overlapping the next). Each pass that reads it is tested:
    # the Haar draw, the unitarity check, the factor output, the build and
    # the Hermiticity check.
    (
        "src/aqss/linalg.py",
        "for s in range(0, rows, step)]",
        "for s in range(0, max(rows - step, 1), step)]",
        CHUNK_TESTS,
    ),
    (
        "src/aqss/linalg.py",
        "[slice(s, s + step) for",
        "[slice(s, s + step - 1) for",
        CHUNK_TESTS,
    ),
    (
        "src/aqss/linalg.py",
        "[slice(s, s + step) for",
        "[slice(s, s + step + 1) for",
        CHUNK_TESTS,
    ),
    # A replay that draws a chunk's imaginary parts from the state the next
    # chunk's start from: every read of a replayed stack after its draw.
    (
        "src/aqss/random.py",
        "im = self._at(self._imag[k], skip)",
        "im = self._at(self._imag[k + 1], skip)",
        REPLAY_TESTS,
    ),
    # A pass that keeps each key's unitary from the chunk before the key's.
    (
        "src/aqss/channels.py",
        "key: u[key - rows.start].copy() for key in self.keys if rows.start <= key < rows.stop",
        "key: u[key - rows.stop].copy() for key in self.keys if rows.stop <= key < rows.stop + len(u)",
        REPLAY_TESTS,
    ),
    # A pass whose takers fold their chunks as they finish, out of chunk order.
    (
        "src/aqss/channels.py",
        "order.fold(fold, 16 * held)",
        "fold()",
        REPLAY_TESTS,
    ),
    # A pass on more than one taker that leaves OpenBLAS at one thread.
    (
        "src/aqss/random.py",
        """        for (_, set_threads), threads_before in zip(blas, previous):
            set_threads(threads_before)
""",
        "",
        ("tests/test_random.py",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_mutant(path: str, old: str, new: str, tests: tuple[str, ...]) -> tuple[int, float, str]:
    """Apply one row to a fresh copy and run its tests there; returns pytest's
    exit code, the seconds the run took and the first failed or erroring test
    ("" when none is reported). ValueError unless the old text occurs exactly
    once."""
    with tempfile.TemporaryDirectory(prefix="aqss-mutant-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"{path}: old text occurs {text.count(old)} times, not once: {old!r}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        # The copy's own src/ first, whatever aqss the environment has installed.
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        result = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return result.returncode, seconds, failed[0].split(" - ")[0] if failed else ""


def _where(path: str, old: str) -> str:
    text = (ROOT / path).read_text(encoding="utf-8")
    return f"{path}:{text[: text.find(old)].count(chr(10)) + 1}"


def main() -> int:
    controls = {}
    for path, old, _, tests in MUTANTS:
        controls.setdefault(tests, (path, old))
    for tests, (path, old) in controls.items():
        code, seconds, failed = run_mutant(path, old, old, tests)
        print(f"{'control':<10} {'unmutated':<26} {seconds:4.1f} s  {' '.join(tests)}", flush=True)
        if code != 0:
            print(f"the unmutated copy fails (pytest exit {code}): {failed}")
            return 1
    survivors = []
    for path, old, new, tests in MUTANTS:
        where = _where(path, old)
        code, seconds, failed = run_mutant(path, old, new, tests)
        status = "killed" if code in KILLED else f"SURVIVED (pytest exit {code})"
        print(f"{status:<10} {where:<26} {seconds:4.1f} s  {failed or ' '.join(tests)}", flush=True)
        if code not in KILLED:
            survivors.append((where, old, new))
    for where, old, new in survivors:
        print(f"survivor at {where}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
