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

# (file, exact old text, new text, test paths), paths relative to the root.
MUTANTS = (
    # A factor output without its 1/n weight has trace n, not 1.
    (
        "src/aqss/channels.py",
        "yield out / part.n",
        "yield out",
        ("tests/test_properties.py",),
    ),
    # A factor output without the conjugate is not the channel output.
    (
        "src/aqss/channels.py",
        "gram = v.T @ v.conj()",
        "gram = v.T @ v",
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
        "inverses = [part.unitaries[key].conj().T for part, key in zip(parts, keys)]",
        "inverses = [part.unitaries[key] for part, key in zip(parts, keys)]",
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
        "gram = v.T @ v.conj()",
        "gram = v.conj().T @ v",
        ("tests/test_properties.py",),
    ),
    # A unitarity check that skips the last unitary of every chunk.
    (
        "src/aqss/channels.py",
        "deviation(u[k * step : (k + 1) * step])",
        "deviation(u[k * step : (k + 1) * step - 1])",
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
    # Chunked Haar sampling: the last draw of a stack of k * step + 1 has no
    # slot, a slot overlaps the next chunk's, a chunk's QR overruns its rows.
    (
        "src/aqss/random.py",
        "reshape(2, -1, d, d) for s in range(0, n, step)]",
        "reshape(2, -1, d, d) for s in range(0, n - 1, step)]",
        ("tests/test_properties.py",),
    ),
    (
        "src/aqss/random.py",
        "q[s : s + step].view(float)",
        "q[s : s + step + 1].view(float)",
        ("tests/test_properties.py",),
    ),
    (
        "src/aqss/random.py",
        "rows = slice(k * step, (k + 1) * step)",
        "rows = slice(k * step, (k + 1) * step + 1)",
        ("tests/test_properties.py",),
    ),
    # Chunked superoperator build: the last unitary of a stack of k * step + 1
    # is skipped, the last of every chunk is skipped, every chunk skips one.
    (
        "src/aqss/channels.py",
        "for s in range(0, self.n, step):",
        "for s in range(0, self.n - 1, step):",
        ("tests/test_properties.py",),
    ),
    (
        "src/aqss/channels.py",
        """            b = a[s : s + step].conj()
            b *= 1.0 / self.n
            if s == 0:
                c = a[:step].T @ b
            else:
                c += a[s : s + step].T @ b
""",
        """            b = a[s : s + step - 1].conj()
            b *= 1.0 / self.n
            if s == 0:
                c = a[: step - 1].T @ b
            else:
                c += a[s : s + step - 1].T @ b
""",
        ("tests/test_properties.py",),
    ),
    (
        "src/aqss/channels.py",
        "for s in range(0, self.n, step):",
        "for s in range(0, self.n, step + 1):",
        ("tests/test_properties.py",),
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
        "return devs.max()",
        "return max(devs)",
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
        "int(rng.integers(part.n))",
        "int(rng.integers((part.n + 1) // 2))",
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
    # A unitarity check whose takers never take the last chunk.
    (
        "src/aqss/channels.py",
        "spread_chunks(devs.size, check)",
        "spread_chunks(devs.size - 1, check)",
        ("tests/test_channels.py",),
    ),
    # Chunked Haar sampling whose last chunk keeps the plain QR output,
    # without the phase fix.
    (
        "src/aqss/random.py",
        "q[rows], bad[rows] = _ginibre_qr(slots[k][1], slots[k][0])",
        "q[rows], bad[rows] = _ginibre_qr(slots[k][1], slots[k][0])"
        " if k < len(slots) - 1 else"
        " (np.linalg.qr((slots[k][1] + 1j * slots[k][0]) / np.sqrt(2))[0], False)",
        ("tests/test_properties.py",),
    ),
    # A chunked factor output that drops its last chunk.
    (
        "src/aqss/channels.py",
        "for s in range(0, part.n, step):",
        "for s in range(0, max(part.n - step, 1), step):",
        ("tests/test_properties.py",),
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
