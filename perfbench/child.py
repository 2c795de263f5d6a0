"""One benchmark sample: a fresh process that imports aqss and calls cli.main.

Run by ``run.py`` as ``python3 child.py <src_dir> <mode> [argv ...]`` with the
BLAS thread count already pinned in the environment. ``mode`` is ``setup``
(import only), ``plain`` (call ``aqss.cli.main(argv)`` untraced) or ``traced``
(the same call with every traced function wrapped). The sample prints one
JSON envelope on stdout; the record that ``cli.main`` writes to stdout is
captured and carried inside the envelope.
"""

import functools
import io
import json
import resource
import sys
import time
import traceback


def _import_aqss(src):
    sys.path.insert(0, src)
    import aqss.cli

    imported_at = time.monotonic()
    if not aqss.__file__.startswith(src):
        raise ImportError(f"aqss was imported from {aqss.__file__}, not from {src}")
    return aqss, imported_at


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


class Tracer:
    """Per-function call counts and self time for the traced aqss layers.

    Every module-level binding of a traced function in the package is
    replaced by one wrapper, so copies taken with ``from .x import f`` are
    traced too. Self time is a call's span minus the spans of the traced
    calls it made. The kernel counts are computed from call arguments.
    """

    FUNCTIONS = {
        "random": ("haar_unitaries", "random_pure_state"),
        "channels": ("apply_product", "apply_at", "conjugate_subsystem"),
        "linalg": (
            "assert_density_matrix",
            "trace_norm",
            "von_neumann_entropy",
            "partial_trace",
        ),
        "protocol": (
            "charlie_encode",
            "cooperate_decode",
            "collusion_attack",
            "exterior_adversary_view",
        ),
        "analysis": ("mc_expected_trace_distance", "draw_input"),
        "cli": ("run", "render_json", "main"),
    }

    def __init__(self, aqss):
        self.calls = {}
        self.self_s = {}
        self.counts = {
            "random.haar_unitaries.unitaries": 0,
            "channels.superoperator.gflop_computed": 0.0,
        }
        self._stack = []
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aqss"]
        for module_name, names in self.FUNCTIONS.items():
            module = getattr(aqss, module_name)
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{module_name}.{name}", original)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)
        channel_cls = aqss.channels.RandomUnitaryChannel
        channel_cls.__init__ = self._wrap(
            "channels.RandomUnitaryChannel", channel_cls.__init__
        )
        superop = channel_cls.__dict__["superoperator"]
        superop.func = self._wrap("channels.superoperator", superop.func)

    def _count(self, name, args, kwargs):
        if name == "random.haar_unitaries":
            n = args[1] if len(args) > 1 else kwargs["n"]
            self.counts["random.haar_unitaries.unitaries"] += int(n)
        elif name == "channels.superoperator":
            channel = args[0]
            self.counts["channels.superoperator.gflop_computed"] += (
                8 * channel.n * channel.dim**4 * 1e-9
            )

    def _wrap(self, name, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name, args, kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - children
                if stack:
                    stack[-1] += span

        return traced

    def report(self):
        return {"calls": self.calls, "self_s": self.self_s, "counts": self.counts}


def main():
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    real_stdout = sys.stdout
    aqss, imported_at = _import_aqss(src)
    envelope = {"imported_at": imported_at}
    if mode == "setup":
        envelope["environment"] = _environment()
    else:
        tracer = Tracer(aqss) if mode == "traced" else None
        captured = io.StringIO()
        sys.stdout = captured
        start = time.perf_counter()
        try:
            envelope["exit_code"] = aqss.cli.main(argv)
        except Exception:
            envelope["exit_code"] = None
            envelope["traceback"] = traceback.format_exc()
        finally:
            run_s = time.perf_counter() - start
            sys.stdout = real_stdout
        envelope["run_s"] = run_s
        envelope["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        envelope["output"] = captured.getvalue()
        if tracer is not None:
            envelope["trace"] = tracer.report()
    json.dump(envelope, real_stdout)
    real_stdout.write("\n")


if __name__ == "__main__":
    main()
