"""Per-layer tracing of lyapunov-lab from outside the package.

The tracer rebinds the names that callers look up at call time (module
attributes such as chain.run_chain or chain.sample_row, and methods on
RngStream) to timing wrappers, and restores the originals on exit. Nothing
in the package is edited. Each wrapper keeps, per span name, its call
count and self time (its duration minus the time of the traced calls made
inside it); spans at depth 0 and 1 (cli.dispatch and the calls it makes
directly) are also kept whole, with start, end and parent. A span's layer
is the module prefix of its name.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

SPAN_DEPTH = 2  # record whole spans for dispatch and its direct children only

# counts that must repeat exactly between two traced passes over the same rounds
COUNTS = (
    "laws.rows",
    "laws.words",
    "chain.steps",
    "chain.support_mean",
    "gaussian.expected_f.calls",
    "cli.bytes_written",
)


class Tracer:
    """Install with `with Tracer(modules) as tr:`; read per-round stats with tr.take()."""

    def __init__(self, modules: types.SimpleNamespace):
        self.m = modules
        self._stack: list[float] = []
        self._cells: dict[str, list] = {}  # name -> [self seconds, calls]
        self._roots: list[float] = []
        self._spans: list[tuple[str, int, float, float]] = []
        self._words = [0]
        self._support = [0]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        cell = self._cells.setdefault(name, [0.0, 0])
        stack, roots, spans, clock = self._stack, self._roots, self._spans, time.perf_counter

        def traced(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                cell[0] += dur - stack.pop()
                cell[1] += 1
                if depth:
                    stack[-1] += dur
                else:
                    roots.append(dur)
                if depth < SPAN_DEPTH:
                    spans.append((name, depth, t0, t1))
                if note is not None:
                    note(args)

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        m = self.m
        words, support = self._words, self._support

        def count_words(args):
            words[0] += args[1]

        def count_support(args):
            support[0] += args[0].size

        R = m.laws.RngStream
        for attr, name, note in (
            ("__init__", "laws.RngStream", None),
            ("seek_row", "laws.seek_row", None),
            ("words", "laws.words", count_words),
            ("uniforms", "laws.uniforms", None),
            ("normals", "laws.normals", None),
            ("signs", "laws.signs", None),
        ):
            self._bind(R, attr, self._wrap(name, vars(R)[attr], note))

        shared = {
            "laws.sample_row": (m.laws.sample_row, [m.laws, m.chain, m.recursion, m.bounds]),
            "bounds.alpha_bound": (m.bounds.alpha_bound, [m.bounds, m.chain]),
            "util.ordered_map": (m.util.ordered_map, [m.cli, m.verification]),
        }
        for name, (fn, owners) in shared.items():
            traced = self._wrap(name, fn)
            for owner in owners:
                attr = name.split(".")[1]
                if getattr(owner, attr) is not fn:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                self._bind(owner, attr, traced)

        for owner, attr, name, note in (
            (m.chain, "run_chain", "chain.run_chain", None),
            (m.chain, "_step", "chain.step", count_support),
            (m.chain, "_truncate", "chain.truncate", None),
            (m.chain, "weighted_norm", "chain.weighted_norm", None),
            (m.recursion, "run_exact", "recursion.run_exact", None),
            (m.recursion, "run_exact_float", "recursion.run_exact_float", None),
            (m.recursion, "run_vt", "recursion.run_vt", None),
            (m.recursion, "run_fibonacci", "recursion.run_fibonacci", None),
            (m.recursion.ExactTrajectory, "log_abs_series", "recursion.log_abs_series", None),
            (m.gaussian, "eta", "gaussian.eta", None),
            (m.gaussian, "expected_f", "gaussian.expected_f", None),
            (m.gaussian, "contraction_f", "gaussian.contraction_f", None),
            (m.gaussian, "couple", "gaussian.couple", None),
            (m.bounds, "lo_max_atom", "bounds.lo_max_atom", None),
            (m.estimators, "gamma_from_increments", "estimators.gamma_from_increments", None),
            (m.estimators, "gamma_from_last_coordinate", "estimators.gamma_from_last_coordinate", None),
            (m.estimators, "pool_estimates", "estimators.pool_estimates", None),
            (m.verification, "tail_statistics", "verification.tail_statistics", None),
            (m.cli, "dispatch", "cli.dispatch", None),
            (m.cli, "build_parser", "cli.build_parser", None),
            (m.cli, "_gamma_one", "cli.gamma_one", None),
            (m.cli, "_write_csv", "cli.write", None),
        ):
            self._bind(owner, attr, self._wrap(name, vars(owner)[attr], note))

        # dispatch prints its summary with json.dumps and writes the manifest
        # with json.dump; both are looked up through cli's `json` name
        shim = types.SimpleNamespace(
            dumps=self._wrap("cli.json", json.dumps),
            dump=self._wrap("cli.write", json.dump),
            load=json.load,
        )
        self._bind(m.cli, "json", shim)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- per-round readout ------------------------------------------------

    def take(self, wall: float, bytes_written: int) -> dict:
        """Stats of everything traced since the last take(); resets them."""
        if self._stack:
            raise RuntimeError("take() inside a traced call")
        self_by_name = {}
        calls = {}
        for name, cell in self._cells.items():
            if cell[1]:
                self_by_name[name] = cell[0]
                calls[name] = cell[1]
            cell[0], cell[1] = 0.0, 0
        layers: dict[str, float] = defaultdict(float)
        for name, s in self_by_name.items():
            layers[name.split(".")[0]] += s
        steps = calls.get("chain.step", 0)
        stats = {
            "wall": wall,
            "roots": sum(self._roots),
            "self": self_by_name,
            "calls": calls,
            "layers": dict(layers),
            "spans": _with_parents(self._spans),
            "counts": {
                "laws.rows": calls.get("laws.seek_row", 0),
                "laws.words": self._words[0],
                "chain.steps": steps,
                "chain.support_mean": self._support[0] / steps if steps else 0.0,
                "gaussian.expected_f.calls": calls.get("gaussian.expected_f", 0),
                "cli.bytes_written": bytes_written,
            },
        }
        self._roots.clear()
        self._spans.clear()
        self._words[0] = 0
        self._support[0] = 0
        return stats


def _with_parents(spans: list[tuple[str, int, float, float]]) -> list[dict]:
    """Spans as records with the index of the enclosing span (or None)."""
    out: list[dict] = []
    open_at: dict[int, int] = {}
    for name, depth, t0, t1 in sorted(spans, key=lambda s: (s[2], s[1])):
        out.append({"name": name, "start": t0, "end": t1, "parent": open_at.get(depth - 1)})
        open_at[depth] = len(out) - 1
    return out


def accounting_error(stats: dict) -> float:
    """|sum of layer self times + untraced remainder - round wall time|.

    The remainder is the round's wall time outside every root span; the
    layer self times telescope to the roots' total only if every span
    closed once and handed its duration to exactly one parent.
    """
    remainder = stats["wall"] - stats["roots"]
    if remainder < -1e-6:
        return -remainder
    return abs(sum(stats["layers"].values()) + remainder - stats["wall"])
