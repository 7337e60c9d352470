"""Spans around calls into chainqed, installed from outside the package.

``Tracer.install`` replaces the names callers resolve (module attributes
and class methods) with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory
until ``write``; ``summarize`` derives per-name counts, inclusive times and
self times (a span's duration minus the part its child spans cover).
``uninstall`` restores every original, so an untraced run carries no
wrapper at all.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from chainqed import dynamics, hamiltonian, hilbert, meanfield, runner


def _csr_bytes(obj, seen: set, depth: int = 0) -> int:
    """Bytes of the CSR arrays reachable from an operator cache."""
    if id(obj) in seen or depth > 3:
        return 0
    seen.add(id(obj))
    mat = getattr(obj, "matrix", None)
    if mat is not None and hasattr(mat, "indptr"):
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_csr_bytes(x, seen, depth + 1) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_csr_bytes(x, seen, depth + 1) for x in vars(obj).values())
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _solve_ivp(self, module, prefix: str):
        integrate = self.wrap(f"{prefix}.integrate", module.solve_ivp)

        def solve_ivp(fun, *args, **kwargs):
            return integrate(self.wrap(f"{prefix}.rhs", fun), *args, **kwargs)

        return solve_ivp

    def _export(self, original):
        def export_trajectory(traj, fmt, path):
            written = self.wrap(f"runner.export_{fmt}", original)(traj, fmt, path)
            self.counters["runner.export_bytes"] += Path(written).stat().st_size
            return written

        return export_trajectory

    def _cache_init(self, original):
        traced = self.wrap("hamiltonian.cache", original)

        def __init__(cache, space):
            traced(cache, space)
            size = _csr_bytes(cache, set())
            self.counters["hamiltonian.cache_bytes"] = max(self.counters["hamiltonian.cache_bytes"], size)

        return __init__

    def install(self) -> None:
        ham_cls = hamiltonian.TotalHamiltonian
        self._patch(dynamics, "solve_ivp", self._solve_ivp(dynamics, "dynamics"))
        self._patch(meanfield, "solve_ivp", self._solve_ivp(meanfield, "meanfield"))
        self._patch(dynamics, "propagate", self.wrap("dynamics.propagate", dynamics.propagate))
        self._patch(meanfield, "mf_propagate", self.wrap("meanfield.propagate", meanfield.mf_propagate))
        self._patch(dynamics, "verify_heisenberg_identities",
                    self.wrap("dynamics.verify_eom", dynamics.verify_heisenberg_identities))
        self._patch(dynamics, "verify_compact_form", self.wrap("dynamics.verify_compact", dynamics.verify_compact_form))
        self._patch(dynamics, "generalized_cross", self.wrap("transition_ops.cross", dynamics.generalized_cross))
        self._patch(hilbert.Operator, "__matmul__", self.wrap("hilbert.matmul", hilbert.Operator.__matmul__))
        self._patch(hamiltonian.OperatorCache, "__init__", self._cache_init(hamiltonian.OperatorCache.__init__))
        self._patch(ham_cls, "__init__", self.wrap("hamiltonian.total", ham_cls.__init__))
        self._patch(ham_cls, "apply", self.wrap("hamiltonian.apply", ham_cls.apply))
        self._patch(ham_cls, "at", self.wrap("hamiltonian.at", ham_cls.at))
        self._patch(runner, "config_from_dict", self.wrap("runner.config", runner.config_from_dict))
        self._patch(runner, "initial_state", self.wrap("runner.initial_state", runner.initial_state))
        self._patch(runner, "initial_mean_field", self.wrap("runner.initial_state", runner.initial_mean_field))
        self._patch(runner, "export_trajectory", self._export(runner.export_trajectory))
        self._patch(runner, "import_trajectory", self.wrap("runner.import", runner.import_trajectory))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, float, float]]:
        """Per-name (count, inclusive seconds, self seconds) over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        if not spans:
            return {}
        names = [s[0] for s in spans]
        start = np.array([s[1] for s in spans])
        dur = np.array([s[2] for s in spans]) - start
        parent = np.array([s[3] for s in spans]) - lo
        inside = parent >= 0
        covered = np.bincount(parent[inside], weights=dur[inside], minlength=len(spans))
        own = dur - covered
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(names, dur.tolist(), own.tolist()):
            acc = out[name]
            acc[0] += 1
            acc[1] += d
            acc[2] += s
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) as numpy arrays."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
        )
