"""Spans around calls into qri's layers, recorded from outside the package.

:class:`Tracer` replaces, for the length of a ``with tracer.installed():``
block, the names that ``qri.solver``, ``qri.oracle`` and ``qri.qep``
resolve at call time (module globals and class attributes) with timing
wrappers, and puts the originals back afterwards.  Nothing in ``src/``
changes.  Each span holds a name, start, end, parent span and run id;
spans stay in memory until :meth:`Tracer.write` saves them.
"""

import contextlib
import functools
import json
import time

import numpy as np

import qri.linalg as linalg
import qri.oracle as oracle
import qri.qep as qep
import qri.solver as solver

# (owners, attribute, span name); one wrapper serves every owner, so a
# function imported into two modules still opens one span per call
TARGETS = [
    ((solver, qep), "spmv", "qep.spmv"),
    ((solver, qep), "q_apply", "qep.q_apply"),
    ((solver, oracle), "dense_eig", "linalg.dense_eig"),
    ((solver,), "smallest_singular_vector", "linalg.svd"),
    ((linalg.LUSolver,), "__init__", "linalg.lu_factor"),
    ((linalg.OrthonormalBasis,), "orthonormalize", "linalg.orthonormalize"),
    ((solver,), "solve_projected_qep", "solver.small_solve"),
    ((solver,), "_extract_pairs", "solver.extract"),
    ((solver.ProjectionCache,), "append", "solver.projection_append"),
    ((solver.ExactExpansion,), "__init__", "solver.expansion_setup"),
    ((solver.ExactExpansion,), "solve", "solver.expansion_solve"),
    ((solver,), "outer_loop", "solver.outer_loop"),
    ((solver,), "newton_solve", "solver.newton"),
    ((oracle,), "full_eig", "oracle.full_eig"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.attrs = {}
        self.run_id = -1
        self._stack = []
        self._last_basis = None

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(np.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._note(name, idx, args, out)
            return out

        return traced

    def _note(self, name, idx, args, out):
        # bookkeeping runs after the span closed, so it is nobody's self time
        if name == "linalg.orthonormalize":
            self._last_basis = args[0]
        elif name == "solver.outer_loop":
            self.attrs[idx] = self._last_basis
            self._last_basis = None
        elif name == "solver.newton":
            self.attrs[idx] = len(out.history) - 1
        elif name == "linalg.dense_eig":
            self.attrs[idx] = np.shape(args[0])[0]

    def _wrap_gmres(self, fn):
        @functools.wraps(fn)
        def traced(apply_op, b, *args, **kwargs):
            op = self.wrap("qep.spmv", apply_op)
            idx = self._open("gmres")
            try:
                res = fn(op, b, *args, **kwargs)
            finally:
                self._close(idx)
            self.attrs[idx] = (res.iters, len(res.cycles), res.converged)
            return res

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owners, attr, name in TARGETS:
                original = getattr(owners[0], attr)
                wrapper = self.wrap(name, original)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            saved.append((solver, "gmres", solver.gmres))
            solver.gmres = self._wrap_gmres(solver.gmres)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        names = np.array(self.names, dtype=object)
        start = np.array(self.starts)
        end = np.array(self.ends)
        parent = np.array(self.parents, dtype=np.int64)
        return names, start, end, parent

    def check_nesting(self):
        """Every span lies inside its parent, and for every top-level span
        the self times of its whole subtree add up to its wall time."""
        names, start, end, parent = self.arrays()
        if not len(names):
            return True
        dur = end - start
        has = parent >= 0
        inside = np.all(start[has] >= start[parent[has]]) and np.all(
            end[has] <= end[parent[has]]
        )
        root = np.arange(len(names))
        for i in np.flatnonzero(has):  # parents open before their children
            root[i] = root[parent[i]]
        subtree_self = np.zeros(len(names))
        np.add.at(subtree_self, root, self.self_times())
        tops = np.flatnonzero(~has)
        adds_up = np.allclose(subtree_self[tops], dur[tops], rtol=1e-9, atol=1e-9)
        return bool(inside and adds_up and np.isfinite(dur).all())

    def self_times(self):
        names, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(names))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def layer_metrics(self):
        """Per-layer counts and times derived from the recorded spans."""
        names, start, end, parent = self.arrays()
        dur = end - start
        own = self.self_times()

        def sel(name):
            return names == name

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def total(name):
            return float(dur[sel(name)].sum())

        def self_total(name):
            return float(own[sel(name)].sum())

        gm = [self.attrs[i] for i in np.flatnonzero(sel("gmres")) if i in self.attrs]
        gm_iters = [g[0] for g in gm]
        gm_parent = np.zeros(len(names), dtype=bool)
        gm_parent[np.flatnonzero(sel("gmres"))] = True
        has = parent >= 0
        matvecs = int(np.count_nonzero(sel("qep.spmv") & has & gm_parent[np.maximum(parent, 0)]))
        eig_n = [self.attrs[i] for i in np.flatnonzero(sel("linalg.dense_eig"))]
        bases = [self.attrs.get(i) for i in np.flatnonzero(sel("solver.outer_loop"))]
        defects = [b.orthonormality_defect() for b in bases if b is not None]
        newton_steps = [self.attrs.get(i, 0) for i in np.flatnonzero(sel("solver.newton"))]
        return {
            "gmres.calls": (calls("gmres"), "count"),
            "gmres.s": (total("gmres"), "s"),
            "gmres.self_s": (self_total("gmres"), "s"),
            "gmres.iters": (int(sum(gm_iters)), "count"),
            "gmres.iters_p50": (float(np.median(gm_iters)) if gm else 0.0, "count"),
            "gmres.cycles": (int(sum(g[1] for g in gm)), "count"),
            "gmres.matvecs": (matvecs, "count"),
            "gmres.converged_ratio": (
                sum(g[2] for g in gm) / len(gm) if gm else 0.0, "ratio"),
            "qep.spmv_calls": (calls("qep.spmv"), "count"),
            "qep.spmv_s": (total("qep.spmv"), "s"),
            "qep.q_apply_calls": (calls("qep.q_apply"), "count"),
            "qep.q_apply_s": (total("qep.q_apply"), "s"),
            "linalg.orthonormalize_calls": (calls("linalg.orthonormalize"), "count"),
            "linalg.orthonormalize_s": (total("linalg.orthonormalize"), "s"),
            "linalg.orth_defect": (max(defects) if defects else 0.0, "ratio"),
            "linalg.dense_eig_calls": (calls("linalg.dense_eig"), "count"),
            "linalg.dense_eig_s": (total("linalg.dense_eig"), "s"),
            "linalg.dense_eig_max_n": (int(max(eig_n)) if eig_n else 0, "rows"),
            "linalg.lu_factor_calls": (calls("linalg.lu_factor"), "count"),
            "linalg.lu_factor_s": (total("linalg.lu_factor"), "s"),
            "linalg.svd_calls": (calls("linalg.svd"), "count"),
            "linalg.svd_s": (total("linalg.svd"), "s"),
            "solver.small_solve_s": (total("solver.small_solve"), "s"),
            "solver.small_solve_self_s": (self_total("solver.small_solve"), "s"),
            "solver.extract_s": (total("solver.extract"), "s"),
            "solver.projection_append_calls": (calls("solver.projection_append"), "count"),
            "solver.projection_append_s": (total("solver.projection_append"), "s"),
            "solver.expansion_setup_s": (total("solver.expansion_setup"), "s"),
            "solver.expansion_solve_s": (total("solver.expansion_solve"), "s"),
            "solver.newton_calls": (calls("solver.newton"), "count"),
            "solver.newton_steps": (int(sum(newton_steps)), "count"),
            "solver.newton_s": (total("solver.newton"), "s"),
            "solver.outer_loop_s": (total("solver.outer_loop"), "s"),
            "solver.outer_loop_self_s": (self_total("solver.outer_loop"), "s"),
            "oracle.full_eig_calls": (calls("oracle.full_eig"), "count"),
            "oracle.full_eig_s": (total("oracle.full_eig"), "s"),
        }

    def write(self, path):
        """Save the spans as JSON: one record per span."""
        names, start, end, parent = self.arrays()
        t0 = float(start.min()) if len(start) else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "run"],
                    "spans": [
                        [str(n), float(s - t0), float(e - t0), int(p), int(r)]
                        for n, s, e, p, r in zip(names, start, end, parent, self.runs)
                    ],
                },
                fh,
            )
