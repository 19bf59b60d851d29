"""Spans around the calls into plasmarray's public functions.

The program is not edited: `Tracer.install` rebinds each traced function,
in every plasmarray module that holds it, to a wrapper that records a span
(name, start, end, parent span).  scipy's sparse solvers are wrapped where
`plasmarray.fullmodel` looks them up (its `spla` name).  `uninstall` puts
the original objects back.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import os
import sys
import time

# traced layers: span name -> (plasmarray module, attribute)
LAYERS = {
    "cli.main": ("cli", "main"),
    "config.parse_config": ("config", "parse_config"),
    "experiments.run_concurrence_sweep": ("experiments", "run_concurrence_sweep"),
    "experiments.run_spectra": ("experiments", "run_spectra"),
    "experiments.write_csv": ("experiments", "write_csv"),
    "plasmonics.derive_material": ("plasmonics", "derive_material"),
    "plasmonics.bare_couplings": ("plasmonics", "bare_couplings"),
    "plasmonics.drive_rates": ("plasmonics", "drive_rates"),
    "effective.complex_pole": ("effective", "complex_pole"),
    "effective.build_coupling_matrix": ("effective", "build_coupling_matrix"),
    "effective.mediated_params": ("effective", "mediated_params"),
    "effective.dicke_params": ("effective", "dicke_params"),
    "effective.decay_spectrum": ("effective", "decay_spectrum"),
    "steadystate.build_effective_generator": ("steadystate", "build_effective_generator"),
    "steadystate.solve_steady": ("steadystate", "solve_steady"),
    "steadystate.concurrence": ("steadystate", "concurrence"),
    "steadystate.dicke_populations": ("steadystate", "dicke_populations"),
    "fullmodel.validate_against_effective": ("fullmodel", "validate_against_effective"),
    "fullmodel.build_full_system": ("fullmodel", "build_full_system"),
    "fullmodel.liouvillian": ("fullmodel", "liouvillian"),
    "fullmodel.steady_state_full": ("fullmodel", "steady_state_full"),
    "fullmodel.reduce_to_qubits": ("fullmodel", "reduce_to_qubits"),
}
# scipy.sparse.linalg functions, wrapped inside plasmarray.fullmodel.spla
SOLVERS = {
    "fullmodel.spilu": "spilu",
    "fullmodel.lgmres": "lgmres",
    "fullmodel.spsolve": "spsolve",
}
# extra counts kept beside their layer
COUNTS = ("fullmodel.liouvillian.nnz", "fullmodel.lgmres.iterations",
          "experiments.write_csv.bytes")


class _SolverProxy:
    """Stands in for scipy.sparse.linalg inside one module."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent = []
        self._stack = []
        self._patched = []   # (namespace, attribute, original)

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name):
        counts = self.counts
        if name == "fullmodel.liouvillian":
            def after(args, kwargs, result):
                counts["fullmodel.liouvillian.nnz"] += int(result.nnz)
            return after
        if name == "experiments.write_csv":
            def after(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counts["experiments.write_csv.bytes"] += os.path.getsize(path)
            return after
        return None

    def _counting_lgmres(self, fn):
        counts = self.counts

        def lgmres(*args, **kwargs):
            user = kwargs.get("callback")

            def callback(xk):
                counts["fullmodel.lgmres.iterations"] += 1
                if user is not None:
                    user(xk)

            kwargs["callback"] = callback
            return fn(*args, **kwargs)

        return lgmres

    def install(self):
        """Wrap every traced function; missing ones are recorded as absent."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "plasmarray" or key.startswith("plasmarray."))]
        self.absent = []
        for name, (mod_name, attr) in LAYERS.items():
            mod = sys.modules.get(f"plasmarray.{mod_name}")
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, self._after(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)
        fullmodel = sys.modules.get("plasmarray.fullmodel")
        spla = getattr(fullmodel, "spla", None)
        overrides = {}
        for name, attr in SOLVERS.items():
            fn = getattr(spla, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            if attr == "lgmres":
                fn = self._counting_lgmres(fn)
            overrides[attr] = self._wrap(name, fn)
        if overrides:
            self._patched.append((fullmodel, "spla", spla))
            fullmodel.spla = _SolverProxy(spla, overrides)

    def uninstall(self):
        for namespace, key, original in reversed(self._patched):
            setattr(namespace, key, original)
        self._patched = []

    def layer_metrics(self) -> dict:
        """<layer>.calls and <layer>.self_s for every layer, plus the counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in list(LAYERS) + list(SOLVERS):
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += (end - start) - child_time[idx]
        out.update(self.counts)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "counts": self.counts,
                       "spans": self.spans}, fh)
