"""Per-layer tracing of blockineq from outside the package.

The package binds its helpers by name (``from .densemat import is_psd`` in
``blockineq.inequalities``, ``blockops``, ``maps`` and ``randgen``), and it
keeps functions in dispatch tables such as ``suites._RUNNERS`` and
``suites._FILE_CHECKERS``. Wrapping only the defining module would miss
those calls. :class:`Tracer` therefore replaces a target function at every
binding site it can find in the loaded ``blockineq`` modules: module
globals, values of module-level dicts and attributes of module classes.
Everything is restored when the ``with`` block ends.

Once installed, the tracer looks again at every place a package module can
hold a function (the sites above, plus module-level lists, tuples and sets,
and the defaults and closures of package functions) and lists in
``Tracer.unwrapped`` each one that still holds an original target. A call
through such a site would not be traced, and its time would be counted as
its caller's self time.

Each wrapped call is a span. A span's self time is its duration minus the
duration of the traced spans it called. Totals are kept per layer, so the
tracer holds no per-span records and its memory does not grow with run
length.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "blockineq"

# (layer, module, qualified names). A layer is named after the module whose
# functions it times; a target the package no longer defines is skipped
# with a warning, and its layer then reads zero.
LAYERS = (
    ("densemat.eig", "densemat", ("hermitian_eigenvalues",)),
    ("densemat.is_psd", "densemat", ("is_psd",)),
    ("densemat.determinant", "densemat", ("determinant",)),
    ("randgen", "randgen", ("random_psd", "random_separable", "random_ppt")),
    (
        "blockops",
        "blockops",
        (
            "partial_transpose",
            "partial_trace_1",
            "partial_trace_2",
            "block_get",
            "realign",
            "is_ppt",
            "from_blocks",
        ),
    ),
    (
        "inequalities.check",
        "inequalities",
        (
            "check_copositive_partial_trace",
            "check_ppt_reduction",
            "check_combined_reduction",
            "check_upper_bound",
            "check_phi_lower",
            "check_block2",
        ),
    ),
    ("inequalities.pair", "inequalities", ("check_trace_submatrix", "check_det_submatrix")),
    (
        "maps.certify",
        "maps",
        ("certify_completely_positive", "certify_completely_copositive"),
    ),
    ("matio.load", "matio", ("load",)),
    ("suites", "suites", ("run_suite", "run_files")),
    ("suites.to_json", "suites", ("RunReport.to_json",)),
    ("cli.main", "cli", ("main",)),
)

# Eigensolver dimensions reported one by one. The three workloads solve at
# these sizes; calls at any other size count only in the totals.
EIG_DIMS = (2, 3, 4, 5, 6, 8, 9, 16)

SUITE_NAMES = (
    "theorem2",
    "corollary3",
    "combined",
    "upper_bound",
    "corollary6",
    "block2",
    "thm8_9",
    "eqlin",
    "choi_certs",
)


class Tracer:
    """Wrap blockineq's layer functions at every binding site while active."""

    def __init__(self):
        self.calls = defaultdict(int)  # layer -> spans
        self.self_s = defaultdict(float)  # layer -> self time
        self.fn_calls = defaultdict(int)  # function name -> spans
        self.fn_incl_s = defaultdict(float)  # function name -> inclusive time
        self.suite_s = defaultdict(float)  # suite -> time in its runner or checker
        self.counts = defaultdict(float)  # named counters filled by the hooks
        self.missing = []
        self.targets = {}  # function name -> original function
        self.unwrapped = []  # binding sites that still hold an original
        self._wrappers = set()  # ids of the wrappers installed
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, modname, names in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            for qualname in names:
                fn = _resolve(mod, qualname)
                if fn is None:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                self._patch_everywhere(modules, fn, layer, qualname)
        suites = sys.modules.get(f"{PACKAGE}.suites")
        for suite, runner in dict(getattr(suites, "_RUNNERS", {})).items():
            self._patch_everywhere(modules, runner, "suites", runner.__name__)
        if self.missing:
            print(f"tracer: not found, layer reads zero: {', '.join(self.missing)}", file=sys.stderr)
        self.unwrapped = self._find_unwrapped(modules)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
        return False

    def _patch_everywhere(self, modules, fn, layer, name):
        self.targets[name] = fn
        plain = self._wrap(fn, layer, name, suite=None)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, plain, fn)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is fn:
                            suite = key if key in SUITE_NAMES else None
                            self._set(value, key, self._wrap(fn, layer, name, suite), fn)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is fn:
                            self._set(value, cattr, plain, fn)

    def _find_unwrapped(self, modules) -> list:
        originals = {id(fn): name for name, fn in self.targets.items()}
        found = []

        def look(where, values):
            for value in values:
                if id(value) in originals:
                    found.append(f"{where}: {originals[id(value)]}")

        for mod in modules:
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                look(where, [value])
                if isinstance(value, dict):
                    look(where, value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    look(where, value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    look(where, vars(value).values())
                if inspect.isfunction(value) and id(value) not in self._wrappers:
                    look(f"{where} defaults", value.__defaults__ or ())
                    look(f"{where} defaults", (value.__kwdefaults__ or {}).values())
                    look(f"{where} closure", _cell_values(value))
        return found

    def _set(self, owner, key, wrapped, original):
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer, name, suite):
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [layer, name, 0.0]  # last field: time spent in traced children
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(layer, exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - span[2]
                tracer.fn_calls[name] += 1
                tracer.fn_incl_s[name] += duration
                if suite is not None:
                    tracer.suite_s[suite] += duration
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(tracer, args, result, duration, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self._wrappers.add(id(traced))
        return traced

    def _count_error(self, layer, exc):
        kind = type(exc).__name__
        if layer == "densemat.eig" and kind in ("ConvergenceError", "HermiticityError"):
            self.counts["eig_failures"] += 1
        elif layer.startswith("inequalities.") and kind == "PreconditionError":
            # a PreconditionError leaves the checker that raised it and then
            # only passes through suites/cli spans, so it is counted once
            self.counts["precondition_errors"] += 1

    # -- results ------------------------------------------------------------

    def traced_self_s(self) -> float:
        return sum(self.self_s.values())

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics; totals are divided by ``rounds`` (per round)."""
        r = float(rounds)
        c = self.counts
        eig_calls = self.calls["densemat.eig"]
        out = {
            "densemat.eig.calls": (eig_calls / r, "count"),
            "densemat.eig.self_s": (self.self_s["densemat.eig"] / r, "s"),
            "densemat.eig.sweeps_mean": (_ratio(c["eig_sweeps"], c["eig_results"]), "sweeps"),
            "densemat.eig.failures": (c["eig_failures"] / r, "count"),
        }
        for d in EIG_DIMS:
            calls = c[f"eig_calls_d{d}"]
            out[f"densemat.eig.calls.d{d}"] = (calls / r, "count")
            out[f"densemat.eig.us_per_call.d{d}"] = (_ratio(1e6 * c[f"eig_s_d{d}"], calls), "us")
        psd_calls = self.calls["densemat.is_psd"]
        out["densemat.is_psd.calls"] = (psd_calls / r, "count")
        out["densemat.is_psd.solve_ratio"] = (_ratio(c["psd_solves"], psd_calls), "ratio")
        out["densemat.determinant.calls"] = (self.calls["densemat.determinant"] / r, "count")
        out["densemat.determinant.self_s"] = (self.self_s["densemat.determinant"] / r, "s")
        ppt_calls = self.fn_calls["random_ppt"]
        out["randgen.self_s"] = (self.self_s["randgen"] / r, "s")
        out["randgen.psd_draws"] = (self.fn_calls["random_psd"] / r, "count")
        out["randgen.ppt.calls"] = (ppt_calls / r, "count")
        out["randgen.ppt.rejection_ratio"] = (_ratio(c["ppt_rejection"], ppt_calls), "ratio")
        out["randgen.ppt.draws_per_call"] = (_ratio(c["ppt_draws"], ppt_calls), "ratio")
        for layer in ("blockops", "inequalities.check", "inequalities.pair"):
            out[f"{layer}.calls"] = (self.calls[layer] / r, "count")
            out[f"{layer}.self_s"] = (self.self_s[layer] / r, "s")
        out["inequalities.precondition_errors"] = (c["precondition_errors"] / r, "count")
        pair_calls = self.calls["inequalities.pair"]
        pair_incl = self.fn_incl_s["check_trace_submatrix"] + self.fn_incl_s["check_det_submatrix"]
        out["inequalities.pair.us_per_call"] = (_ratio(1e6 * pair_incl, pair_calls), "us")
        out["suites.self_s"] = (self.self_s["suites"] / r, "s")
        for suite in SUITE_NAMES:
            out[f"suites.suite_s.{suite}"] = (self.suite_s[suite] / r, "s")
        out["suites.to_json.s"] = (self.fn_incl_s["RunReport.to_json"] / r, "s")
        out["suites.report.bytes"] = (c["report_bytes"] / r, "bytes")
        out["matio.load.calls"] = (self.calls["matio.load"] / r, "count")
        out["matio.load.bytes"] = (c["load_bytes"] / r, "bytes")
        out["matio.load.self_s"] = (self.self_s["matio.load"] / r, "s")
        out["cli.main.self_s"] = (self.self_s["cli.main"] / r, "s")
        out["maps.certify.self_s"] = (self.self_s["maps.certify"] / r, "s")
        return out


def _resolve(mod, qualname):
    obj = mod
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _cell_values(fn) -> list:
    values = []
    for cell in fn.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # a cell not yet filled
            pass
    return values


def _ratio(num, den):
    return num / den if den else 0.0


# -- hooks: counters that need a call's arguments, result or caller ---------


def _eig_hook(tracer, args, result, duration, parent):
    c = tracer.counts
    d = len(args[0])
    c[f"eig_calls_d{d}"] += 1
    c[f"eig_s_d{d}"] += duration
    c["eig_sweeps"] += result.sweeps
    c["eig_results"] += 1
    if parent is not None and parent[0] == "densemat.is_psd":
        c["psd_solves"] += 1


def _random_psd_hook(tracer, args, result, duration, parent):
    if parent is not None and parent[1] == "random_ppt":
        tracer.counts["ppt_draws"] += 1


def _random_ppt_hook(tracer, args, result, duration, parent):
    if result[1] == "rejection":
        tracer.counts["ppt_rejection"] += 1


def _to_json_hook(tracer, args, result, duration, parent):
    tracer.counts["report_bytes"] += len(result.encode("utf-8"))


def _load_hook(tracer, args, result, duration, parent):
    try:
        tracer.counts["load_bytes"] += os.path.getsize(args[0])
    except OSError:
        pass


_HOOKS = {
    "hermitian_eigenvalues": _eig_hook,
    "random_psd": _random_psd_hook,
    "random_ppt": _random_ppt_hook,
    "RunReport.to_json": _to_json_hook,
    "load": _load_hook,
}
