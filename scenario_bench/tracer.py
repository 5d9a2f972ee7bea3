"""Outside-in span tracer for koszul_index.

The tracer wraps named public functions and a few methods of the package
from outside, records one span per call (name, parent span, scenario id,
start, end, and a work count), and restores every original binding when it
is uninstalled. Functions are rebound in every module of the package that
holds them, since modules import each other's functions by name: `models`
calls `local_multiplicity` through its own binding, so patching only
`multiplicity` would miss those calls.

Scalar (`QQi`) operators are deliberately not wrapped: they run millions of
times for a few microseconds each, and a wrapper would cost more than the
work it measures. Their time shows up as self time of the `linalg` and
`poly` spans that call them.

Spans stay in memory until the run ends; `layer_metrics` turns them into
the per-layer numbers and `write_spans` stores them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

PACKAGE = "koszul_index"
LAYERS = ("cli", "koszul", "spectral", "spectrum", "poly", "multiplicity",
          "models", "linalg")
ECHELON = ("linalg.rank", "linalg.det", "linalg.kernel_basis",
           "linalg.image_basis", "linalg.solve", "linalg.extend_basis")

# (module, attribute path, span name); the layer is the first part of the
# span name.
_TARGETS = [
    ("cli", "scenarios_from_document", "cli.parse"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "emit_reports", "cli.emit"),
    ("koszul", "CommutingTuple.__init__", "koszul.commuting_check"),
    ("koszul", "ChainComplex.__init__", "koszul.chain_check"),
    ("koszul", "build_complex", "koszul.build_complex"),
    ("koszul", "homology", "koszul.homology"),
    ("koszul", "mapping_cone", "koszul.mapping_cone"),
    ("koszul", "verify_cone_isomorphism", "koszul.cone_check"),
    ("spectral", "build_bicomplex", "spectral.build_bicomplex"),
    ("spectral", "page_sequence", "spectral.page_sequence"),
    ("spectral", "stabilization_page", "spectral.stabilization_page"),
    ("spectral", "e2_page", "spectral.e2_page"),
    ("spectral", "e2_dims_independent", "spectral.e2_dims_independent"),
    ("spectral", "euler_via_e2", "spectral.euler_via_e2"),
    ("spectrum", "spectral_decomposition", "spectrum.decomposition"),
    ("spectrum", "exact_eigenvalues", "spectrum.exact_eigenvalues"),
    ("spectrum", "charpoly", "spectrum.charpoly"),
    ("spectrum", "joint_spectrum_equivalences", "spectrum.equivalences"),
    ("poly", "parse_system", "poly.parse_system"),
    ("poly", "groebner", "poly.groebner"),
    ("poly", "normal_form", "poly.normal_form"),
    ("poly", "quotient_algebra", "poly.quotient_algebra"),
    ("multiplicity", "local_multiplicity", "multiplicity.local_multiplicity"),
    ("multiplicity", "truncated_codimension", "multiplicity.truncation"),
    ("multiplicity", "verify_diagonal_degree", "multiplicity.diagonal_degree"),
    ("multiplicity", "global_multiplicity_table", "multiplicity.global_table"),
    ("multiplicity", "jacobian_regular", "multiplicity.jacobian_regular"),
    ("models", "global_index", "models.global_index"),
    ("models", "classify_zeros", "models.classify_zeros"),
    ("models", "local_index", "models.local_index"),
    ("models", "reciprocity_check", "models.reciprocity_check"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "image_basis", "linalg.image_basis"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "extend_basis", "linalg.extend_basis"),
    ("linalg", "SparseEchelon.add", "linalg.sparse_echelon.add"),
]


def _entry_mults(args, result):
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _entries_in(args, result):
    return sum(m.rows * m.cols for m in args if hasattr(m, "entries"))


def _independent(args, result):
    return 1 if result else 0


# work counted for a span, from its arguments and result
_WORK = {"linalg.matmul": _entry_mults,
         "linalg.sparse_echelon.add": _independent}
_WORK.update((name, _entries_in) for name in ECHELON)


def package_targets():
    """(owner, attribute, span name, work function) for the package."""
    out = []
    for module_name, path, span in _TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        out.append((owner, attr, span, _WORK.get(span)))
    return out


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans while installed. Use as a context manager, or call
    `install` and `uninstall`; set `scenario` to tag spans with an id.

    Each span is a list [name, parent index or -1, scenario, start, end,
    work]; parents always precede their children in `spans`.
    """

    def __init__(self, targets=None, modules=None, clock=time.perf_counter):
        self._targets = targets
        self._modules = modules
        self.clock = clock
        self.spans = []
        self.scenario = None
        self._stack = []
        self._patches = []  # (owner, attribute, original), in install order

    def _wrap(self, fn, name, work):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.scenario, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = tracer.clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = package_targets() if self._targets is None else self._targets
        modules = package_modules() if self._modules is None else self._modules
        for owner, attr, name, work in targets:
            if isinstance(owner, type):
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self._wrap(original, name, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, work)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[4] - s[3]) - covered[i] for i, s in enumerate(spans)]


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor of the same name."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[1]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out


def layer_metrics(spans, scenarios: int):
    """Per-layer metrics of a traced pass over `scenarios` scenarios."""
    own = self_times(spans)
    calls, self_ms, work = {}, {}, {}
    for span, t in zip(spans, own):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_ms[span[0]] = self_ms.get(span[0], 0.0) + t * 1000.0
        work[span[0]] = work.get(span[0], 0) + span[5]

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def incl_ms(name):
        return sum((spans[i][4] - spans[i][3]) * 1000.0
                   for i in _outermost(spans, {name}))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = total(calls, names)
        out[f"{layer}.self_ms"] = total(self_ms, names)
    out["linalg.matmul.calls"] = calls.get("linalg.matmul", 0)
    out["linalg.matmul.self_ms"] = self_ms.get("linalg.matmul", 0.0)
    out["linalg.matmul.entry_mults"] = work.get("linalg.matmul", 0)
    out["linalg.echelon.calls"] = total(calls, ECHELON)
    out["linalg.echelon.self_ms"] = total(self_ms, ECHELON)
    out["linalg.echelon.entries_in"] = total(work, ECHELON)
    out["koszul.chain_check.incl_ms"] = incl_ms("koszul.chain_check")
    out["koszul.commuting_check.incl_ms"] = incl_ms("koszul.commuting_check")
    out["koszul.cone_check.incl_ms"] = incl_ms("koszul.cone_check")
    out["spectral.page_sequence.incl_ms"] = incl_ms("spectral.page_sequence")
    out["spectral.euler_via_e2.incl_ms"] = incl_ms("spectral.euler_via_e2")
    out["spectral.builds_per_scenario"] = ratio(
        calls.get("koszul.build_complex", 0), scenarios)
    out["multiplicity.truncation.calls"] = calls.get("multiplicity.truncation", 0)
    out["multiplicity.truncation.self_ms"] = self_ms.get("multiplicity.truncation", 0.0)
    out["multiplicity.orders_per_certificate"] = ratio(
        calls.get("multiplicity.truncation", 0),
        calls.get("multiplicity.local_multiplicity", 0))
    adds = calls.get("linalg.sparse_echelon.add", 0)
    out["linalg.sparse_echelon.adds"] = adds
    out["linalg.sparse_echelon.independent_ratio"] = ratio(
        work.get("linalg.sparse_echelon.add", 0), adds)
    out["poly.groebner.calls"] = calls.get("poly.groebner", 0)
    out["poly.groebner.incl_ms"] = incl_ms("poly.groebner")
    out["poly.normal_form.calls"] = calls.get("poly.normal_form", 0)
    out["spectrum.decomposition.incl_ms"] = incl_ms("spectrum.decomposition")
    tries = sum(1 for s in spans if s[0] == "spectrum.exact_eigenvalues"
                and s[1] >= 0 and spans[s[1]][0] == "spectrum.decomposition")
    out["spectrum.tries_per_decomposition"] = ratio(
        tries, calls.get("spectrum.decomposition", 0))
    out["models.global_index.incl_ms"] = incl_ms("models.global_index")
    out["cli.parse.incl_ms"] = incl_ms("cli.parse")
    out["cli.emit.incl_ms"] = incl_ms("cli.emit")
    return out


def write_spans(spans, path):
    """Store spans as gzipped JSON Lines: name, parent, scenario, start and
    duration in microseconds from the first span, and work."""
    origin = spans[0][3] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for name, parent, scenario, start, end, work in spans:
            handle.write(json.dumps(
                [name, parent, scenario, round((start - origin) * 1e6, 1),
                 round((end - start) * 1e6, 1), work]) + "\n")
