"""Layer spans recorded from outside the engine, and their self times.

`Tracer.install` replaces each public layer function listed in LAYER_FUNCTIONS
with a wrapper at every binding of it inside the `hopfzero` package, so calls
through `from .x import f` copies are caught as well.  A span is the list
[name, start, end, parent, op]: `parent` is the index of the enclosing span
(-1 at top level) and `op` labels the set-up or pass it belongs to.  Spans stay
in memory until the run ends.  Ring operations are counted, never timed: they
run up to a million times a pass, and a span on each would swamp what it
measures.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

# (span name, module, attribute): public functions of each layer
LAYER_FUNCTIONS = (
    ("parsing", "hopfzero.parsing", "parse_system"),
    ("parsing", "hopfzero.parsing", "parse_polynomial"),
    ("frontend.normalize", "hopfzero.frontend", "normalize_principal_part"),
    ("frontend.cli", "hopfzero.frontend", "run_cli"),
    ("frontend.cli", "hopfzero.frontend", "build_report"),
    ("analyzers.driver", "hopfzero.analyzers", "_obstruction_driver"),
    ("analyzers.classify", "hopfzero.analyzers", "classify"),
    ("homological.solve", "hopfzero.homological", "solve_homological"),
    ("homological.analyze", "hopfzero.homological", "analyze_operator"),
    ("normalform.nf", "hopfzero.normalform", "orbital_normal_form"),
    ("normalform.generator_step", "hopfzero.normalform", "apply_generator_step"),
    ("vectorfield.lie_bracket", "hopfzero.vectorfield", "lie_bracket"),
    ("vectorfield.directional_derivative", "hopfzero.vectorfield",
     "directional_derivative"),
    ("coeffring.pseudo_remainder", "hopfzero.coeffring", "pseudo_remainder"),
)

# span names whose calls are reported, and those whose self time is
CALL_METRICS = ("parsing", "analyzers.driver", "homological.solve",
                "homological.analyze", "normalform.generator_step",
                "vectorfield.lie_bracket", "vectorfield.directional_derivative",
                "gradedpoly.mul", "gradedpoly.partial")
SELF_METRICS = ("parsing", "frontend.normalize", "frontend.cli", "analyzers.driver",
                "analyzers.classify", "homological.solve", "homological.analyze",
                "normalform.nf", "normalform.generator_step", "vectorfield.lie_bracket",
                "vectorfield.directional_derivative", "gradedpoly.mul",
                "gradedpoly.partial", "coeffring.pseudo_remainder")
# per-operation values that are maxima, not sums
MAX_METRICS = ("homological.max_slice_dim", "gradedpoly.max_terms",
               "coeffring.max_terms", "coeffring.max_num_bits", "coeffring.max_den_bits")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("bits"):
        return "bits"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def self_times(spans) -> Dict[tuple, float]:
    """Self time per (op, span name): span time minus its children's span time."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[tuple, float] = defaultdict(float)
    for i, (name, start, end, _, op) in enumerate(spans):
        out[(op, name)] += (end - start) - child_time[i]
    return dict(out)


def coefficient_sizes(polys) -> Dict[str, int]:
    """Largest term count, numerator bits and denominator bits over `polys`."""
    terms = num = den = 0
    for p in polys:
        terms = max(terms, len(p.terms))
        for c in p.terms.values():
            num = max(num, abs(c.numerator).bit_length())
            den = max(den, c.denominator.bit_length())
    return {"coeffring.max_terms": terms, "coeffring.max_num_bits": num,
            "coeffring.max_den_bits": den}


def result_coefficients(result):
    """The parameter polynomials of an obstruction sequence or a normal form."""
    if hasattr(result, "witness"):  # ObstructionSequence
        yield from result.entries.values()
        yield from result.witness.terms.values()
    else:  # NormalFormResult
        yield from result.a_coeffs.values()
        yield from result.b_coeffs.values()
        for comp in result.field.components:
            yield from comp.terms.values()


class Tracer:
    """Spans and counters of one benchmark process, grouped by operation."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: List[list] = []
        self.ops: List[dict] = []
        self._stack: List[int] = []
        self._op = None
        self._counts: Counter = Counter()
        self._results: list = []
        self._max_slice_degree = -1
        self._max_graded_terms = 0

    # -- recording ---------------------------------------------------------

    def begin(self, op: str) -> None:
        self._op = op
        self._counts = Counter()
        self._results = []
        self._max_slice_degree = -1
        self._max_graded_terms = 0

    def end(self, hz, scale: float = 1.0) -> None:
        """Close the current operation; sizes are measured here, untimed.
        Its self times are multiplied by `scale` (see `speed`)."""
        record = {"op": self._op, "scale": scale}
        record.update(self._counts)
        sizes = coefficient_sizes(
            p for r in self._results for p in result_coefficients(r))
        record.update(sizes)
        sequences = [r for r in self._results if hasattr(r, "witness")]
        forms = [r for r in self._results if not hasattr(r, "witness")]
        record["analyzers.entries"] = sum(len(r.entries) for r in sequences)
        record["normalform.degrees"] = sum(len(r.generators) for r in forms)
        record["gradedpoly.max_terms"] = self._max_graded_terms
        record["homological.max_slice_dim"] = (
            hz.gradedpoly.slice_dimension(self._max_slice_degree)
            if self._max_slice_degree >= 0 else 0)
        self.ops.append(record)
        self._op = None
        self._results = []

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self._counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _keep_result(self, args, result):
        self._results.append(result)

    def _slice_degree(self, args, result):
        self._max_slice_degree = max(self._max_slice_degree, args[0])

    def _graded_terms(self, args, result):
        self._max_graded_terms = max(self._max_graded_terms, len(result.terms))

    def install(self, hz) -> None:
        """Wrap the layer functions of the imported package `hz`."""
        hooks = {"analyzers.driver": self._keep_result,
                 "normalform.nf": self._keep_result,
                 "homological.solve": self._slice_degree}
        modules = [m for n, m in sys.modules.items()
                   if n == "hopfzero" or n.startswith("hopfzero.")]
        for name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(name, original, hooks.get(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
        qh = hz.gradedpoly.QHPolynomial
        qh.mul = self._span("gradedpoly.mul", qh.mul, self._graded_terms)
        qh.partial = self._span("gradedpoly.partial", qh.partial)
        homological = hz.homological
        homological._build_analysis = self._counter(
            "homological.analyze.builds", homological._build_analysis)
        pp = hz.coeffring.ParamPolynomial
        pp.__init__ = self._counter("coeffring.constructions", pp.__init__)

    # -- summaries ---------------------------------------------------------

    def op_values(self) -> List[dict]:
        """One dict of per-layer values for each recorded operation."""
        selfs = self_times(self.spans)
        calls = Counter((op, name) for name, _, _, _, op in self.spans)
        out = []
        for record in self.ops:
            op = record["op"]
            values = {f"{n}.calls": calls[(op, n)] for n in CALL_METRICS}
            values.update({f"{n}.self_s": selfs.get((op, n), 0.0) * record["scale"]
                           for n in SELF_METRICS})
            for key in ("homological.analyze.builds", "coeffring.constructions",
                        "analyzers.entries", "normalform.degrees"):
                values[key] = record.get(key, 0)
            for key in MAX_METRICS:
                values[key] = record[key]
            out.append(values)
        return out

    def layer_metrics(self, setup_ops: List[str]) -> Dict[str, float]:
        """Per-layer values of one set-up plus one pass, each the median over
        the run's set-ups and passes."""
        setups, passes = [], []
        for record, values in zip(self.ops, self.op_values()):
            (setups if record["op"] in setup_ops else passes).append(values)
        out = {}
        for key in setups[0]:
            s = statistics.median(v[key] for v in setups)
            p = statistics.median(v[key] for v in passes)
            out[key] = max(s, p) if key in MAX_METRICS else s + p
        calls = out["homological.analyze.calls"]
        out["homological.cache_hit_ratio"] = (
            (calls - out["homological.analyze.builds"]) / calls if calls else 0.0)
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in self.ops:
                handle.write(json.dumps({"op_record": record}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
