"""Per-module timing of prymalg, installed from outside the package.

``install`` runs inside a job's interpreter after the package is imported
and before the job's call.  Each target below is replaced in its defining
module or class and at every other place in the package that holds the
same object (a ``from .x import f`` binding, a dispatch dict such as the
CLI's command table), so a call is caught however it is reached.  A target
whose module or attribute no longer exists is recorded as absent, and the
metrics built on it are reported as absent instead of failing the run.

Coarse boundaries (command handlers and public entry points) record one
span per call: name, start, end, own id, parent id and job id.  Hot
functions, called up to a million times a pass (group operations,
``IntPoly`` operators, the partition constructor, ``RowReducer`` methods,
and the per-element ``relabel``, ``relabel_monomial`` and ``multiply``),
only aggregate a call count and time.  Every wrapped call also feeds per-name totals and self times (its
duration minus the part covered by wrapped calls beneath it).  Spans and
totals stay in memory until ``Tracer.finish``.

``METRICS`` turns the totals, summed over the jobs of a pass, into the
per-module metrics the benchmark reports.  This module imports nothing
from prymalg at import time, so the driver can use ``METRICS`` too.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import sys
import threading
import time

_now = time.perf_counter

SPAN = "span"
LEAF = "leaf"
POOL = "pool"


class _ThreadState:
    __slots__ = ("stack", "stats", "extra", "root")

    def __init__(self):
        self.stack = []  # frames: [name, child_s, span_id, parent_span_id]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.extra = {}  # counter name -> number
        self.root = None  # span that handed work to this thread


class Tracer:
    """Spans and per-name totals for one job, kept per thread until finish."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.absent = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self.cache_info = None

    def state(self):
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            self._states.append(st)
            return st

    def current_span(self):
        st = self.state()
        if not st.stack:
            return st.root
        top = st.stack[-1]
        return top[2] if top[2] is not None else top[3]

    def wrap(self, fn, name, kind, on_exit=None):
        spans, ids, state, job = self.spans, self._ids, self.state, self.job_id
        is_span = kind == SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            if stack:
                top = stack[-1]
                parent = top[2] if top[2] is not None else top[3]
            else:
                parent = st.root
            frame = [name, 0.0, next(ids) if is_span else None, parent]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                elapsed = t1 - t0
                totals = st.stats.get(name)
                if totals is None:
                    totals = st.stats[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if is_span:
                    spans.append((name, t0, t1, frame[2], parent, job))
            if on_exit is not None:
                try:
                    on_exit(self, st, args, kwargs, result, elapsed)
                except (TypeError, ValueError, LookupError, AttributeError):
                    # the call's arguments or result changed shape
                    self.absent.add(name + ":hook")
            return result

        return traced

    def finish(self):
        """Merge the per-thread totals; returns a JSON-ready dict."""
        stats, extra = {}, {}
        for st in self._states:
            for name, (calls, total, own) in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
            for key, value in st.extra.items():
                extra[key] = extra.get(key, 0) + value
        return {
            "spans": self.spans,
            "stats": stats,
            "extra": extra,
            "absent": sorted(self.absent),
        }


def _add(st, key, value):
    st.extra[key] = st.extra.get(key, 0) + value


def _inside(st, name):
    return any(frame[0] == name for frame in st.stack)


def _count_result(key):
    def hook(tracer, st, args, kwargs, result, elapsed):
        _add(st, key, len(result))

    return hook


def _ideal_hook(tracer, st, args, kwargs, result, elapsed):
    reducer, monomials = result[0], result[1]
    _add(st, "oracle.columns", len(monomials))
    _add(st, "oracle.rank", reducer.rank)


def _row_hook(tracer, st, args, kwargs, result, elapsed):
    if result:
        _add(st, "linalg.useful_rows", 1)
    if _inside(st, "oracle"):
        _add(st, "oracle.linalg_s", elapsed)


def _clone_hook(tracer, st, args, kwargs, result, elapsed):
    if _inside(st, "oracle"):
        _add(st, "oracle.linalg_s", elapsed)


def _rref_hook(tracer, st, args, kwargs, result, elapsed):
    rows = list(args[0] if args else kwargs["rows"])
    _add(st, "rref.entries", len(rows) * (len(rows[0]) if rows else 0))
    if _inside(st, "rigidity.commutant"):
        _add(st, "rigidity.system_rows", len(rows))


def _fixed_point_hook(tracer, st, args, kwargs, result, elapsed):
    basis_list = args[3] if len(args) > 3 else kwargs["basis_list"]
    _add(st, "fixed_point_tests", len(basis_list))


def _pool_wrapper(tracer, pool_map):
    """Charge (wall - thread CPU) of every item run off the main thread.

    Items that run on the main thread did not go through a pool, so they
    are not charged: a sequential run reads exactly zero.
    """
    main = threading.main_thread()

    @functools.wraps(pool_map)
    def traced_pool_map(fn, *args, **kwargs):
        caller = tracer.current_span()

        def item(*item_args, **item_kwargs):
            if threading.current_thread() is main:
                return fn(*item_args, **item_kwargs)
            st = tracer.state()
            st.root = caller
            w0, c0 = _now(), time.thread_time()
            try:
                return fn(*item_args, **item_kwargs)
            finally:
                _add(st, "pool.wait_s", (_now() - w0) - (time.thread_time() - c0))

        return pool_map(item, *args, **kwargs)

    return traced_pool_map


_COMMANDS = ("dims", "twisted", "gap", "character", "commutant", "oracle-check", "strata")

# (stat name, module, attribute path, kind, exit hook)
TARGETS = (
    ("cli.build_parser", "prymalg.cli", "build_parser", SPAN, None),
    ("cli.parse_args", "argparse", "ArgumentParser.parse_args", SPAN, None),
    ("cli.render", "prymalg.cli", "_render", SPAN, None),
    ("cli.json_dumps", "json", "dumps", LEAF, None),
    *(
        ("cli." + cmd, "prymalg.cli", "cmd_" + cmd.replace("-", "_"), SPAN, None)
        for cmd in _COMMANDS
    ),
    ("cli.pool", "prymalg.cli", "_pool_map", POOL, None),
    ("group.add", "prymalg.abelian_group", "FiniteAbelianGroup.add", LEAF, None),
    ("group.negate", "prymalg.abelian_group", "FiniteAbelianGroup.negate", LEAF, None),
    ("group.element", "prymalg.abelian_group", "FiniteAbelianGroup.element", LEAF, None),
    ("partitions.init", "prymalg.partitions", "DWeightedPartition.__init__", LEAF, None),
    ("partitions.validate", "prymalg.partitions", "DWeightedPartition.__post_init__",
     LEAF, None),
    ("partitions.relabel", "prymalg.partitions", "relabel", LEAF, None),
    ("partitions.enumerate_set_partitions", "prymalg.partitions",
     "enumerate_set_partitions", SPAN, _count_result("set_partitions_listed")),
    ("algebra.graded_dimension", "prymalg.algebra", "graded_dimension", SPAN, None),
    ("algebra.basis", "prymalg.algebra", "basis", SPAN, _count_result("basis.monomials")),
    ("algebra.multiply", "prymalg.algebra", "multiply", LEAF, None),
    ("algebra.relabel_monomial", "prymalg.algebra", "relabel_monomial", LEAF, None),
    ("oracle", "prymalg.algebra", "oracle_graded_dimension", SPAN, None),
    ("oracle.ideal", "prymalg.algebra", "_oracle_ideal", SPAN, _ideal_hook),
    ("linalg.add", "prymalg.linalg", "RowReducer.add", LEAF, _row_hook),
    ("linalg.clone", "prymalg.linalg", "RowReducer.clone", LEAF, _clone_hook),
    ("linalg.rref", "prymalg.linalg", "rref", SPAN, _rref_hook),
    ("poly.mul", "prymalg.polynomial", "IntPoly.__mul__", LEAF, None),
    ("poly.add", "prymalg.polynomial", "IntPoly.__add__", LEAF, None),
    ("poly.pow", "prymalg.polynomial", "IntPoly.__pow__", LEAF, None),
    ("series.twisted", "prymalg.series", "twisted_cohomology_dims", SPAN, None),
    ("series.j_factor", "prymalg.series", "j_factor_dimension", SPAN, None),
    ("series.j_twisted", "prymalg.series", "j_twisted_dims", SPAN, None),
    ("symmetry.character", "prymalg.symmetry", "permutation_character", SPAN, None),
    ("symmetry.fixed_point_count", "prymalg.symmetry", "fixed_point_count", SPAN,
     _fixed_point_hook),
    ("symmetry.decompose", "prymalg.symmetry", "decompose", SPAN, None),
    ("rigidity.commutant", "prymalg.rigidity", "commutant_sp", SPAN, None),
)

# Extra counters that only exist while their target is installed.
_EXTRA_OWNER = {
    "pool.wait_s": "cli.pool",
    "set_partitions_listed": "partitions.enumerate_set_partitions",
    "basis.monomials": "algebra.basis",
    "oracle.columns": "oracle.ideal",
    "oracle.rank": "oracle.ideal",
    "oracle.ideal_hits": "oracle.ideal",
    "oracle.ideal_misses": "oracle.ideal",
    "oracle.duplicate_builds": "oracle.ideal",
    "linalg.useful_rows": "linalg.add",
    "rref.entries": "linalg.rref",
    "rigidity.system_rows": "linalg.rref",
    "fixed_point_tests": "symmetry.fixed_point_count",
}


def _module_exists(name):
    if name in sys.modules:
        return True
    try:
        return importlib.util.find_spec(name) is not None
    except ImportError:
        return False


def _package_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "prymalg" or name.startswith("prymalg.")):
            yield module


def _replace_everywhere(owner, attr, original, replacement):
    setattr(owner, attr, replacement)
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__.startswith("prymalg"):
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, replacement)


def install(job_id):
    """Wrap every target that exists in this interpreter; returns the Tracer.

    A target whose module is importable but not loaded by this job is
    left alone (it cannot be called); one whose module or attribute is
    gone is marked absent.
    """
    tracer = Tracer(job_id)
    originals = {}
    for name, module_name, path, kind, hook in TARGETS:
        if not _module_exists(module_name):
            tracer.absent.add(name)
            continue
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner = module
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            tracer.absent.add(name)
            continue
        if kind == POOL:
            replacement = _pool_wrapper(tracer, original)
        else:
            replacement = tracer.wrap(original, name, kind, hook)
        _replace_everywhere(owner, attr, original, replacement)
        originals[name] = original
    ideal = originals.get("oracle.ideal")
    tracer.cache_info = getattr(ideal, "cache_info", None)
    if ideal is not None and tracer.cache_info is None:
        tracer.absent.update(("oracle.ideal_hits", "oracle.ideal_misses",
                              "oracle.duplicate_builds"))
    return tracer


def collect(tracer):
    """Finish the tracer and add the oracle cache counters."""
    out = tracer.finish()
    if tracer.cache_info is not None:
        info = tracer.cache_info()
        out["extra"]["oracle.ideal_hits"] = info.hits
        out["extra"]["oracle.ideal_misses"] = info.misses
        out["extra"]["oracle.duplicate_builds"] = info.misses - info.currsize
    return out


# ---------------------------------------------------------------------------
# Per-module metrics from totals summed over the jobs of one pass.
# ---------------------------------------------------------------------------


class Absent(Exception):
    """A metric's source no longer exists in the program."""


class Totals:
    """Sums of several jobs' ``collect`` output, read by ``METRICS``."""

    def __init__(self):
        self.stats = {}
        self.extra = {}
        self.absent = set()

    def add(self, traced):
        for name, (calls, total, own) in traced["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in traced["extra"].items():
            self.extra[key] = self.extra.get(key, 0) + value
        self.absent.update(traced["absent"])

    def _column(self, index, names):
        missing = self.absent.intersection(names)
        if missing:
            raise Absent(", ".join(sorted(missing)))
        return sum(self.stats.get(name, (0, 0.0, 0.0))[index] for name in names)

    def calls(self, *names):
        return self._column(0, names)

    def total(self, *names):
        return self._column(1, names)

    def own(self, *names):
        return self._column(2, names)

    def x(self, key):
        owner = _EXTRA_OWNER.get(key)
        if self.absent.intersection((key, owner, "%s:hook" % owner)):
            raise Absent(key)
        return self.extra.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


_GROUP_OPS = ("group.add", "group.negate", "group.element")
_POLY_OPS = ("poly.mul", "poly.add", "poly.pow")

# (metric name, unit, value from Totals)
METRICS = (
    ("cli.import_s", "s", lambda t: t.x("cli.import_s")),
    ("cli.parse_s", "s", lambda t: t.total("cli.build_parser", "cli.parse_args")),
    ("cli.render_s", "s", lambda t: t.own("cli.render") + t.total("cli.json_dumps")),
    ("cli.output_bytes", "bytes", lambda t: t.x("cli.output_bytes")),
    *(
        ("cli.%s.s" % cmd, "s", functools.partial(lambda c, t: t.total("cli." + c), cmd))
        for cmd in _COMMANDS
    ),
    ("cli.pool.wait_s", "s", lambda t: t.x("pool.wait_s")),
    ("abelian_group.ops", "count", lambda t: t.calls(*_GROUP_OPS)),
    ("abelian_group.ops_s", "s", lambda t: t.own(*_GROUP_OPS)),
    ("partitions.constructed", "count", lambda t: t.calls("partitions.init")),
    ("partitions.validate_s", "s", lambda t: t.total("partitions.validate")),
    ("partitions.relabel.calls", "count", lambda t: t.calls("partitions.relabel")),
    ("partitions.relabel.self_s", "s", lambda t: t.own("partitions.relabel")),
    ("partitions.set_partitions_listed", "count", lambda t: t.x("set_partitions_listed")),
    ("algebra.graded_dimension.calls", "count",
     lambda t: t.calls("algebra.graded_dimension")),
    ("algebra.graded_dimension.self_s", "s", lambda t: t.own("algebra.graded_dimension")),
    ("algebra.basis.monomials", "count", lambda t: t.x("basis.monomials")),
    ("algebra.basis.self_s", "s", lambda t: t.own("algebra.basis")),
    ("algebra.multiply.calls", "count", lambda t: t.calls("algebra.multiply")),
    ("algebra.multiply.self_s", "s", lambda t: t.own("algebra.multiply")),
    ("algebra.relabel_monomial.self_s", "s", lambda t: t.own("algebra.relabel_monomial")),
    ("oracle.cells", "count", lambda t: t.calls("oracle")),
    ("oracle.s", "s", lambda t: t.total("oracle")),
    ("oracle.build_s", "s", lambda t: t.total("oracle") - t.extra.get("oracle.linalg_s", 0)),
    ("oracle.ideal_hits", "count", lambda t: t.x("oracle.ideal_hits")),
    ("oracle.ideal_misses", "count", lambda t: t.x("oracle.ideal_misses")),
    ("oracle.duplicate_builds", "count", lambda t: t.x("oracle.duplicate_builds")),
    ("oracle.columns", "count", lambda t: t.x("oracle.columns")),
    ("oracle.rank", "count", lambda t: t.x("oracle.rank")),
    ("linalg.rows", "count", lambda t: t.calls("linalg.add")),
    ("linalg.useful_row_ratio", "ratio",
     lambda t: _ratio(t.x("linalg.useful_rows"), t.calls("linalg.add"))),
    ("linalg.eliminate_s", "s", lambda t: t.total("linalg.add")),
    ("linalg.clone_s", "s", lambda t: t.total("linalg.clone")),
    ("linalg.rref.s", "s", lambda t: t.total("linalg.rref")),
    ("linalg.rref.entries", "count", lambda t: t.x("rref.entries")),
    ("polynomial.ops", "count", lambda t: t.calls(*_POLY_OPS)),
    ("polynomial.ops_s", "s", lambda t: t.own(*_POLY_OPS)),
    ("series.twisted.self_s", "s", lambda t: t.own("series.twisted")),
    ("series.j_factor.calls", "count", lambda t: t.calls("series.j_factor")),
    ("series.j_twisted.self_s", "s", lambda t: t.own("series.j_twisted")),
    ("symmetry.fixed_point_tests", "count", lambda t: t.x("fixed_point_tests")),
    ("symmetry.character.self_s", "s",
     lambda t: t.own("symmetry.character", "symmetry.fixed_point_count")),
    ("symmetry.decompose.s", "s", lambda t: t.total("symmetry.decompose")),
    ("rigidity.commutant.self_s", "s", lambda t: t.own("rigidity.commutant")),
    ("rigidity.system_rows", "count", lambda t: t.x("rigidity.system_rows")),
)


def evaluate(totals):
    """{metric: value or None when absent} for one pass's Totals."""
    out = {}
    for name, _, fn in METRICS:
        try:
            out[name] = fn(totals)
        except Absent:
            out[name] = None
    return out
