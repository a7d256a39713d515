"""GX5xx dtype-flow rules: uint64 wrap/upcast/hidden-copy discipline.

The uint64 kernel lattice (:mod:`repro.align.bitvector`, which reads one
2-bit code array from :func:`repro.genome.sequence.encode_bases` plus
window spans, no packed strings) is correct *because* specific
operations wrap modulo 2**64 — and silently wrong the moment wrapping
arithmetic, value-based upcasts, or hidden array copies appear anywhere
else on the hot path.  These rules propagate an abstract NumPy dtype
lattice through every function with the
:mod:`repro.analysis.dataflow` engine and hold the line:

* **GX501 uint64-wrap** — arithmetic (``+ - * **``, unary ``-``) on a
  uint64 operand anywhere outside the sanctioned wrapping sites declared
  (with reasons) in :data:`repro.analysis.config.DTYPE_ALLOWLIST`.
* **GX502 uint64-upcast** — uint64 mixed with a bare Python int/float in
  one operation: under NumPy's value-based casting such expressions can
  widen to float64 (or object), quietly discarding the low-bit semantics
  the kernels depend on.  The sanctioned spelling is ``np.uint64(...)``
  constants.
* **GX503 hidden-copy** — ``.astype``/fancy-indexing allocations inside
  functions reachable from a registered hot path
  (``ExtensionEngine.extend`` / ``extend_batch`` and the filter
  cascade's ``admit`` / ``admit_batch`` methods), where a copy per call
  is a real throughput tax.

The abstract value is ``(kind, is_array)``; ``kind`` is a NumPy dtype
name, ``"int"``/``"float"``/``"bool"``/``"str"`` for Python scalars,
``"dtype:<name>"`` for a dtype object used as a value, or ``"unknown"``.
uint64-ness enters through ``dtype=`` constructor keywords,
``np.uint64(...)`` casts, ``astype`` calls, ``NDArray[np.uint64]``
argument annotations, and module-level constants, and spreads through
operations; everything unrecognised falls to ``unknown``, so the rules
under-approximate and never flag code they cannot prove involves uint64.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.config import dtype_sanctioned_sites
from repro.analysis.dataflow import (
    AbstractDomain,
    DataflowEvent,
    EmitFunc,
    analyze_function,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import FunctionInfo, ProjectGraph
from repro.analysis.registry import ProjectContext, project_rule

DType = Tuple[str, bool]  # (kind, is_array)

UNKNOWN: DType = ("unknown", False)

#: NumPy dtype names the domain tracks as kinds.
_DTYPE_NAMES = frozenset(
    {
        "bool_",
        "float16",
        "float32",
        "float64",
        "int16",
        "int32",
        "int64",
        "int8",
        "intp",
        "uint16",
        "uint32",
        "uint64",
        "uint8",
        "uintp",
    }
)

#: ndarray constructors whose ``dtype=`` keyword fixes the result kind.
_ARRAY_CTORS = frozenset(
    {
        "arange",
        "array",
        "asarray",
        "empty",
        "empty_like",
        "frombuffer",
        "fromiter",
        "full",
        "full_like",
        "linspace",
        "ones",
        "ones_like",
        "zeros",
        "zeros_like",
    }
)

#: Elementwise combinators that keep their operands' kind.
_KIND_PRESERVING = frozenset(
    {"where", "minimum", "maximum", "abs", "copy", "ascontiguousarray"}
)

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow)

_OP_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Pow: "**",
    ast.LShift: "<<",
    ast.RShift: ">>",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
    ast.FloorDiv: "//",
    ast.Div: "/",
    ast.Mod: "%",
}

TAG_WRAP = "uint64-wrap"
TAG_UPCAST = "uint64-upcast"
TAG_ASTYPE = "hidden-copy-astype"
TAG_FANCY = "hidden-copy-fancy"

_HINT_WRAP = (
    "deliberate modular uint64 arithmetic belongs in a function sanctioned "
    "by repro.analysis.config.DTYPE_ALLOWLIST (with a reason); otherwise "
    "compute in int64 or Python ints"
)
_HINT_UPCAST = (
    "wrap the literal in np.uint64(...) so the operation stays in uint64 "
    "instead of widening under value-based casting"
)
_HINT_COPY = (
    "this allocates a copy on an extension hot path; hoist it out of the "
    "per-call path or sanction the function in "
    "repro.analysis.config.DTYPE_ALLOWLIST with a reason"
)


class DtypeDomain(AbstractDomain[DType]):
    """NumPy dtype lattice over one module's functions."""

    def __init__(
        self, module_env: Dict[str, DType], numpy_aliases: frozenset
    ) -> None:
        self._module_env = dict(module_env)
        self._numpy_aliases = numpy_aliases

    # ------------------------------------------------------------- lattice

    def unknown(self) -> DType:
        return UNKNOWN

    def join(self, left: DType, right: DType) -> DType:
        if left == right:
            return left
        if left[0] == right[0]:
            return (left[0], left[1] or right[1])
        return ("unknown", left[1] or right[1])

    def initial_environment(self, func: ast.AST) -> Dict[str, DType]:
        env = dict(self._module_env)
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                env[arg.arg] = self._annotation_dtype(arg.annotation)
            else:
                env[arg.arg] = UNKNOWN
        return env

    # ----------------------------------------------------------- evaluation

    def evaluate(self, env: Dict[str, DType], node: ast.expr, emit: EmitFunc) -> DType:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return ("bool", False)
            if isinstance(node.value, int):
                return ("int", False)
            if isinstance(node.value, float):
                return ("float", False)
            if isinstance(node.value, str):
                return ("str", False)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return env.get(node.id, UNKNOWN)
        if isinstance(node, ast.Attribute):
            base = self.evaluate(env, node.value, emit)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in self._numpy_aliases
                and node.attr in _DTYPE_NAMES
            ):
                return (f"dtype:{node.attr}", False)
            if node.attr == "T":
                return base
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._binop(env, node, emit)
        if isinstance(node, ast.UnaryOp):
            operand = self.evaluate(env, node.operand, emit)
            if isinstance(node.op, ast.USub) and operand[0] == "uint64":
                emit(
                    node,
                    TAG_WRAP,
                    "unary negation of a uint64 value wraps modulo 2**64",
                    _HINT_WRAP,
                )
            if isinstance(node.op, ast.Not):
                return ("bool", False)
            return operand
        if isinstance(node, ast.Compare):
            is_array = self.evaluate(env, node.left, emit)[1]
            for comparator in node.comparators:
                is_array = self.evaluate(env, comparator, emit)[1] or is_array
            return ("bool", is_array)
        if isinstance(node, ast.BoolOp):
            value = self.evaluate(env, node.values[0], emit)
            for expr in node.values[1:]:
                value = self.join(value, self.evaluate(env, expr, emit))
            return value
        if isinstance(node, ast.IfExp):
            self.evaluate(env, node.test, emit)
            return self.join(
                self.evaluate(env, node.body, emit),
                self.evaluate(env, node.orelse, emit),
            )
        if isinstance(node, ast.Call):
            return self._call(env, node, emit)
        if isinstance(node, ast.Subscript):
            return self._subscript(env, node, emit)
        if isinstance(node, ast.Starred):
            return self.evaluate(env, node.value, emit)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.evaluate(env, element, emit)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.evaluate(env, key, emit)
            for value in node.values:
                self.evaluate(env, value, emit)
            return UNKNOWN
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.evaluate(env, child, emit)
            return ("str", False)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            # Comprehension targets are unbound in this env; evaluating the
            # iterables still surfaces events in them.
            for generator in node.generators:
                self.evaluate(env, generator.iter, emit)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN  # opaque; its body is not this scope
        if isinstance(node, ast.NamedExpr):
            return self.evaluate(env, node.value, emit)
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.evaluate(env, part, emit)
            return ("slice", False)
        return UNKNOWN

    # --------------------------------------------------------------- pieces

    def _binop(self, env: Dict[str, DType], node: ast.BinOp, emit: EmitFunc) -> DType:
        left = self.evaluate(env, node.left, emit)
        right = self.evaluate(env, node.right, emit)
        symbol = _OP_SYMBOLS.get(type(node.op), type(node.op).__name__)
        kinds = (left[0], right[0])
        if "uint64" in kinds:
            other = right if left[0] == "uint64" else left
            if other[0] in ("int", "float"):
                emit(
                    node,
                    TAG_UPCAST,
                    f"uint64 operand mixed with a Python {other[0]} in "
                    f"'{symbol}': value-based casting may widen the result "
                    "to float64",
                    _HINT_UPCAST,
                )
            elif isinstance(node.op, _ARITH_OPS):
                detail = (
                    "both operands are uint64"
                    if left[0] == right[0] == "uint64"
                    else "mixed with a value of unproven dtype"
                )
                emit(
                    node,
                    TAG_WRAP,
                    f"uint64 '{symbol}' arithmetic wraps modulo 2**64 "
                    f"({detail})",
                    _HINT_WRAP,
                )
        is_array = left[1] or right[1]
        if left[0] == right[0]:
            return (left[0], is_array)
        numeric = {"int": 0, "bool": 0}
        if left[0] in numeric and right[0] not in ("unknown",):
            return (right[0], is_array)
        if right[0] in numeric and left[0] not in ("unknown",):
            return (left[0], is_array)
        return ("unknown", is_array)

    def _call(self, env: Dict[str, DType], node: ast.Call, emit: EmitFunc) -> DType:
        arg_values = [self.evaluate(env, arg, emit) for arg in node.args]
        keyword_values: Dict[Optional[str], DType] = {}
        for keyword in node.keywords:
            keyword_values[keyword.arg] = self.evaluate(env, keyword.value, emit)
        func = node.func

        # np.uint64(x) and friends: an explicit, visible cast.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._numpy_aliases
        ):
            attr = func.attr
            if attr in _DTYPE_NAMES:
                is_array = bool(arg_values and arg_values[0][1])
                return (attr.rstrip("_") if attr == "bool_" else attr, is_array)
            if attr in _ARRAY_CTORS:
                dtype_value = keyword_values.get("dtype", UNKNOWN)
                if dtype_value[0].startswith("dtype:"):
                    return (dtype_value[0][len("dtype:") :], True)
                if attr.endswith("_like") and arg_values:
                    return (arg_values[0][0], True)
                if attr in ("asarray", "array", "ascontiguousarray") and arg_values:
                    return (arg_values[0][0], True)
                return ("unknown", True)
            if attr in _KIND_PRESERVING:
                candidates = (
                    arg_values[1:] if attr == "where" and len(arg_values) > 1
                    else arg_values
                )
                if candidates:
                    value = candidates[0]
                    for other in candidates[1:]:
                        value = self.join(value, other)
                    return (value[0], True)
                return ("unknown", True)
            return UNKNOWN

        # method calls on values: astype is the one the rules care about.
        if isinstance(func, ast.Attribute):
            receiver = self.evaluate(env, func.value, emit)
            if func.attr == "astype":
                target = UNKNOWN
                if arg_values:
                    target = arg_values[0]
                elif "dtype" in keyword_values:
                    target = keyword_values["dtype"]
                kind = (
                    target[0][len("dtype:") :]
                    if target[0].startswith("dtype:")
                    else "unknown"
                )
                emit(
                    node,
                    TAG_ASTYPE,
                    f"astype({kind if kind != 'unknown' else '...'}) allocates "
                    "a converted copy of the array",
                    _HINT_COPY,
                )
                return (kind, True)
            if func.attr in ("copy", "reshape", "ravel", "flatten", "transpose"):
                return (receiver[0], receiver[1])
            if func.attr in ("sum", "min", "max", "prod"):
                return (receiver[0], True)
            if func.attr == "reduce" and isinstance(func.value, ast.Attribute):
                # np.bitwise_or.reduce(x) keeps x's kind.
                if arg_values:
                    return (arg_values[0][0], True)
            return UNKNOWN

        # bool(x), int(x), float(x) on anything; project calls are opaque.
        if isinstance(func, ast.Name):
            if func.id == "bool":
                return ("bool", False)
            if func.id == "int":
                return ("int", False)
            if func.id == "float":
                return ("float", False)
        if not isinstance(func, (ast.Name, ast.Attribute)):
            self.evaluate(env, func, emit)
        return UNKNOWN

    def _subscript(
        self, env: Dict[str, DType], node: ast.Subscript, emit: EmitFunc
    ) -> DType:
        base = self.evaluate(env, node.value, emit)
        index = node.slice
        fancy = False
        if isinstance(index, ast.Tuple):
            element_values = [
                self.evaluate(env, element, emit) for element in index.elts
            ]
            fancy = any(value[1] for value in element_values)
        else:
            index_value = self.evaluate(env, index, emit)
            fancy = index_value[1] or isinstance(index, ast.List)
        if fancy and base[1]:
            emit(
                node,
                TAG_FANCY,
                "fancy indexing with an array index gathers into a new array "
                "(a copy, unlike basic slicing)",
                _HINT_COPY,
            )
        if base[1]:
            return (base[0], True)
        return UNKNOWN

    def _annotation_dtype(self, annotation: ast.expr) -> DType:
        """Dtype from an argument annotation (``NDArray[np.uint64]`` etc.)."""
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = (
                head.attr if isinstance(head, ast.Attribute) else None
            ) or (head.id if isinstance(head, ast.Name) else None)
            if head_name == "NDArray":
                inner = annotation.slice
                if (
                    isinstance(inner, ast.Attribute)
                    and inner.attr in _DTYPE_NAMES
                ):
                    return (inner.attr, True)
                if isinstance(inner, ast.Name) and inner.id in _DTYPE_NAMES:
                    return (inner.id, True)
                return ("unknown", True)
        if isinstance(annotation, ast.Name):
            if annotation.id == "int":
                return ("int", False)
            if annotation.id == "float":
                return ("float", False)
            if annotation.id == "bool":
                return ("bool", False)
        if isinstance(annotation, ast.Attribute):
            if annotation.attr == "ndarray":
                return ("unknown", True)
            if annotation.attr in _DTYPE_NAMES:
                return (annotation.attr, False)
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            # String annotation: re-parse and recurse.
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return UNKNOWN
            return self._annotation_dtype(parsed)
        return UNKNOWN


# --------------------------------------------------------- shared analysis


def _numpy_aliases(graph: ProjectGraph, module: str) -> frozenset:
    symbols = graph.modules.get(module)
    if symbols is None:
        return frozenset({"np", "numpy"})
    aliases = {
        local
        for local, target in symbols.bindings.items()
        if target == "numpy"
    }
    return frozenset(aliases | {"np", "numpy"})


def _module_environment(
    graph: ProjectGraph, module: str, domain: DtypeDomain
) -> Dict[str, DType]:
    """Abstract dtypes of module-level constants (``_ONE = np.uint64(1)``)."""
    symbols = graph.modules.get(module)
    env: Dict[str, DType] = {}
    if symbols is None:
        return env

    def noop(
        node: ast.AST, tag: str, message: str, hint: str
    ) -> None:  # module-level events are out of scope for the GX5xx rules
        return None

    for stmt in symbols.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        dtype = domain.evaluate(env, value, noop)
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = dtype
    return env


def _dtype_events(
    ctx: ProjectContext,
) -> Dict[str, Tuple[FunctionInfo, List[DataflowEvent]]]:
    """Per-function dataflow events, computed once per lint invocation."""
    cached = ctx.cache.get("dtype-events")
    if cached is not None:
        return cached  # type: ignore[return-value]
    results: Dict[str, Tuple[FunctionInfo, List[DataflowEvent]]] = {}
    domains: Dict[str, DtypeDomain] = {}
    for qualname, info in sorted(ctx.graph.functions.items()):
        domain = domains.get(info.module)
        if domain is None:
            aliases = _numpy_aliases(ctx.graph, info.module)
            domain = DtypeDomain({}, aliases)
            module_env = _module_environment(ctx.graph, info.module, domain)
            domain = DtypeDomain(module_env, aliases)
            domains[info.module] = domain
        try:
            events = analyze_function(info.node, domain)
        except RecursionError:  # pathological nesting: skip, stay sound
            events = []
        results[qualname] = (info, events)
    ctx.cache["dtype-events"] = results
    return results


def _hot_path_closure(ctx: ProjectContext) -> Dict[str, str]:
    """Functions reachable from registered extension hot paths."""
    cached = ctx.cache.get("hot-path-closure")
    if cached is not None:
        return cached  # type: ignore[return-value]
    roots = [
        qualname
        for qualname, info in ctx.graph.functions.items()
        if info.class_name is not None
        and info.name in ("extend", "extend_batch", "admit", "admit_batch")
    ]
    closure = ctx.graph.reachable(roots)
    ctx.cache["hot-path-closure"] = closure
    return closure


# ----------------------------------------------------------------- rules


@project_rule(
    "uint64-wrap",
    "GX501",
    "uint64 wrapping arithmetic outside sanctioned kernel sites",
)
def check_uint64_wrap(ctx: ProjectContext) -> Iterator[Finding]:
    sanctioned = dtype_sanctioned_sites("uint64-wrap")
    for qualname, (info, events) in sorted(_dtype_events(ctx).items()):
        if qualname in sanctioned:
            continue
        for event in events:
            if event.tag != TAG_WRAP:
                continue
            yield ctx.finding(
                info.path,
                event.node,
                "uint64-wrap",
                "GX501",
                f"{event.message} in {qualname}, which is not a sanctioned "
                "wrapping site",
                event.hint,
            )


@project_rule(
    "uint64-upcast",
    "GX502",
    "uint64 mixed with Python scalars (implicit value-based upcast)",
)
def check_uint64_upcast(ctx: ProjectContext) -> Iterator[Finding]:
    sanctioned = dtype_sanctioned_sites("uint64-upcast")
    for qualname, (info, events) in sorted(_dtype_events(ctx).items()):
        if qualname in sanctioned:
            continue
        for event in events:
            if event.tag != TAG_UPCAST:
                continue
            yield ctx.finding(
                info.path,
                event.node,
                "uint64-upcast",
                "GX502",
                f"{event.message} (in {qualname})",
                event.hint,
            )


@project_rule(
    "hidden-copy",
    "GX503",
    "astype/fancy-indexing copies in extension hot paths",
)
def check_hidden_copy(ctx: ProjectContext) -> Iterator[Finding]:
    sanctioned = dtype_sanctioned_sites("hidden-copy")
    closure = _hot_path_closure(ctx)
    for qualname, (info, events) in sorted(_dtype_events(ctx).items()):
        if qualname not in closure or qualname in sanctioned:
            continue
        root = closure[qualname]
        for event in events:
            if event.tag not in (TAG_ASTYPE, TAG_FANCY):
                continue
            yield ctx.finding(
                info.path,
                event.node,
                "hidden-copy",
                "GX503",
                f"{event.message}; {qualname} is reachable from the "
                f"extension hot path {root}",
                event.hint,
            )
