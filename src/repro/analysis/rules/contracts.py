"""R5 — dtype/shape contracts on public numpy kernels.

:func:`repro.utils.contracts.contract` declares, as string literals in
the decorator, which parameters of a kernel must be ``int64``/
``float64``/... arrays.  Because the declaration is a literal, this rule
can read it statically and

1. validate every declaration — specs parse, named parameters exist,
   specs are literals (a computed spec would be invisible to both this
   rule and code review);
2. require a contract on the designated hot kernels
   (:data:`REQUIRED_CONTRACTS`) — the functions whose payload crosses
   module boundaries and whose dtype bugs are silent;
3. cross-validate call sites: an argument built with an explicit dtype
   (``np.zeros(n, dtype=np.int32)``, ``x.astype("float32")``) passed
   where the contract demands a different dtype is reported at the call,
   before the runtime check would trip.

Call-site matching is by function name and is skipped when two
contracted functions share a name (ambiguous) — precision over recall.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule
from repro.analysis.source import SourceFile, attribute_chain
from repro.errors import ContractViolationError
from repro.utils.contracts import KNOWN_DTYPES, ArraySpec, parse_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

__all__ = ["ContractRule", "REQUIRED_CONTRACTS"]

#: rel-path suffix -> function/method names that must carry @contract.
REQUIRED_CONTRACTS: Dict[str, Tuple[str, ...]] = {
    "core/walks.py": (
        "step",
        "step_given",
        "walk_matrix",
        "segment_collisions",
        "segment_self_collisions",
    ),
    "core/bounds.py": ("compute_gamma",),
}

#: numpy constructors whose ``dtype=`` keyword states the result dtype.
_NP_CONSTRUCTORS = frozenset(
    {"array", "asarray", "zeros", "ones", "empty", "full", "arange", "full_like"}
)


@dataclass
class ContractDecl:
    """One ``@contract``-decorated function, as declared in source."""

    rel: str
    line: int
    qualname: str
    #: parameter names in order, ``self``/``cls`` stripped.
    params: Tuple[str, ...]
    specs: Dict[str, ArraySpec] = field(default_factory=dict)

    def spec_for(self, index: Optional[int], keyword: Optional[str]) -> Optional[ArraySpec]:
        name = keyword
        if name is None and index is not None and index < len(self.params):
            name = self.params[index]
        if name is None:
            return None
        return self.specs.get(name)


def _decorator_is_contract(node: ast.expr) -> Optional[ast.Call]:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id == "contract":
        return node
    if isinstance(func, ast.Attribute) and func.attr == "contract":
        return node
    return None


def _static_dtype(node: ast.expr) -> Optional[str]:
    """Canonical dtype name of a dtype expression, when it is a literal
    (``np.int64``, ``"float32"``, a bare imported ``int64``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in KNOWN_DTYPES else None
    chain = attribute_chain(node)
    if chain is not None and chain[-1] in KNOWN_DTYPES:
        return chain[-1]
    return None


def _argument_dtype(node: ast.expr) -> Optional[str]:
    """Statically known dtype of a call argument, if any.

    Recognises ``np.<ctor>(..., dtype=<literal>)`` and
    ``<expr>.astype(<literal>)``; anything else is unknown (None).
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "astype":
        if node.args:
            return _static_dtype(node.args[0])
        for kw in node.keywords:
            if kw.arg == "dtype":
                return _static_dtype(kw.value)
        return None
    chain = attribute_chain(func)
    name = chain[-1] if chain else (func.id if isinstance(func, ast.Name) else None)
    if name in _NP_CONSTRUCTORS:
        for kw in node.keywords:
            if kw.arg == "dtype":
                return _static_dtype(kw.value)
    return None


class ContractRule(Rule):
    id = "R5"
    name = "dtype-contracts"
    summary = (
        "public numpy kernels must declare dtype contracts via @contract; "
        "declarations must be valid and call sites must agree with them"
    )

    def __init__(self) -> None:
        #: function name -> decl, for unambiguous call-site matching.
        self.by_name: Dict[str, ContractDecl] = {}
        self.ambiguous: set = set()
        #: rel -> declaration-level findings collected during prepare.
        self._decl_findings: Dict[str, List[Finding]] = {}
        #: rel -> names of contracted functions defined in that file.
        self._declared_in: Dict[str, set] = {}

    # -- prepare: collect declarations project-wide ---------------------

    def prepare(self, project: "Project") -> None:
        for source in project.sources:
            for func, call in self._contracted_functions(source):
                self._collect(source, func, call)

    @staticmethod
    def _contracted_functions(
        source: SourceFile,
    ) -> Iterator["Tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.Call]"]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                call = _decorator_is_contract(decorator)
                if call is not None:
                    yield node, call
                    break

    def _collect(
        self,
        source: SourceFile,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        call: ast.Call,
    ) -> None:
        problems = self._decl_findings.setdefault(source.rel, [])
        args = func.args
        raw_params = [
            a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        params = tuple(
            p for i, p in enumerate(raw_params) if not (i == 0 and p in ("self", "cls"))
        )
        decl = ContractDecl(
            rel=source.rel, line=func.lineno, qualname=func.name, params=params
        )
        for kw in call.keywords:
            if kw.arg is None:
                problems.append(
                    source.finding(
                        self.id, call, "@contract specs must be written inline, not **-unpacked"
                    )
                )
                continue
            if not (isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str)):
                problems.append(
                    source.finding(
                        self.id,
                        kw.value,
                        f"@contract spec for {kw.arg!r} must be a string literal "
                        "so it can be checked statically",
                    )
                )
                continue
            try:
                spec = parse_spec(kw.arg, kw.value.value)
            except ContractViolationError as exc:
                problems.append(source.finding(self.id, kw.value, str(exc)))
                continue
            if kw.arg != "returns" and kw.arg not in params:
                problems.append(
                    source.finding(
                        self.id,
                        kw.value,
                        f"@contract on {func.name}() names unknown parameter "
                        f"{kw.arg!r} (has: {', '.join(params) or 'none'})",
                    )
                )
                continue
            decl.specs[kw.arg] = spec
        self._declared_in.setdefault(source.rel, set()).add(func.name)
        if func.name in self.by_name:
            self.ambiguous.add(func.name)
        else:
            self.by_name[func.name] = decl

    # -- check: per-file ------------------------------------------------

    def check(self, project: "Project", source: SourceFile) -> Iterator[Finding]:
        del project
        yield from self._decl_findings.get(source.rel, [])
        yield from self._check_required(source)
        yield from self._check_calls(source)

    def _check_required(self, source: SourceFile) -> Iterator[Finding]:
        for suffix, names in REQUIRED_CONTRACTS.items():
            if not source.rel.replace("\\", "/").endswith(suffix):
                continue
            declared = self._declared_in.get(source.rel, set())
            defined = {
                node.name: node
                for node in ast.walk(source.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for name in names:
                if name in defined and name not in declared:
                    yield source.finding(
                        self.id,
                        defined[name],
                        f"kernel `{name}` must declare its array dtypes with "
                        "@contract (repro.utils.contracts) — its payload crosses "
                        "module boundaries",
                    )

    def _check_calls(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            decl = self._decl_for_call(node)
            if decl is None:
                continue
            for index, arg in enumerate(node.args):
                yield from self._check_arg(source, node, decl, arg, index, None)
            for kw in node.keywords:
                if kw.arg is not None:
                    yield from self._check_arg(source, node, decl, kw.value, None, kw.arg)

    def _decl_for_call(self, node: ast.Call) -> Optional[ContractDecl]:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return None
        if name in self.ambiguous:
            return None
        return self.by_name.get(name)

    def _check_arg(
        self,
        source: SourceFile,
        call: ast.Call,
        decl: ContractDecl,
        arg: ast.expr,
        index: Optional[int],
        keyword: Optional[str],
    ) -> Iterator[Finding]:
        spec = decl.spec_for(index, keyword)
        if spec is None:
            return
        actual = _argument_dtype(arg)
        if actual is not None and actual != spec.dtype:
            label = keyword if keyword is not None else decl.params[index or 0]
            yield source.finding(
                self.id,
                arg,
                f"argument `{label}` of {decl.qualname}() is built as {actual} "
                f"but the kernel's contract requires {spec.describe()} "
                f"(declared at {decl.rel}:{decl.line})",
            )
