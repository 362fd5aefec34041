"""Weight-expression language for radial and Cartesian chart weights.

Grammar (EBNF):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" int)?
    base   := number | ident | "(" expr ")" | ("log" | "exp") "(" expr ")"

Identifiers refer to chart coordinates of a point z = (z_1, ..., z_n):

    r2       |z_1|^2 on single-factor charts (alias for r2_1, rejected for n > 1)
    r2_<i>   |z_i|^2, 1-based factor index
    re_<i>   Re z_i
    im_<i>   Im z_i

Expressions evaluate to real arrays over batches of chart points.  Purely
radial expressions (only r2 / r2_<i>) additionally support symbolic
differentiation with respect to the r2 variables, which yields the complex
Hessian H_ij = delta_ij u_i + conj(z_i) z_j u_ij used by the curvature-side
routines.  Expressions containing re_/im_ are value-only: asking for their
Hessian raises, since |z_i|^2 couples re_i and im_i and a term-by-term
derivative would be wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ParseError",
    "WeightExpr",
    "parse_weight",
    "complex_hessian",
]


class ParseError(ValueError):
    """Raised for syntax or name errors in a weight expression."""

    def __init__(self, message: str, position: int, source: str):
        super().__init__(f"{message} at column {position + 1} in {source!r}")
        self.position = position
        self.source = source


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # log | exp
    arg: "Node"


Node = Union[Num, Var, BinOp, Pow, Call]

_IDENT_RE = re.compile(r"^(r2|r2_[1-9][0-9]*|re_[1-9][0-9]*|im_[1-9][0-9]*)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at, source)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos, self.source)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos, self.source)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "num" or not re.fullmatch(r"[0-9]+", text):
                raise ParseError("exponent must be an integer literal", pos, self.source)
            self.advance()
            node = Pow(node, int(text))
        return node

    def base(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in ("log", "exp"):
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if _IDENT_RE.match(text):
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", pos, self.source)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos, self.source)


# ---------------------------------------------------------------------------
# smart constructors with constant folding, used by the differentiator


def _add(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return BinOp("-", a, b)


def _mul(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def _div(a: Node, b: Node) -> Node:
    if isinstance(a, Num) and a.value == 0.0:
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("/", a, b)


def _pow(a: Node, n: int) -> Node:
    if n == 0:
        return Num(1.0)
    if n == 1:
        return a
    if isinstance(a, Num):
        return Num(a.value**n)
    return Pow(a, n)


def _diff(node: Node, var: str) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.name == var else Num(0.0)
    if isinstance(node, BinOp):
        da, db = _diff(node.left, var), _diff(node.right, var)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        # quotient rule
        num = _sub(_mul(da, node.right), _mul(node.left, db))
        return _div(num, _pow(node.right, 2))
    if isinstance(node, Pow):
        inner = _diff(node.base, var)
        return _mul(_mul(Num(float(node.exponent)), _pow(node.base, node.exponent - 1)), inner)
    if isinstance(node, Call):
        inner = _diff(node.arg, var)
        if node.func == "log":
            return _div(inner, node.arg)
        return _mul(Call("exp", node.arg), inner)
    raise TypeError(f"unknown node {node!r}")


def _collect_vars(node: Node, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Pow):
        _collect_vars(node.base, out)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out)


def _rename_var(node: Node, old: str, new: str) -> Node:
    if isinstance(node, Var):
        return Var(new) if node.name == old else node
    if isinstance(node, BinOp):
        return BinOp(node.op, _rename_var(node.left, old, new), _rename_var(node.right, old, new))
    if isinstance(node, Pow):
        return Pow(_rename_var(node.base, old, new), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _rename_var(node.arg, old, new))
    return node


# ---------------------------------------------------------------------------
# public wrapper


class WeightExpr:
    """A parsed weight expression, evaluated over batches of chart points.

    Calling the expression evaluates it, so it can stand wherever a weight
    callable points -> (M,) values is expected.
    """

    def __init__(self, source: str, ast: Node):
        self.source = source
        self.ast = ast
        self.variables = frozenset(self._vars())
        self._deriv_cache: dict[str, "WeightExpr"] = {}

    def _vars(self) -> set[str]:
        out: set[str] = set()
        _collect_vars(self.ast, out)
        return out

    def __repr__(self) -> str:
        return f"WeightExpr({self.source!r})"

    def __getstate__(self):
        return {"source": self.source, "ast": self.ast}

    def __setstate__(self, state):
        self.__init__(state["source"], state["ast"])

    @property
    def is_radial(self) -> bool:
        return all(v == "r2" or v.startswith("r2_") for v in self.variables)

    def max_factor_index(self) -> int:
        top = 0
        for v in self.variables:
            if "_" in v:
                top = max(top, int(v.split("_")[1]))
            elif v == "r2":
                top = max(top, 1)
        return top

    def validate_for_dim(self, dim: int) -> None:
        if dim > 1 and "r2" in self.variables:
            raise ValueError(
                f"{self.source!r}: bare 'r2' is ambiguous on a {dim}-factor chart, use r2_<i>"
            )
        top = self.max_factor_index()
        if top > dim:
            raise ValueError(
                f"{self.source!r}: factor index {top} exceeds chart dimension {dim}"
            )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (M, n) or (M,); returns (M,) floats."""
        Z = np.asarray(points, dtype=complex)
        if Z.ndim == 1:
            Z = Z[:, None]
        self.validate_for_dim(Z.shape[1])
        env: dict[str, np.ndarray] = {}

        def lookup(name: str) -> np.ndarray:
            if name not in env:
                if name == "r2":
                    env[name] = np.abs(Z[:, 0]) ** 2
                else:
                    tag, idx = name.split("_")
                    col = Z[:, int(idx) - 1]
                    if tag == "r2":
                        env[name] = np.abs(col) ** 2
                    elif tag == "re":
                        env[name] = col.real.copy()
                    else:
                        env[name] = col.imag.copy()
            return env[name]

        def ev(node: Node) -> np.ndarray:
            if isinstance(node, Num):
                return np.full(Z.shape[0], node.value)
            if isinstance(node, Var):
                return lookup(node.name)
            if isinstance(node, BinOp):
                a, b = ev(node.left), ev(node.right)
                if node.op == "+":
                    return a + b
                if node.op == "-":
                    return a - b
                if node.op == "*":
                    return a * b
                with np.errstate(divide="ignore", invalid="ignore"):
                    return a / b
            if isinstance(node, Pow):
                return ev(node.base) ** node.exponent
            if isinstance(node, Call):
                a = ev(node.arg)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    return np.log(a) if node.func == "log" else np.exp(a)
            raise TypeError(f"unknown node {node!r}")

        return ev(self.ast)

    __call__ = evaluate

    def value_at(self, z) -> float:
        pt = np.atleast_1d(np.asarray(z, dtype=complex))
        return float(self.evaluate(pt[None, :])[0])

    def derivative(self, var: str) -> "WeightExpr":
        """Symbolic d/d(var) for radial variables r2 / r2_<i>."""
        if not self.is_radial:
            raise ValueError(
                f"{self.source!r} uses re_/im_ variables and has no analytic radial derivative"
            )
        if var not in self._deriv_cache:
            ast = _diff(self.ast, var)
            self._deriv_cache[var] = WeightExpr(f"d({self.source})/d{var}", ast)
        return self._deriv_cache[var]


def parse_weight(source: str) -> WeightExpr:
    """Parse a weight expression; raises ParseError with the offending column."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0, source)
    return WeightExpr(source, _Parser(source).parse())


def complex_hessian(expr: WeightExpr, points: np.ndarray) -> np.ndarray:
    """Complex Hessian d^2 u / dz_i dzbar_j of a radial expression.

    For u given in the radial variables t_i = |z_i|^2 the chain rule gives
    H_ij = delta_ij * du/dt_i + conj(z_i) z_j * d^2u/dt_i dt_j.
    Returns an (M, n, n) Hermitian array.
    """
    if not expr.is_radial:
        raise ValueError(
            f"{expr.source!r} has no analytic complex Hessian (uses re_<i>/im_<i>)"
        )
    Z = np.asarray(points, dtype=complex)
    if Z.ndim == 1:
        Z = Z[:, None]
    M, n = Z.shape
    expr.validate_for_dim(n)
    if n == 1 and "r2" in expr.variables:
        # canonicalize the bare alias so mixed 'r2'/'r2_1' differentiates correctly
        expr = WeightExpr(expr.source, _rename_var(expr.ast, "r2", "r2_1"))
    names = [f"r2_{i + 1}" for i in range(n)]
    H = np.zeros((M, n, n), dtype=complex)
    firsts = [expr.derivative(names[i]) for i in range(n)]
    for i in range(n):
        H[:, i, i] += firsts[i].evaluate(Z)
        for j in range(n):
            second = firsts[i].derivative(names[j]).evaluate(Z)
            H[:, i, j] += np.conj(Z[:, i]) * Z[:, j] * second
    return H
