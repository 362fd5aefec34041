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

Expressions evaluate to real arrays over batches of chart points.  Every
weight, parsed or any other callable, becomes numbers through one checked
helper, weight_values: None is zero, and a result that is not (M,) finite
floats raises ValueError naming the weight and the first bad point.  Its
twin potential_values, for the weighted sampler's proposals, also lets +inf
through, where e^{-w} = 0.  Weights add in one place, weight_sum: a Gibbs
potential such as psi + k psi' or psi + t f is formed there once and
handed on as a single weight.
is_radial_weight tells from a weight's form alone whether it depends on the
moduli only; quadrature takes its diagonal Gram route on that answer.
factor_weights tells, also from the form alone, whether a weight on a
product chart is a sum psi = sum_f psi_f(z_f) of one-factor terms, and
hands back each psi_f as a weight on its factor's own chart; quadrature
takes its factored Gram route on that answer.

Purely radial expressions (only r2 / r2_<i>) also have the complex Hessian
H_ij = delta_ij u_i + conj(z_i) z_j u_ij used by the curvature-side
routines, with u_i, u_ij the derivatives in t_i = |z_i|^2.  It comes from
one forward-mode walk of the syntax tree: each node carries (u, u_i, u_ij)
and each operator applies the chain rule (Griewank and Walther, Evaluating
Derivatives, 2008).  complex_hessian takes weight forms as weight_values
does, so the Hessian of a weight_sum is the sum of its terms'.  Expressions
containing re_/im_ are value-only: asking for their Hessian raises, since
|z_i|^2 couples re_i and im_i and a term-by-term derivative would be wrong.
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
    "weight_values",
    "potential_values",
    "weight_sum",
    "is_radial_weight",
    "factor_weights",
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


def _variables(node: Node) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset([node.name])
    if isinstance(node, BinOp):
        return _variables(node.left) | _variables(node.right)
    if isinstance(node, Pow):
        return _variables(node.base)
    if isinstance(node, Call):
        return _variables(node.arg)
    return frozenset()


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
        self.variables = _variables(ast)
        self._top_factor = max((int(v.split("_")[1]) for v in self.variables if "_" in v), default=1)

    def __repr__(self) -> str:
        return f"WeightExpr({self.source!r})"

    def validate_for_dim(self, dim: int) -> None:
        if dim > 1 and "r2" in self.variables:
            raise ValueError(
                f"{self.source!r}: bare 'r2' is ambiguous on a {dim}-factor chart, use r2_<i>"
            )
        if self._top_factor > dim:
            raise ValueError(
                f"{self.source!r}: factor index {self._top_factor} exceeds chart dimension {dim}"
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

        return _values(self.ast, lookup, Z.shape[0])

    __call__ = evaluate


def _values(node: Node, lookup, m: int) -> np.ndarray:
    """Values of a node at m points; lookup(name) gives a variable's (m,) values.

    Module level: a nested function that calls itself is a reference cycle,
    which keeps the points alive until a gc pass.
    """
    if isinstance(node, Num):
        return np.full(m, node.value)
    if isinstance(node, Var):
        return lookup(node.name)
    if isinstance(node, BinOp):
        a, b = _values(node.left, lookup, m), _values(node.right, lookup, m)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    if isinstance(node, Pow):
        return _values(node.base, lookup, m) ** node.exponent
    if isinstance(node, Call):
        a = _values(node.arg, lookup, m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.log(a) if node.func == "log" else np.exp(a)
    raise TypeError(f"unknown node {node!r}")


def parse_weight(source: str) -> WeightExpr:
    """Parse a weight expression; raises ParseError with the offending column."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0, source)
    return WeightExpr(source, _Parser(source).parse())


def weight_values(weight, points, first: int = 0) -> np.ndarray:
    """Values of a weight callable at M chart points, checked: (M,) finite floats.

    None is the zero weight.  A result of another shape, or with a value
    that is not finite, raises ValueError naming the weight and the first
    bad point, numbered from `first` (a caller that evaluates its points in
    slabs passes the index of the slab's first point).  numpy's
    floating-point warnings are off while the weight runs, so a non-finite
    value is reported once, by that check.
    """
    return _checked_values(weight, points, np.isfinite, first)


def potential_values(weight, points) -> np.ndarray:
    """Values of a Gibbs potential w at M chart points: weight_values, with +inf allowed.

    e^{-w} = 0 where w = +inf, so such a point has density 0 and is a valid
    value of a potential; NaN and -inf still raise, naming the weight and
    the first bad point.  A weight_sum lets +inf through its terms too.
    """
    return _checked_values(weight, points, _below_inf)


def _below_inf(vals: np.ndarray) -> np.ndarray:
    return vals > -np.inf  # false at NaN and at -inf


def _checked_values(weight, points, ok, first: int = 0) -> np.ndarray:
    """(M,) float values of the weight at the points, raising where ok(values) is false."""
    Z = np.asarray(points)
    if weight is None:
        return np.zeros(Z.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals = weight.sum_values(Z, ok) if isinstance(weight, _WeightSum) else weight(Z)
        vals = np.asarray(vals, dtype=float)
    if vals.shape != (Z.shape[0],):
        raise ValueError(f"weight {weight!r} must return shape ({Z.shape[0]},), got {vals.shape}")
    good = ok(vals)
    if not good.all():
        i = int(np.argmin(good))
        raise ValueError(
            f"weight {weight!r} is {vals[i]} at point {first + i}, z = {np.atleast_1d(Z[i]).tolist()}"
        )
    return vals


class _WeightSum:
    """sum_i c_i f_i over live (c_i, f_i) terms, each through weight_values."""

    def __init__(self, terms):
        self.terms = terms

    def __call__(self, points) -> np.ndarray:
        return self.sum_values(np.asarray(points), np.isfinite)

    def sum_values(self, points: np.ndarray, ok) -> np.ndarray:
        return sum(c * _checked_values(f, points, ok) for c, f in self.terms)

    def __repr__(self) -> str:
        return " + ".join(f"{c:g}*{f!r}" for c, f in self.terms)


def weight_sum(*terms):
    """The weight sum_i c_i f_i of (coefficient, weight) pairs, or None.

    A term (c, sum_j c_j f_j) joins as the terms (c c_j, f_j), and one with
    weight None or coefficient 0 is not live.  No live term gives None; one
    live term with coefficient 1 gives that weight itself.  Otherwise each
    term is taken through weight_values: a term that is not finite raises
    naming it, and a sum that is not finite names every term.
    """
    flat = [(c * cj, fj) for c, f in terms for cj, fj in (f.terms if isinstance(f, _WeightSum) else [(1.0, f)])]
    live = [(c, f) for c, f in flat if f is not None and c != 0.0]
    if not live:
        return None
    if len(live) == 1 and live[0][0] == 1.0:
        return live[0][1]
    return _WeightSum(live)


def is_radial_weight(weight) -> bool:
    """Whether the weight is known, from its form, to depend on the moduli |z_i| alone.

    None, a WeightExpr in r2 / r2_<i> only, and a weight_sum of such terms
    are; any other callable is not, whatever its values.
    """
    if weight is None:
        return True
    if isinstance(weight, WeightExpr):
        return all(v == "r2" or v.startswith("r2_") for v in weight.variables)
    if isinstance(weight, _WeightSum):
        return all(is_radial_weight(f) for _, f in weight.terms)
    return False


def factor_weights(weight, dim: int) -> tuple | None:
    """psi = sum_f psi_f(z_f) on a dim-factor chart as (psi_1, ..., psi_dim), or None.

    A weight separates when it is None, a WeightExpr whose top-level + / -
    terms each read the variables of one factor at most, or a weight_sum of
    such weights; any other callable, a term that reads two factors, bare
    r2 on a product chart or a factor beyond dim does not.  psi_f is the
    weight_sum of the terms on factor f, each read on a one-factor chart
    (r2_f as r2_1), or None if no term reads it.  A term that reads no
    factor is a constant; it joins psi_1, so e^{-psi} = prod_f e^{-psi_f}.
    """
    terms = _factor_terms(weight)
    if terms is None or any((i or 1) > dim for _, i, _ in terms):
        return None
    if dim > 1 and any("r2" in _variables(node) for _, _, node in terms):
        return None
    on_own_chart = [(c, i or 1, _on_factor_1(node)) for c, i, node in terms]
    return tuple(
        weight_sum(*[(c, WeightExpr(_source(node), node)) for c, i, node in on_own_chart if i == f])
        for f in range(1, dim + 1)
    )


def _factor_terms(weight) -> list[tuple[float, int | None, Node]] | None:
    """(coefficient, factor read or None, node) for the additive terms of a weight, or None."""
    if weight is None:
        return []
    if isinstance(weight, _WeightSum):
        out = []
        for c, f in weight.terms:
            terms = _factor_terms(f)
            if terms is None:
                return None
            out += [(c * s, i, node) for s, i, node in terms]
        return out
    if not isinstance(weight, WeightExpr):
        return None
    out = []
    for sign, node in _signed_terms(weight.ast, 1.0):
        factors = {int(v.partition("_")[2] or 1) for v in _variables(node)}
        if len(factors) > 1:
            return None
        out.append((sign, factors.pop() if factors else None, node))
    return out


def _signed_terms(node: Node, sign: float):
    """(sign, term) of a node's top-level sum: a - (b + c) has terms a, -b and -c."""
    if isinstance(node, BinOp) and node.op in "+-":
        yield from _signed_terms(node.left, sign)
        yield from _signed_terms(node.right, sign if node.op == "+" else -sign)
    else:
        yield sign, node


def _on_factor_1(node: Node) -> Node:
    """The node with every variable read on factor 1: r2_2 -> r2_1, re_3 -> re_1."""
    if isinstance(node, Var):
        return Var(node.name.partition("_")[0] + "_1")
    if isinstance(node, BinOp):
        return BinOp(node.op, _on_factor_1(node.left), _on_factor_1(node.right))
    if isinstance(node, Pow):
        return Pow(_on_factor_1(node.base), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _on_factor_1(node.arg))
    return node


def _source(node: Node) -> str:
    """An expression for the node, fully parenthesised: the source of a term taken apart."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, BinOp):
        return f"({_source(node.left)} {node.op} {_source(node.right)})"
    if isinstance(node, Pow):
        return f"{_source(node.base)}^{node.exponent}"
    return f"{node.func}({_source(node.arg)})"


# ---------------------------------------------------------------------------
# complex Hessian by forward-mode evaluation


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[i, j] = x_i y_j for (n, M) arrays, point axis last."""
    return x[:, None] * y[None, :]


def _jet(node: Node, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, du/dt_i, d^2u/dt_i dt_j) of a radial node at t = (|z_i|^2), shape (n, M).

    The point axis is last: shapes (M,), (n, M), (n, n, M), where
    derivatives that are the same at every point (those of numbers and
    variables) keep a point axis of length 1.  Products and quotients apply
    their rule to the first derivative again; log, exp and integer powers
    go through the chain rule for f(a).
    """
    n, M = t.shape
    g, h = np.zeros((n, 1)), np.zeros((n, n, 1))
    if isinstance(node, Num):
        return np.full(M, node.value), g, h
    if isinstance(node, Var):
        i = int(node.name.partition("_")[2] or 1) - 1
        g[i] = 1.0
        return t[i], g, h
    if isinstance(node, BinOp):
        a, ga, ha = _jet(node.left, t)
        b, gb, hb = _jet(node.right, t)
        if node.op == "+":
            return a + b, ga + gb, ha + hb
        if node.op == "-":
            return a - b, ga - gb, ha - hb
        if node.op == "*":
            return a * b, ga * b + a * gb, (ha * b + _outer(ga, gb)) + (_outer(gb, ga) + a * hb)
        with np.errstate(divide="ignore", invalid="ignore"):
            num, den = ga * b - a * gb, b**2  # (a/b)' = num / den
            dnum = (ha * b + _outer(ga, gb)) - (_outer(gb, ga) + a * hb)
            return a / b, num / den, (dnum * den - _outer(num, 2 * b * gb)) / den**2
    a, ga, ha = _jet(node.base if isinstance(node, Pow) else node.arg, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(node, Pow):
            p = node.exponent
            u = a**p
            f1 = p * a ** (p - 1) if p >= 1 else np.zeros_like(a)
            f2 = p * (p - 1) * a ** (p - 2) if p >= 2 else np.zeros_like(a)
        elif node.func == "log":
            u, f1, f2 = np.log(a), 1.0 / a, -1.0 / a**2
        else:
            u = f1 = f2 = np.exp(a)
        return u, f1 * ga, _outer(ga, f2 * ga) + f1 * ha


def complex_hessian(weight, points: np.ndarray) -> np.ndarray:
    """Complex Hessian d^2 u / dz_i dzbar_j of a radial weight form, (M, n, n) Hermitian.

    None is zero and a weight_sum sums its terms' Hessians.  For u given in
    the radial variables t_i = |z_i|^2 the chain rule gives H_ij = delta_ij *
    du/dt_i + conj(z_i) z_j * d^2u/dt_i dt_j, both derivatives from one
    forward-mode walk (_jet).  A form that is not is_radial_weight, or a
    non-finite entry, raises ValueError naming the weight (and the point).
    """
    Z = np.asarray(points, dtype=complex)
    if Z.ndim == 1:
        Z = Z[:, None]
    if not is_radial_weight(weight):
        raise ValueError(f"weight {weight!r} has no analytic complex Hessian (not r2 / r2_<i> only)")
    if weight is None:
        return np.zeros((Z.shape[0], Z.shape[1], Z.shape[1]), dtype=complex)
    if isinstance(weight, _WeightSum):
        return sum(c * complex_hessian(f, Z) for c, f in weight.terms)
    weight.validate_for_dim(Z.shape[1])
    i = np.arange(Z.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is refused below
        _, g, h = _jet(weight.ast, np.abs(Z.T) ** 2)
        H = (Z.conj()[:, :, None] * Z[:, None, :]) * h.transpose(2, 0, 1)
        H[:, i, i] += g.T
    bad = ~np.isfinite(H).all(axis=(1, 2))
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"weight {weight!r} has a non-finite Hessian at point {j}, z = {Z[j].tolist()}")
    return H
