"""Scalar expression language for coefficient fields.

Expressions are written over coordinates ``q1 .. qd`` plus the reaction
variable ``u``, with ``+ - * / ^``, unary minus, parentheses and the
function set sin, cos, exp, log, sqrt, tanh, abs, sign, min, max (min
and max take two arguments).  Parsing is a small Pratt parser; syntax
errors carry the byte offset and the token set that would have been
accepted.  `q_field` is the one check that a field stays within q1..qd,
and references u only where its caller allows it.

The AST supports four consumers:

* a code generator, `compiled_all`, that emits one straight-line numpy
  function per stack of fields, cached per stack, with each sub-expression
  the fields share computed once.  `evaluate_all` runs it under a
  floating-point trap, one per call, and `evaluate` is its one-field
  case.  The step loops (exit kernel, stored path) and the action solves
  own the trap instead: they call the function unchecked, under one
  `run_trapped` scope per loop or per objective call, and re-run what
  traps on its checked twin, evaluate_all over its fields;
* a checked tree-walking evaluator, `eval_field`, the reference the
  generated code is tested against; it runs only when that code traps,
  and then reports the domain violation with the offending sub-expression;
* a symbolic derivative of every tree, cached per coordinate: the chain,
  product, quotient and power rules, with abs, min and max differentiated
  piecewise through sign;
* a canonical printer whose output re-parses to the identical tree (for
  a derivative, to one of equal value: its negative constants re-parse
  as negations).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError

# AST nodes are plain tuples:
#   ('num', float)
#   ('var', name, index)      index is 0-based for q<k>, -1 for 'u'
#   ('neg', node)
#   ('bin', op, left, right)  op in '+-*/^'
#   ('call', fname, (args...))

_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "tanh": 1,
    "abs": 1,
    "sign": 1,
    "min": 2,
    "max": 2,
}

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "sign": np.sign,
    "min": np.minimum,
    "max": np.maximum,
}

_VAR_RE = re.compile(r"^q([1-9][0-9]*)$")


class ExpressionSyntaxError(ConfigError):
    """Raised on malformed source; carries offset and expected token set."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class EvalDomainError(NumericalError):
    """A sub-expression was evaluated outside its domain."""

    def __init__(self, message: str, subexpr: str):
        self.subexpr = subexpr
        super().__init__(f"{message} in sub-expression '{subexpr}'")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # skip whitespace-only tail
            if src[pos:].strip() == "":
                break
            bad = len(src) - len(src[pos:].lstrip())
            raise ExpressionSyntaxError(
                f"unrecognized character {src[bad]!r}", bad,
                expected=("number", "identifier", "operator"))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# binding powers: additive 10, multiplicative 20, unary minus 25, power 30
_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"unexpected token {tok[1]!r}" if tok[0] != "end"
                else "unexpected end of input",
                tok[2], expected=(kind,))
        return self.advance()

    def parse(self):
        node = self.expression(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(
                f"unexpected token {tok[1]!r}", tok[2],
                expected=("operator", "end of input"))
        return node

    def expression(self, rbp):
        node = self.nud()
        while _LBP.get(self.peek()[0], -1) > rbp:
            node = self.led(node)
        return node

    def led(self, left):
        op = self.advance()[0]
        # '^' associates to the right; the others to the left
        rbp = _LBP[op] - 1 if op == "^" else _LBP[op]
        return ("bin", op, left, self.expression(rbp))

    def nud(self):
        tok = self.advance()
        kind, text, off = tok
        if kind == "num":
            return ("num", float(text))
        if kind == "name":
            if self.peek()[0] == "(":
                return self.call(text, off)
            return self.variable(text, off)
        if kind == "-":
            return ("neg", self.expression(_UNARY_BP))
        if kind == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        raise ExpressionSyntaxError(
            f"unexpected token {text!r}" if kind != "end"
            else "unexpected end of input",
            off, expected=("number", "identifier", "unary -", "("))

    def variable(self, text, off):
        if text == "u":
            return ("var", "u", -1)
        m = _VAR_RE.match(text)
        if m:
            return ("var", text, int(m.group(1)) - 1)
        if text in _FUNCTIONS:
            raise ExpressionSyntaxError(
                f"function {text!r} requires arguments", off, expected=("(",))
        raise ExpressionSyntaxError(
            f"unknown identifier {text!r}", off,
            expected=("q<k>", "u", "function name"))

    def call(self, fname, off):
        if fname not in _FUNCTIONS:
            raise ExpressionSyntaxError(
                f"unknown function {fname!r}", off,
                expected=tuple(sorted(_FUNCTIONS)))
        self.expect("(")
        args = [self.expression(0)]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        nargs = _FUNCTIONS[fname]
        if len(args) != nargs:
            raise ExpressionSyntaxError(
                f"function {fname!r} takes {nargs} argument(s), got {len(args)}",
                off)
        return ("call", fname, tuple(args))


@dataclass(frozen=True)
class ScalarExpr:
    """Parsed scalar field.  Wraps the AST root and the original source."""

    root: tuple
    source: str

    def __str__(self) -> str:
        return to_string(self.root)

    @property
    def max_q_index(self) -> int:
        """Highest 1-based q index referenced, 0 if none."""
        return max((i + 1 for _, n, i in _iter_vars(self.root) if i >= 0),
                   default=0)

    @property
    def uses_u(self) -> bool:
        return any(i == -1 for _, _, i in _iter_vars(self.root))

    def derivative(self, q_index: int) -> "ScalarExpr":
        """Symbolic d/dq_{q_index+1}, cached."""
        cache = self._derivatives
        if q_index not in cache:
            node = _simplify(_diff(self.root, q_index))
            cache[q_index] = ScalarExpr(node, to_string(node))
        return cache[q_index]

    @cached_property
    def _derivatives(self) -> dict:
        return {}


def parse_expression(src: str) -> ScalarExpr:
    """Parse source into a ScalarExpr.  Raises ExpressionSyntaxError."""
    if not isinstance(src, str):
        raise ExpressionSyntaxError("expression source must be a string", 0)
    root = _Parser(src).parse()
    return ScalarExpr(root, src)


def q_field(src, d: int, what: str, allow_u: bool = False) -> ScalarExpr:
    """src, a ScalarExpr or its source, as a field of q1..qd (and of u
    when allow_u): ConfigError naming `what` if it reaches beyond them."""
    f = src if isinstance(src, ScalarExpr) else parse_expression(src)
    if f.uses_u and not allow_u:
        raise ConfigError(f"{what} may not reference u")
    if f.max_q_index > d:
        raise ConfigError(f"{what} references q{f.max_q_index} but d = {d}")
    return f


def _iter_vars(node):
    kind = node[0]
    if kind == "var":
        yield node
    elif kind == "neg":
        yield from _iter_vars(node[1])
    elif kind == "bin":
        yield from _iter_vars(node[2])
        yield from _iter_vars(node[3])
    elif kind == "call":
        for a in node[2]:
            yield from _iter_vars(a)


# ---------------------------------------------------------------------------
# evaluation

def eval_node(node, values, u=None):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        if node[2] == -1:
            if u is None:
                raise EvalDomainError("variable 'u' has no value", "u")
            return u
        idx = node[2]
        if idx >= values.shape[-1]:
            raise EvalDomainError(
                f"variable {node[1]!r} exceeds dimension {values.shape[-1]}",
                node[1])
        return values[..., idx]
    if kind == "neg":
        return -eval_node(node[1], values, u)
    if kind == "bin":
        op = node[1]
        a = eval_node(node[2], values, u)
        b = eval_node(node[3], values, u)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if np.any(b == 0):
                raise EvalDomainError("division by zero", to_string(node))
            return a / b
        # power: reject negative base with non-integer exponent and 0^negative
        bf = np.asarray(b, dtype=float)
        int_exp = np.all(bf == np.floor(bf))
        if not int_exp and np.any(np.asarray(a) < 0):
            raise EvalDomainError(
                "negative base with non-integer exponent", to_string(node))
        if np.any((np.asarray(a) == 0) & (bf < 0)):
            raise EvalDomainError("zero base with negative exponent",
                                  to_string(node))
        return np.power(a, b)
    if kind == "call":
        fname = node[1]
        args = [eval_node(a, values, u) for a in node[2]]
        if fname == "log" and np.any(np.asarray(args[0]) <= 0):
            raise EvalDomainError("log of non-positive value", to_string(node))
        if fname == "sqrt" and np.any(np.asarray(args[0]) < 0):
            raise EvalDomainError("sqrt of negative value", to_string(node))
        return _NUMPY_FUNCS[fname](*args)
    raise AssertionError(f"bad node {node!r}")


def eval_field(f: ScalarExpr, points: np.ndarray, u=None) -> np.ndarray:
    """Checked evaluation of f on points with shape (..., d).

    Returns an array broadcast to the point shape (constants are expanded).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim < 1:
        raise ConfigError("points must have shape (..., d)")
    out = eval_node(f.root, points, u)
    return np.broadcast_to(np.asarray(out, dtype=float),
                           points.shape[:-1]).copy()


# A trapped floating-point operation, a coordinate beyond the point
# dimension, or a missing u: the checked walker decides what it was.
_FALLBACK = (ArithmeticError, LookupError, TypeError)


def evaluate(f: ScalarExpr, points: np.ndarray, u=None) -> np.ndarray:
    """Values of f on points (..., d), shape points.shape[:-1]: evaluate_all
    of the one field."""
    return evaluate_all((f,), points, u)[..., 0]


@cache
def _generated(fs: tuple) -> Callable:
    env = {"_np": np, "inf": np.inf, "nan": np.nan}
    exec(_codegen([f.root for f in fs]), env)  # noqa: S102  (our own AST)
    run = env["run"]
    run.checked = partial(evaluate_all, fs)
    return run


def compiled_all(fs) -> Callable:
    """The one evaluator run(points, u=None) generated for the fields fs,
    cached per stack: their values stacked on a new last axis, shape
    points.shape[:-1] + (len(fs),), with each sub-expression the fields
    share computed once.

    It checks nothing: its caller runs it inside run_trapped, and re-runs
    what traps on its checked twin run.checked, evaluate_all over fs.
    """
    return _generated(tuple(fs))


def evaluate_all(fs, points: np.ndarray, u=None) -> np.ndarray:
    """Values of the fields fs on points (..., d), stacked on a new last
    axis: shape points.shape[:-1] + (len(fs),).

    Runs compiled_all(fs) with division by zero and invalid operations
    trapped.  When it traps, or when a field needs u and none is given,
    the checked walker eval_field runs instead: it raises EvalDomainError
    naming the sub-expression, or returns the same values.
    """
    points = np.asarray(points, dtype=float)
    try:
        with np.errstate(divide="raise", invalid="raise"):
            return compiled_all(fs)(points, u)
    except _FALLBACK:
        return np.stack([eval_field(f, points, u) for f in fs], axis=-1)


def run_trapped(n: int, body: Callable) -> None:
    """body(k, checked) for k = 0, ..., n - 1 under one trap of division
    by zero and invalid operations, until body returns True.  A step that
    traps runs again alone, outside it, with checked=True: its checked
    evaluators raise EvalDomainError naming the field, and a non-finite
    result is the caller's to check."""
    k = 0
    while k < n:
        try:
            with np.errstate(divide="raise", invalid="raise"):
                for k in range(k, n):
                    if body(k, False):
                        return
                return
        except _FALLBACK:
            if body(k, True):
                return
            k += 1


# ---------------------------------------------------------------------------
# canonical printing (minimal parentheses; re-parses to the same tree)

def _prec(node):
    kind = node[0]
    if kind == "num" and node[1] < 0:
        return _UNARY_BP  # prints with a leading '-', like a negation
    if kind in ("num", "var", "call"):
        return 100
    if kind == "neg":
        return _UNARY_BP
    return _LBP[node[1]]


def to_string(node) -> str:
    kind = node[0]
    if kind == "num":
        v = node[1]
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if kind == "var":
        return node[1]
    if kind == "neg":
        inner = to_string(node[1])
        if _prec(node[1]) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if kind == "call":
        return f"{node[1]}(" + ", ".join(to_string(a) for a in node[2]) + ")"
    op = node[1]
    lp = _LBP[op]
    left, right = node[2], node[3]
    ls = to_string(left)
    rs = to_string(right)
    # left child needs parens when looser; for right-assoc '^' the left child
    # needs parens even at equal precedence, and vice versa on the right
    if op == "^":
        if _prec(left) <= lp:
            ls = f"({ls})"
        if _prec(right) < lp:
            rs = f"({rs})"
    else:
        if _prec(left) < lp:
            ls = f"({ls})"
        if _prec(right) <= lp or _prec(right) == _UNARY_BP:
            rs = f"({rs})"
    return f"{ls} {op} {rs}" if op in "+-" else f"{ls}{op}{rs}"


# ---------------------------------------------------------------------------
# symbolic derivative

def _depends_on(node, qi) -> bool:
    return any(i == qi for _, _, i in _iter_vars(node))


# d f(a) / da for each function f of one argument, as a tree over a
_OUTER = {
    "sin": lambda a: ("call", "cos", (a,)),
    "cos": lambda a: ("neg", ("call", "sin", (a,))),
    "exp": lambda a: ("call", "exp", (a,)),
    "log": lambda a: ("bin", "/", ("num", 1.0), a),
    "sqrt": lambda a: ("bin", "/", ("num", 0.5), ("call", "sqrt", (a,))),
    "tanh": lambda a: ("bin", "-", ("num", 1.0),
                       ("bin", "^", ("call", "tanh", (a,)), ("num", 2.0))),
    "abs": lambda a: ("call", "sign", (a,)),
    "sign": lambda a: ("num", 0.0),
}


def _diff(node, qi):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[2] == qi else 0.0)
    if kind == "neg":
        return ("neg", _diff(node[1], qi))
    if kind == "call":
        fname, args = node[1], node[2]
        if fname in ("min", "max"):
            # min/max(a, b) = (a + b -/+ |a - b|) / 2, piecewise through sign
            a, b = args
            da, db = _diff(a, qi), _diff(b, qi)
            jump = ("bin", "*", ("call", "sign", (("bin", "-", a, b),)),
                    ("bin", "-", da, db))
            return ("bin", "*", ("num", 0.5),
                    ("bin", "-" if fname == "min" else "+",
                     ("bin", "+", da, db), jump))
        return ("bin", "*", _OUTER[fname](args[0]), _diff(args[0], qi))
    op = node[1]
    a, b = node[2], node[3]
    if op in "+-":
        return ("bin", op, _diff(a, qi), _diff(b, qi))
    if op == "*":
        return ("bin", "+",
                ("bin", "*", _diff(a, qi), b),
                ("bin", "*", a, _diff(b, qi)))
    if op == "/":
        if not _depends_on(b, qi):
            return ("bin", "/", _diff(a, qi), b)
        return ("bin", "/",
                ("bin", "-", ("bin", "*", _diff(a, qi), b),
                 ("bin", "*", a, _diff(b, qi))),
                ("bin", "^", b, ("num", 2.0)))
    if b == ("num", 0.0):
        return ("num", 0.0)
    if not _depends_on(b, qi):
        # a^n -> n a^(n-1) a'; a constant n - 1 folds in _simplify
        power = ("bin", "^", a, ("bin", "-", b, ("num", 1.0)))
        return ("bin", "*", ("bin", "*", b, power), _diff(a, qi))
    # a^b -> a^b (b' log a + b a' / a)
    return ("bin", "*", node,
            ("bin", "+", ("bin", "*", _diff(b, qi), ("call", "log", (a,))),
             ("bin", "/", ("bin", "*", b, _diff(a, qi)), a)))


def _simplify(node):
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        a = _simplify(node[1])
        if a[0] == "num":
            return ("num", -a[1])
        return ("neg", a)
    if kind == "call":
        return ("call", node[1], tuple(_simplify(a) for a in node[2]))
    op = node[1]
    a = _simplify(node[2])
    b = _simplify(node[3])
    na, nb = a[0] == "num", b[0] == "num"
    if na and nb:
        try:
            return ("num", float(eval_node(("bin", op, a, b),
                                           np.zeros((1,)))))
        except NumericalError:
            return ("bin", op, a, b)
    if op == "*":
        if (na and a[1] == 0) or (nb and b[1] == 0):
            return ("num", 0.0)
        # -1*x and -x are the same double for every non-NaN x
        if na and abs(a[1]) == 1:
            return b if a[1] == 1 else ("neg", b)
        if nb and abs(b[1]) == 1:
            return a if b[1] == 1 else ("neg", a)
    if op == "+":
        if na and a[1] == 0:
            return b
        if nb and b[1] == 0:
            return a
    if op == "-":
        if nb and b[1] == 0:
            return a
        if na and a[1] == 0:
            return ("neg", b)
    if op == "^":
        if nb and b[1] == 1:
            return a
        if nb and b[1] == 0:
            return ("num", 1.0)
    if op == "/" and na and a[1] == 0:
        return ("num", 0.0)
    return ("bin", op, a, b)


# ---------------------------------------------------------------------------
# code generation

def _codegen(roots) -> str:
    """Source of run(Q, U=None): one assignment per distinct non-leaf
    subtree of the roots, in the walker's order of evaluation, then one
    output column per root."""
    lines, names = [], {}

    def emit(node):
        kind = node[0]
        if kind == "num":
            return repr(node[1])
        if kind == "var":
            return "U" if node[2] == -1 else f"Q[..., {node[2]}]"
        if kind == "neg":
            rhs = f"-{emit(node[1])}"
        elif kind == "call":
            fname = {"min": "minimum", "max": "maximum"}.get(node[1], node[1])
            rhs = f"_np.{fname}({', '.join(emit(a) for a in node[2])})"
        elif node[1] == "^":
            # np.power, like the walker: on Python floats, ** would
            # return a complex number for a negative base, untrapped
            rhs = f"_np.power({emit(node[2])}, {emit(node[3])})"
        else:
            rhs = f"{emit(node[2])} {node[1]} {emit(node[3])}"
        # keyed by the source, which spells the sign of each number:
        # ('num', 0.0) == ('num', -0.0), but sin(-0.0) is -0.0
        if rhs not in names:
            names[rhs] = f"t{len(names)}"
            lines.append(f"{names[rhs]} = {rhs}")
        return names[rhs]

    # a column write stores a missing u as NaN, where +U raises
    cols = ["+U" if root == ("var", "u", -1) else emit(root) for root in roots]
    if len(roots) == 1 and roots[0][0] not in ("num", "var") and any(
            i >= 0 for _, _, i in _iter_vars(roots[0])):
        # a non-leaf field of q is a fresh array over the points, and a
        # view with the new axis saves the copy (the exit kernel's small
        # calls are mostly fixed cost)
        lines.append(f"return {cols[0]}[..., None]")
    else:
        lines.append(f"out = _np.empty(Q.shape[:-1] + ({len(cols)},))")
        lines += [f"out[..., {i}] = {c}" for i, c in enumerate(cols)]
        lines.append("return out")
    return "def run(Q, U=None):\n    " + "\n    ".join(lines)


# ---------------------------------------------------------------------------
# gradients of scalar fields

def grad_field(f: ScalarExpr, points: np.ndarray, d: int,
               u=None) -> np.ndarray:
    """Gradient of f at points (..., d) from its compiled symbolic
    derivatives, shape points.shape[:-1] + (d,); u as in evaluate."""
    return evaluate_all([f.derivative(i) for i in range(d)], points, u)
