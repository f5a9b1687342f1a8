"""Text format for model definitions (``.ham`` files).

The grammar is line oriented: a line ends at ``\\n`` or ``\\r\\n`` and a
lone ``\\r`` is refused (:func:`load_model` reads a file in text mode,
which turns every line ending into ``\\n``). ``#`` starts a comment and
whitespace inside a line is insignificant::

    space NAME DIM          # declare a Hilbert-space factor
    param NAME = REAL       # declare a real scalar parameter
    op NAME = EXPR          # define a named operator expression
    tone EXPR omega = EXPR  # add a tone (operator, positive frequency)

Expressions support real and imaginary literals (``1.5``, ``2i``; a
complex constant is spelled ``1 + 2i``), parameter and operator names,
the built-ins ``id(S) a(S) adag(S) sx(S) sy(S) sz(S) sp(S) sm(S)
proj(S, i, j)`` acting on a declared space ``S``, ``mat[[...], [...]]``
literals, ``kron(E1, E2)`` for an explicit Kronecker product of matrix
values, binary ``+ - *``, unary ``-`` and parentheses. A numeric literal
that overflows to infinity (``1e400``) is refused where it stands, and so
is a space dimension with more digits than Python's int-string limit.

The built-ins, ``kron`` and the padding all come from
:mod:`effham.operators`, whose argument rules they share: a built-in
takes the dimension of its space, ``proj`` its indices in ``[0, dim -
1]``, and ``kron`` stays within ``MAX_DIMENSION``; a refusal is reported
at the call. Built-ins are embedded into the full tensor-product space
immediately (identity padding on the other factors, in declaration
order), so a product of operators on different factors equals the padded
Kronecker product regardless of the order it is written in, while
same-factor products keep their written order. ``mat`` and ``kron``
values are raw matrices; when used in a tone or combined with built-ins
their dimension must match the full model space.

Every name must be declared in the file, but only an ``op`` is bound by
the order of the declarations: an ``op`` may use params and the ops
declared above it, not itself or a later one. Spaces and params may be
used anywhere, before or after their declaration, and a ``tone`` may use
any op; a tone's frequency takes numbers and params only. ``param``/``op``
names share one namespace, space names another; the keywords of the
grammar and the built-in function names are reserved.

A tone's frequency must pass :func:`~effham.model.check_carrier`, the
check :class:`~effham.model.MultiToneHamiltonian` makes, once an
imaginary part below 1e-12 of the real part is dropped as rounding, and a
param must be a finite real number. These rules, the declared names and
the grammar's nodes (a built-in called with its argument count, an
operator of ``+ - *``) are checked once, when a :class:`ModelSpecAst`
is made, whether :func:`parse_model` makes it, a caller builds it by hand
or ``dataclasses.replace`` copies it: a value that breaks them is refused
at its declaration's line and any other node at its own, so every AST
that exists is valid, and neither :func:`compile_model` nor
:func:`serialize_model` checks it again. A
diagnostic that quotes a long value cuts out its middle
(:func:`~effham.errors.elide`).

Nesting is bounded, so that no walk of a parsed tree can exhaust the
stack. The parser's own recursion is capped at 200 levels: a unary ``-``
counts one level, a parenthesis, a call argument or a ``mat`` entry four.
The tree it builds is capped at 200 nodes from root to leaf: each chained
``+``, ``-`` or ``*`` operator puts one more node over the operands before
it, so a sum or product of up to 200 operands is accepted, and a chain
inside parentheses adds its height to the one around it. Past either cap
the parser raises a located "expression is nested too deeply". The product
of the space dimensions is capped at ``MAX_DIMENSION`` (4096), checked
before any matrix is built.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import operators as ops
from .errors import (
    DimensionCapError,
    ModelCompileError,
    ModelSyntaxError,
    ModelValidationError,
    OperatorValueError,
    check_real,
    elide,
)
from .model import MultiToneHamiltonian, ToneTerm, check_carrier
from .operators import MAX_DIMENSION

#: Built-ins acting on one space: its dimension, then ``proj``'s indices.
_BUILTINS: dict[str, Callable[..., np.ndarray]] = {
    "id": ops.identity,
    "a": ops.annihilate,
    "adag": ops.create,
    "sx": ops.sigma_x,
    "sy": ops.sigma_y,
    "sz": ops.sigma_z,
    "sp": ops.sigma_plus,
    "sm": ops.sigma_minus,
    "proj": ops.projector,
}

#: Argument count of every built-in call; the names are reserved words.
_ARITY: dict[str, int] = {**dict.fromkeys(_BUILTINS, 1), "proj": 3, "kron": 2}

_RESERVED = {"space", "param", "op", "tone", "omega", "mat"} | set(_ARITY)

_MAX_EXPR_DEPTH = 200

#: Binary operators by precedence level, the loosest first.
_LEVELS = ("+-", "*")

#: Each binary operator: its arithmetic when a scalar takes part, its
#: arithmetic on two matrices, and the verb of its dimension diagnostics.
_BINARY = {
    "+": (operator.add, operator.add, "add"),
    "-": (operator.sub, operator.sub, "add"),
    "*": (operator.mul, operator.matmul, "multiply"),
}


# ----------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER IMAG SYM NEWLINE EOF
    text: str
    line: int
    col: int


# one way to split a digit run, so a failed IMAG match backs off in linear time
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

# Each group is named after the kind of token it makes; ERROR takes any
# character that starts no token.
_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>[ \t]+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NEWLINE>\r?\n)
  | (?P<IMAG>{_NUM}i)
  | (?P<NUMBER>{_NUM})
  | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<SYM>[()\[\],+\-*=])
  | (?P<ERROR>.)
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "ERROR":
            raise ModelSyntaxError(f"unexpected character {m.group()!r}", line, col)
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, m.group(), line, col))
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ----------------------------------------------------------------------
# AST (source positions are carried but ignored by structural equality)


@dataclass(frozen=True)
class _Located:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass(frozen=True)
class NumberLit(_Located):
    value: complex


@dataclass(frozen=True)
class NameRef(_Located):
    name: str


@dataclass(frozen=True)
class Call(_Located):
    func: str
    args: tuple


@dataclass(frozen=True)
class MatLit(_Located):
    rows: tuple


@dataclass(frozen=True)
class BinOp(_Located):
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Neg(_Located):
    operand: object


@dataclass(frozen=True)
class SpaceDecl(_Located):
    name: str
    dim: int


@dataclass(frozen=True)
class ParamDecl(_Located):
    name: str
    value: float


@dataclass(frozen=True)
class OpDecl(_Located):
    name: str
    expr: object


@dataclass(frozen=True)
class ToneDecl(_Located):
    operator: object
    frequency: object


@dataclass(frozen=True)
class ModelSpecAst:
    """A valid model. Making one, by the parser, by hand or by
    ``dataclasses.replace``, checks its names, nodes, params and carriers
    and raises a located :class:`ModelValidationError`, so no later stage
    checks an AST again. ``carriers`` holds each tone's checked frequency;
    it takes no part in equality, hashing or ``repr``."""

    spaces: tuple[SpaceDecl, ...]
    params: tuple[ParamDecl, ...]
    operator_defs: tuple[OpDecl, ...]
    tones: tuple[ToneDecl, ...]
    carriers: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a hand-built literal may be a numpy number, whose overflow warns
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "carriers", _validate(self))


# ----------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str) -> ModelSyntaxError:
        return ModelSyntaxError(message, self.current.line, self.current.col)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.current
        if tok.kind != "SYM" or tok.text != sym:
            raise self.error(f"expected {sym!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def at_sym(self, sym: str) -> bool:
        return self.current.kind == "SYM" and self.current.text == sym

    def end_of_line(self):
        tok = self.current
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise self.error(f"unexpected trailing token {tok.text!r}")

    def items(self, open_: str, close: str, parse_item, depth: int):
        """``open_ item (, item)* close``, each item read by ``parse_item(depth)``;
        returns the items and the greatest of their heights."""
        self.expect_sym(open_)
        out = [parse_item(depth)]
        while self.at_sym(","):
            self.advance()
            out.append(parse_item(depth))
        self.expect_sym(close)
        nodes, heights = zip(*out)
        return nodes, max(heights)

    # ---- expressions (precedence climbing) ----
    # ``depth`` bounds the parser's own recursion. Each method returns its
    # node with the node's height, which ``_grow`` bounds, as every later
    # walk of the tree recurses on it: an operator chain builds a tall tree
    # in a loop, and parentheses nest the parser without making a node, so
    # neither bound follows from the other.
    def parse_expr(self, depth: int = 0, level: int = 0):
        """A left-associative chain of the operators of ``_LEVELS[level]``
        over operands of the next level; one parser level each."""
        self._check_depth(depth)
        operand = (self.parse_unary if level + 1 == len(_LEVELS)
                   else functools.partial(self.parse_expr, level=level + 1))
        node, height = operand(depth + 1)
        while self.current.kind == "SYM" and self.current.text in _LEVELS[level]:
            tok = self.advance()
            right, right_height = operand(depth + 1)
            node = BinOp(tok.text, node, right, line=tok.line, col=tok.col)
            height = self._grow(tok, max(height, right_height))
        return node, height

    def parse_unary(self, depth: int):
        self._check_depth(depth)
        if self.at_sym("-"):
            tok = self.advance()
            operand, height = self.parse_unary(depth + 1)
            return Neg(operand, line=tok.line, col=tok.col), self._grow(tok, height)
        return self.parse_atom(depth + 1)

    def parse_atom(self, depth: int):
        self._check_depth(depth)
        tok = self.current
        if tok.kind in ("NUMBER", "IMAG"):
            self.advance()
            number = self._number(tok, tok.text.rstrip("i"))
            value = complex(0.0, number) if tok.kind == "IMAG" else complex(number, 0.0)
            return NumberLit(value, line=tok.line, col=tok.col), 1
        if tok.kind == "NAME":
            if tok.text == "mat":
                self.advance()
                rows, height = self.items(
                    "[", "]", lambda d: self.items("[", "]", self.parse_expr, d + 1), depth
                )
                return MatLit(rows, line=tok.line, col=tok.col), self._grow(tok, height)
            if tok.text in _ARITY:
                return self.parse_call(depth)
            if tok.text in _RESERVED:
                raise self.error(f"reserved word {tok.text!r} cannot appear here")
            self.advance()
            return NameRef(tok.text, line=tok.line, col=tok.col), 1
        if self.at_sym("("):
            self.advance()
            inner = self.parse_expr(depth + 1)
            self.expect_sym(")")
            return inner
        raise self.error(
            f"expected a number, name, built-in, 'mat', or '(', found "
            f"{tok.text or 'end of line'!r}"
        )

    def parse_call(self, depth: int):
        tok = self.advance()
        args, height = self.items("(", ")", self.parse_expr, depth + 1)
        want = _ARITY[tok.text]
        if len(args) != want:
            raise ModelSyntaxError(
                f"{tok.text} takes {want} argument(s), got {len(args)}", tok.line, tok.col
            )
        return Call(tok.text, args, line=tok.line, col=tok.col), self._grow(tok, height)

    @staticmethod
    def _number(tok: _Token, text: str) -> float:
        """Value of the literal ``text`` read at ``tok``; one that overflows
        to infinity is refused, as no model or serialized text can hold it."""
        value = float(text)
        if not math.isfinite(value):
            raise ModelSyntaxError(f"numeric literal {elide(tok.text)} overflows",
                                   tok.line, tok.col)
        return value

    def _check_depth(self, depth: int):
        if depth > _MAX_EXPR_DEPTH:
            raise self.error("expression is nested too deeply")

    def _grow(self, tok: _Token, height: int) -> int:
        """Height of the node made at ``tok`` over children at most ``height`` tall."""
        if height >= _MAX_EXPR_DEPTH:
            raise ModelSyntaxError("expression is nested too deeply", tok.line, tok.col)
        return height + 1

    # ---- statements ----
    def parse_file(self) -> ModelSpecAst:
        decls: dict[str, list] = {attr: [] for _, attr in self._STATEMENTS.values()}
        while (tok := self.current).kind != "EOF":
            if tok.kind == "NEWLINE":
                self.advance()
                continue
            if tok.kind != "NAME":
                raise self.error(
                    f"expected a declaration keyword, found {tok.text!r}"
                )
            if tok.text not in self._STATEMENTS:
                raise self.error(
                    f"expected 'space', 'param', 'op' or 'tone', found {tok.text!r}"
                )
            parse, attr = self._STATEMENTS[tok.text]
            self.advance()
            decls[attr].append(parse(self, tok.line))
        return ModelSpecAst(**{attr: tuple(found) for attr, found in decls.items()})

    def _decl_name(self) -> str:
        tok = self.current
        if tok.kind != "NAME":
            raise self.error(f"expected name, found {tok.text or 'end of file'!r}")
        if tok.text in _RESERVED:
            raise ModelValidationError(
                f"{tok.text!r} is a reserved word", tok.line, tok.col
            )
        self.advance()
        return tok.text

    def parse_space(self, line: int) -> SpaceDecl:
        name = self._decl_name()
        dim_tok = self.current
        if dim_tok.kind != "NUMBER" or not re.fullmatch(r"\d+", dim_tok.text):
            raise self.error("space dimension must be a positive integer")
        self.advance()
        # Python's int-string limit; versions before 3.10.7 have none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if len(dim_tok.text) > limit > 0:
            raise ModelSyntaxError(f"space dimension has more than {limit} digits",
                                   dim_tok.line, dim_tok.col)
        dim = int(dim_tok.text)
        if dim < 1:
            raise ModelValidationError(
                "space dimension must be >= 1", dim_tok.line, dim_tok.col
            )
        self.end_of_line()
        return SpaceDecl(name, dim, line=line)

    def parse_param(self, line: int) -> ParamDecl:
        name = self._decl_name()
        self.expect_sym("=")
        sign = 1.0
        if self.at_sym("-"):
            self.advance()
            sign = -1.0
        tok = self.current
        if tok.kind != "NUMBER":
            raise self.error("param value must be a real literal")
        self.advance()
        self.end_of_line()
        return ParamDecl(name, sign * self._number(tok, tok.text), line=line)

    def parse_opdef(self, line: int) -> OpDecl:
        name = self._decl_name()
        self.expect_sym("=")
        expr, _ = self.parse_expr()
        self.end_of_line()
        return OpDecl(name, expr, line=line)

    def parse_tone(self, line: int) -> ToneDecl:
        expr, _ = self.parse_expr()
        tok = self.current
        if not (tok.kind == "NAME" and tok.text == "omega"):
            raise self.error("expected 'omega' after the tone operator expression")
        self.advance()
        self.expect_sym("=")
        freq, _ = self.parse_expr()
        self.end_of_line()
        return ToneDecl(expr, freq, line=line)

    # keyword -> (statement parser, the ModelSpecAst field it fills)
    _STATEMENTS = {
        "space": (parse_space, "spaces"),
        "param": (parse_param, "params"),
        "op": (parse_opdef, "operator_defs"),
        "tone": (parse_tone, "tones"),
    }


# ----------------------------------------------------------------------
# validation


def _walk_names(expr, spaces: set[str], values: set[str]):
    """Check that ``expr`` is made of the grammar's nodes only (a call of a
    built-in with its argument count, a ``+ - *`` operator) and that every
    name it uses is declared: a param or earlier op in ``values``, and a
    space as the first argument of a factor built-in."""
    if isinstance(expr, NameRef):
        if expr.name not in values:
            raise ModelValidationError(
                f"unknown identifier {expr.name!r}", expr.line, expr.col
            )
        return
    children = ()
    if isinstance(expr, Call) and _ARITY.get(expr.func) == len(expr.args):
        children = expr.args
        if expr.func != "kron":
            space_arg, *children = expr.args
            if not isinstance(space_arg, NameRef) or space_arg.name not in spaces:
                raise ModelValidationError(
                    f"{expr.func} expects a declared space name as its first argument",
                    expr.line,
                    expr.col,
                )
    elif isinstance(expr, MatLit):
        children = [el for row in expr.rows for el in row]
    elif isinstance(expr, BinOp) and expr.op in _BINARY:
        children = (expr.left, expr.right)
    elif isinstance(expr, Neg):
        children = (expr.operand,)
    elif not isinstance(expr, NumberLit):
        raise ModelValidationError(f"{type(expr).__name__} node is not in the grammar",
                                   getattr(expr, "line", None), getattr(expr, "col", None))
    for child in children:
        _walk_names(child, spaces, values)


def _eval_scalar(expr, params: dict[str, float]) -> complex:
    """Value of a frequency expression of numbers and params. Arithmetic
    that overflows gives a non-finite value, which the carrier check
    refuses."""
    if isinstance(expr, NumberLit):
        return expr.value
    if isinstance(expr, NameRef):
        if expr.name in params:
            return complex(params[expr.name])
        raise ModelValidationError(
            f"{expr.name!r} is not a scalar parameter", expr.line, expr.col
        )
    if isinstance(expr, Neg):
        return -_eval_scalar(expr.operand, params)
    if isinstance(expr, BinOp) and expr.op in _BINARY:
        return _BINARY[expr.op][0](_eval_scalar(expr.left, params),
                                   _eval_scalar(expr.right, params))
    raise ModelValidationError(
        "expected a scalar expression (numbers and params only)",
        getattr(expr, "line", None),
        getattr(expr, "col", None),
    )


def _check_at(line: int, check, *args):
    """``check(*args)``, a refusal re-raised as :class:`ModelValidationError`
    at ``line``."""
    try:
        return check(*args)
    except OperatorValueError as exc:
        raise ModelValidationError(str(exc), line) from None


def _validate(ast: ModelSpecAst) -> tuple[float, ...]:
    """Check every name and param value of ``ast`` and return the carrier
    of each tone, checked by :func:`~effham.model.check_carrier`."""
    spaces: set[str] = set()
    for s in ast.spaces:
        if s.name in spaces:
            raise ModelValidationError(f"duplicate space name {s.name!r}", s.line)
        spaces.add(s.name)

    # Params and ops share one namespace. Declaration order matters: an op
    # may reference params and earlier ops.
    values: set[str] = set()
    for decl in ast.params + ast.operator_defs:
        if decl.name in values:
            raise ModelValidationError(f"duplicate name {decl.name!r}", decl.line)
        if isinstance(decl, OpDecl):
            _walk_names(decl.expr, spaces, values)
        values.add(decl.name)

    # the parser makes a finite param, a hand-built AST may not
    params = {p.name: _check_at(p.line, check_real, f"param {p.name}", p.value)
              for p in ast.params}
    carriers = []
    for t in ast.tones:
        _walk_names(t.operator, spaces, values)
        freq = _eval_scalar(t.frequency, params)
        # a negligible imaginary part is rounding; a complex value is refused
        freq = freq.real if abs(freq.imag) <= 1e-12 * max(1.0, abs(freq.real)) else freq
        carriers.append(_check_at(t.line, check_carrier, freq))
    return tuple(carriers)


def parse_model(text: str) -> ModelSpecAst:
    """Parse model text into an AST, which validates itself as it is made;
    every diagnostic carries line:col."""
    return _Parser(_lex(text)).parse_file()


# ----------------------------------------------------------------------
# serialization

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _literal_str(expr: NumberLit) -> str:
    """Text of a literal the parser can make: a finite real or imaginary
    number >= 0, its other part +0.0; any other is refused at the node."""
    v = complex(expr.value)
    parts = (v.real, v.imag)
    if not (0.0 in parts and all(math.isfinite(p) and math.copysign(1.0, p) > 0
                                 for p in parts)):
        raise ModelValidationError(
            f"literal {elide(expr.value)} cannot be written: a literal is a "
            "finite real or imaginary number >= 0", expr.line, expr.col)
    return f"{_fmt_float(v.imag)}i" if v.imag else _fmt_float(v.real)


def _expr_str(expr, required: int = _PREC_SUM) -> str:
    if isinstance(expr, NumberLit):
        text, prec = _literal_str(expr), _PREC_ATOM
    elif isinstance(expr, NameRef):
        text, prec = expr.name, _PREC_ATOM
    elif isinstance(expr, Call):
        text = f"{expr.func}({', '.join(_expr_str(a) for a in expr.args)})"
        prec = _PREC_ATOM
    elif isinstance(expr, MatLit):
        rows = ", ".join(
            "[" + ", ".join(_expr_str(el) for el in row) + "]" for row in expr.rows
        )
        text, prec = f"mat[{rows}]", _PREC_ATOM
    elif isinstance(expr, Neg):
        text = "-" + _expr_str(expr.operand, _PREC_UNARY)
        prec = _PREC_UNARY
    elif isinstance(expr, BinOp):
        prec = _PREC_PROD if expr.op == "*" else _PREC_SUM
        left = _expr_str(expr.left, prec)
        right = _expr_str(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
    if prec < required:
        return f"({text})"
    return text


def serialize_model(ast: ModelSpecAst) -> str:
    """Canonical text whose reparse is structurally identical to ``ast``.

    Every param of an AST is finite, so each is written as it is. A literal
    the parser cannot make (negative, complex, non-finite or ``-0.0``)
    raises a located :class:`ModelValidationError`, as no text reparses to
    it."""
    lines = []
    for s in ast.spaces:
        lines.append(f"space {s.name} {s.dim}")
    for p in ast.params:
        lines.append(f"param {p.name} = {_fmt_float(p.value)}")
    for o in ast.operator_defs:
        lines.append(f"op {o.name} = {_expr_str(o.expr)}")
    for t in ast.tones:
        lines.append(f"tone {_expr_str(t.operator)} omega = {_expr_str(t.frequency)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# compilation


def _embed(mat: np.ndarray, factor: int, dims: Sequence[int]) -> np.ndarray:
    return functools.reduce(ops.tensor_product, [
        mat if i == factor else ops.identity(d) for i, d in enumerate(dims)])


class _Compiler:
    def __init__(self, ast: ModelSpecAst):
        self.ast = ast
        self.space_index = {s.name: i for i, s in enumerate(ast.spaces)}
        self.dims = [s.dim for s in ast.spaces]
        self.total = math.prod(self.dims)  # exact: int64 would wrap past 2**63
        if self.total > MAX_DIMENSION:
            raise ModelCompileError(
                f"total dimension {self.total} exceeds cap {MAX_DIMENSION}"
            )
        self.env: dict[str, object] = {p.name: complex(p.value) for p in ast.params}

    def run(self) -> MultiToneHamiltonian:
        if not self.ast.spaces:
            raise ModelCompileError("a model needs at least one space declaration")
        if not self.ast.tones:
            raise ModelCompileError("a model needs at least one tone")
        for o in self.ast.operator_defs:
            self.env[o.name] = self.eval(o.expr)
        tones = []
        for t, omega in zip(self.ast.tones, self.ast.carriers):
            value = self.eval(t.operator)
            if not isinstance(value, np.ndarray):
                raise ModelCompileError(
                    "tone operator expression must produce a matrix", t.line
                )
            if value.shape != (self.total, self.total):
                raise ModelCompileError(
                    f"tone operator acts on dimension {value.shape[0]}, "
                    f"model space has dimension {self.total}",
                    t.line,
                )
            tones.append(ToneTerm(value, omega))
        try:
            return MultiToneHamiltonian(tones)
        except OperatorValueError as exc:
            raise ModelCompileError(str(exc)) from None

    def eval(self, expr):
        # names hold checked values; every other value is checked where it
        # is made, a literal too, as a hand-built AST may hold a non-finite one
        if isinstance(expr, NameRef):
            return self.env[expr.name]
        if isinstance(expr, NumberLit):
            value = expr.value
        elif isinstance(expr, MatLit):
            value = self.eval_mat(expr)
        elif isinstance(expr, Neg):
            value = -self.eval(expr.operand)
        elif isinstance(expr, Call):
            value = self.eval_call(expr)
        else:
            value = self.eval_binop(expr)
        if not np.isfinite(value).all():
            raise ModelCompileError("arithmetic overflows to a non-finite value",
                                    expr.line, expr.col)
        return value

    def eval_call(self, expr: Call):
        # an argument's own diagnostic is a ModelCompileError at the
        # argument; a refusal of ``operators`` is reported at the call
        try:
            if expr.func == "kron":
                left, right = (self.eval(arg) for arg in expr.args)
                if not (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)):
                    raise ModelCompileError(
                        "kron requires matrix arguments", expr.line, expr.col
                    )
                return ops.tensor_product(left, right)
            factor = self.space_index[expr.args[0].name]
            indices = [self._index_arg(arg) for arg in expr.args[1:]]
            block = _BUILTINS[expr.func](self.dims[factor], *indices)
            return _embed(block, factor, self.dims)
        except (OperatorValueError, DimensionCapError) as exc:
            raise ModelCompileError(str(exc), expr.line, expr.col) from exc

    def _index_arg(self, arg) -> int:
        value = self.eval(arg)
        if (isinstance(value, np.ndarray) or abs(value.imag) > 1e-9
                or abs(value.real - round(value.real)) > 1e-9):
            raise ModelCompileError("projector indices must be integers", arg.line, arg.col)
        return int(round(value.real))

    def eval_mat(self, expr: MatLit):
        n = len(expr.rows)
        if any(len(row) != n for row in expr.rows):
            raise ModelCompileError(
                f"matrix literal must be square, got {n} row(s) with lengths "
                f"{[len(r) for r in expr.rows]}",
                expr.line,
                expr.col,
            )
        out = np.zeros((n, n), dtype=complex)
        for r, row in enumerate(expr.rows):
            for c, el in enumerate(row):
                value = self.eval(el)
                if isinstance(value, np.ndarray):
                    raise ModelCompileError("matrix literal entries must be scalars",
                                            el.line, el.col)
                out[r, c] = value
        return out

    def eval_binop(self, expr: BinOp):
        a = self.eval(expr.left)
        b = self.eval(expr.right)
        mixed_op, matrix_op, verb = _BINARY[expr.op]
        a_mat = isinstance(a, np.ndarray)
        b_mat = isinstance(b, np.ndarray)
        if a_mat and b_mat:
            if a.shape != b.shape:
                raise ModelCompileError(
                    f"cannot {verb} operators of dimensions {a.shape[0]} and {b.shape[0]}",
                    expr.line,
                    expr.col,
                )
            return matrix_op(a, b)
        # a scalar scales an operator but is not added to one
        if a_mat != b_mat and verb == "add":
            raise ModelCompileError(
                "cannot add a scalar and an operator (wrap scalars with id(...))",
                expr.line,
                expr.col,
            )
        return mixed_op(a, b)


def compile_model(ast: ModelSpecAst) -> MultiToneHamiltonian:
    """Evaluate an AST to matrices over the full tensor-product space.

    The AST was validated when it was made, so compilation checks no name
    or frequency again: each tone's matrix takes its carrier from
    ``ast.carriers``. A
    value that overflows to a non-finite number raises
    :class:`ModelCompileError` at the node that computed it; numpy's
    overflow warnings are silenced meanwhile, as the error replaces them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _Compiler(ast).run()


def load_model(path: str) -> MultiToneHamiltonian:
    """Parse and compile a ``.ham`` file.

    A file that is not UTF-8 text raises :class:`ModelSyntaxError`; a path
    that cannot be read raises the ``OSError`` of ``open``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"not UTF-8 text: {exc}") from None
    return compile_model(parse_model(text))
