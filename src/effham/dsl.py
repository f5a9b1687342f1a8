"""Text format for model definitions (``.ham`` files).

The grammar is line oriented; ``#`` starts a comment and whitespace inside
a line is insignificant::

    space NAME DIM          # declare a Hilbert-space factor
    param NAME = REAL       # declare a real scalar parameter
    op NAME = EXPR          # define a named operator expression
    tone EXPR omega = EXPR  # add a tone (operator, positive frequency)

Expressions support real and imaginary literals (``1.5``, ``2i``; a
complex constant is spelled ``1 + 2i``), parameter and operator names,
the built-ins ``id(S) a(S) adag(S) sx(S) sy(S) sz(S) sp(S) sm(S)
proj(S, i, j)`` acting on a declared space ``S``, ``mat[[...], [...]]``
literals, ``kron(E1, E2)`` for an explicit Kronecker product of matrix
values, binary ``+ - *``, unary ``-`` and parentheses.

Built-ins are embedded into the full tensor-product space immediately
(identity padding on the other factors, in declaration order), so a
product of operators on different factors equals the padded Kronecker
product regardless of the order it is written in, while same-factor
products keep their written order. ``mat`` and ``kron`` values are raw
matrices; when used in a tone or combined with built-ins their dimension
must match the full model space.

Names must be declared before use. ``param``/``op`` names share one
namespace, space names another; the keywords of the grammar and the
built-in function names are reserved.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import operators as ops
from .errors import ModelCompileError, ModelSyntaxError, ModelValidationError
from .model import MultiToneHamiltonian, ToneTerm
from .operators import MAX_DIMENSION

_BUILTIN_FACTOR_OPS: dict[str, Callable[[int], np.ndarray]] = {
    "id": ops.identity,
    "a": ops.annihilate,
    "adag": ops.create,
    "sx": ops.sigma_x,
    "sy": ops.sigma_y,
    "sz": ops.sigma_z,
    "sp": ops.sigma_plus,
    "sm": ops.sigma_minus,
}

_RESERVED = (
    {"space", "param", "op", "tone", "omega", "mat", "kron", "proj"}
    | set(_BUILTIN_FACTOR_OPS)
)

_MAX_EXPR_DEPTH = 200


# ----------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER IMAG SYM NEWLINE EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[()\[\],+\-*=])
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        group = m.lastgroup
        value = m.group()
        if group == "newline":
            tokens.append(_Token("NEWLINE", value, line, col))
            line += 1
            col = 1
        else:
            if group == "number":
                kind = "IMAG" if value.endswith("i") else "NUMBER"
                tokens.append(_Token(kind, value, line, col))
            elif group == "name":
                tokens.append(_Token("NAME", value, line, col))
            elif group == "sym":
                tokens.append(_Token("SYM", value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ----------------------------------------------------------------------
# AST (source positions are carried but ignored by structural equality)


@dataclass(frozen=True)
class NumberLit:
    value: complex
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class NameRef:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MatLit:
    rows: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SpaceDecl:
    name: str
    dim: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParamDecl:
    name: str
    value: float
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OpDecl:
    name: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ToneDecl:
    operator: object
    frequency: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ModelSpecAst:
    spaces: tuple[SpaceDecl, ...]
    params: tuple[ParamDecl, ...]
    operator_defs: tuple[OpDecl, ...]
    tones: tuple[ToneDecl, ...]


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

    def error(self, message: str, tok: _Token | None = None) -> ModelSyntaxError:
        tok = tok or self.current
        return ModelSyntaxError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.current
        if tok.kind != "SYM" or tok.text != sym:
            raise self.error(f"expected {sym!r}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def expect_name(self, what: str = "name") -> _Token:
        tok = self.current
        if tok.kind != "NAME":
            raise self.error(f"expected {what}, found {tok.text or 'end of file'!r}")
        return self.advance()

    def at_sym(self, sym: str) -> bool:
        return self.current.kind == "SYM" and self.current.text == sym

    def end_of_line(self):
        tok = self.current
        if tok.kind == "NEWLINE":
            self.advance()
        elif tok.kind != "EOF":
            raise self.error(f"unexpected trailing token {tok.text!r}")

    # ---- expressions (precedence climbing) ----
    def parse_expr(self, depth: int = 0):
        return self.parse_sum(depth)

    def parse_sum(self, depth: int):
        self._check_depth(depth)
        node = self.parse_product(depth + 1)
        while self.current.kind == "SYM" and self.current.text in "+-":
            tok = self.advance()
            right = self.parse_product(depth + 1)
            node = BinOp(tok.text, node, right, line=tok.line, col=tok.col)
        return node

    def parse_product(self, depth: int):
        self._check_depth(depth)
        node = self.parse_unary(depth + 1)
        while self.at_sym("*"):
            tok = self.advance()
            right = self.parse_unary(depth + 1)
            node = BinOp("*", node, right, line=tok.line, col=tok.col)
        return node

    def parse_unary(self, depth: int):
        self._check_depth(depth)
        if self.at_sym("-"):
            tok = self.advance()
            return Neg(self.parse_unary(depth + 1), line=tok.line, col=tok.col)
        return self.parse_atom(depth + 1)

    def parse_atom(self, depth: int):
        self._check_depth(depth)
        tok = self.current
        if tok.kind in ("NUMBER", "IMAG"):
            self.advance()
            text = tok.text
            if tok.kind == "IMAG":
                value = complex(0.0, float(text[:-1]))
            else:
                value = complex(float(text), 0.0)
            return NumberLit(value, line=tok.line, col=tok.col)
        if tok.kind == "NAME":
            if tok.text == "mat":
                return self.parse_mat(depth)
            if tok.text in _BUILTIN_FACTOR_OPS or tok.text in ("proj", "kron"):
                return self.parse_call(depth)
            if tok.text in _RESERVED:
                raise self.error(f"reserved word {tok.text!r} cannot appear here")
            self.advance()
            return NameRef(tok.text, line=tok.line, col=tok.col)
        if self.at_sym("("):
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect_sym(")")
            return node
        raise self.error(
            f"expected a number, name, built-in, 'mat', or '(', found "
            f"{tok.text or 'end of line'!r}"
        )

    def parse_call(self, depth: int):
        tok = self.advance()
        self.expect_sym("(")
        args = [self.parse_expr(depth + 1)]
        while self.at_sym(","):
            self.advance()
            args.append(self.parse_expr(depth + 1))
        self.expect_sym(")")
        func = tok.text
        want = 3 if func == "proj" else 2 if func == "kron" else 1
        if len(args) != want:
            raise ModelSyntaxError(
                f"{func} takes {want} argument(s), got {len(args)}", tok.line, tok.col
            )
        return Call(func, tuple(args), line=tok.line, col=tok.col)

    def parse_mat(self, depth: int):
        tok = self.advance()  # 'mat'
        self.expect_sym("[")
        rows = [self.parse_mat_row(depth)]
        while self.at_sym(","):
            self.advance()
            rows.append(self.parse_mat_row(depth))
        self.expect_sym("]")
        return MatLit(tuple(rows), line=tok.line, col=tok.col)

    def parse_mat_row(self, depth: int) -> tuple:
        self.expect_sym("[")
        row = [self.parse_expr(depth + 1)]
        while self.at_sym(","):
            self.advance()
            row.append(self.parse_expr(depth + 1))
        self.expect_sym("]")
        return tuple(row)

    def _check_depth(self, depth: int):
        if depth > _MAX_EXPR_DEPTH:
            raise self.error("expression is nested too deeply")

    # ---- statements ----
    def parse_file(self) -> ModelSpecAst:
        spaces: list[SpaceDecl] = []
        params: list[ParamDecl] = []
        opdefs: list[OpDecl] = []
        tones: list[ToneDecl] = []
        while True:
            tok = self.current
            if tok.kind == "EOF":
                break
            if tok.kind == "NEWLINE":
                self.advance()
                continue
            if tok.kind != "NAME":
                raise self.error(
                    f"expected a declaration keyword, found {tok.text!r}"
                )
            if tok.text == "space":
                spaces.append(self.parse_space())
            elif tok.text == "param":
                params.append(self.parse_param())
            elif tok.text == "op":
                opdefs.append(self.parse_opdef())
            elif tok.text == "tone":
                tones.append(self.parse_tone())
            else:
                raise self.error(
                    f"expected 'space', 'param', 'op' or 'tone', found {tok.text!r}"
                )
        return ModelSpecAst(tuple(spaces), tuple(params), tuple(opdefs), tuple(tones))

    def _decl_name(self) -> _Token:
        tok = self.expect_name()
        if tok.text in _RESERVED:
            raise ModelValidationError(
                f"{tok.text!r} is a reserved word", tok.line, tok.col
            )
        return tok

    def parse_space(self) -> SpaceDecl:
        kw = self.advance()
        name = self._decl_name()
        dim_tok = self.current
        if dim_tok.kind != "NUMBER" or not re.fullmatch(r"\d+", dim_tok.text):
            raise self.error("space dimension must be a positive integer")
        self.advance()
        dim = int(dim_tok.text)
        if dim < 1:
            raise ModelValidationError(
                "space dimension must be >= 1", dim_tok.line, dim_tok.col
            )
        self.end_of_line()
        return SpaceDecl(name.text, dim, line=kw.line)

    def parse_param(self) -> ParamDecl:
        kw = self.advance()
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
        return ParamDecl(name.text, sign * float(tok.text), line=kw.line)

    def parse_opdef(self) -> OpDecl:
        kw = self.advance()
        name = self._decl_name()
        self.expect_sym("=")
        expr = self.parse_expr()
        self.end_of_line()
        return OpDecl(name.text, expr, line=kw.line)

    def parse_tone(self) -> ToneDecl:
        kw = self.advance()
        expr = self.parse_expr()
        tok = self.current
        if not (tok.kind == "NAME" and tok.text == "omega"):
            raise self.error("expected 'omega' after the tone operator expression")
        self.advance()
        self.expect_sym("=")
        freq = self.parse_expr()
        self.end_of_line()
        return ToneDecl(expr, freq, line=kw.line)


# ----------------------------------------------------------------------
# validation


def _walk_names(expr, spaces: set[str], scalars: set[str], opnames: set[str]):
    if isinstance(expr, NumberLit):
        return
    if isinstance(expr, NameRef):
        if expr.name not in scalars and expr.name not in opnames:
            raise ModelValidationError(
                f"unknown identifier {expr.name!r}", expr.line, expr.col
            )
        return
    if isinstance(expr, Call):
        if expr.func in _BUILTIN_FACTOR_OPS or expr.func == "proj":
            space_arg = expr.args[0]
            if not isinstance(space_arg, NameRef) or space_arg.name not in spaces:
                raise ModelValidationError(
                    f"{expr.func} expects a declared space name as its first argument",
                    expr.line,
                    expr.col,
                )
            for arg in expr.args[1:]:
                _walk_names(arg, spaces, scalars, opnames)
            return
        for arg in expr.args:
            _walk_names(arg, spaces, scalars, opnames)
        return
    if isinstance(expr, MatLit):
        for row in expr.rows:
            for el in row:
                _walk_names(el, spaces, scalars, opnames)
        return
    if isinstance(expr, BinOp):
        _walk_names(expr.left, spaces, scalars, opnames)
        _walk_names(expr.right, spaces, scalars, opnames)
        return
    if isinstance(expr, Neg):
        _walk_names(expr.operand, spaces, scalars, opnames)
        return
    raise ModelValidationError(f"unsupported expression node {type(expr).__name__}")


def _eval_scalar(expr, params: dict[str, float]) -> complex:
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
    if isinstance(expr, BinOp):
        a = _eval_scalar(expr.left, params)
        b = _eval_scalar(expr.right, params)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        return a * b
    raise ModelValidationError(
        "expected a scalar expression (numbers and params only)",
        getattr(expr, "line", None),
        getattr(expr, "col", None),
    )


def _validate(ast: ModelSpecAst) -> None:
    spaces: set[str] = set()
    for s in ast.spaces:
        if s.name in spaces:
            raise ModelValidationError(f"duplicate space name {s.name!r}", s.line)
        spaces.add(s.name)

    params: dict[str, float] = {}
    value_names: set[str] = set()
    for p in ast.params:
        if p.name in value_names:
            raise ModelValidationError(f"duplicate name {p.name!r}", p.line)
        value_names.add(p.name)
        params[p.name] = p.value

    # Declaration order matters: an op may reference params and earlier ops.
    opnames: set[str] = set()
    for o in ast.operator_defs:
        if o.name in value_names:
            raise ModelValidationError(f"duplicate name {o.name!r}", o.line)
        _walk_names(o.expr, spaces, set(params), opnames)
        value_names.add(o.name)
        opnames.add(o.name)

    for t in ast.tones:
        _walk_names(t.operator, spaces, set(params), opnames)
        freq = _eval_scalar(t.frequency, params)
        if (
            not math.isfinite(freq.real)
            or abs(freq.imag) > 1e-12 * max(1.0, abs(freq))
            or not freq.real > 0
        ):
            raise ModelValidationError(
                f"frequency must be a positive finite real, evaluates to {freq.real:g}",
                t.line,
            )


def parse_model(text: str) -> ModelSpecAst:
    """Parse model text into an AST; every diagnostic carries line:col."""
    ast = _Parser(_lex(text)).parse_file()
    _validate(ast)
    return ast


# ----------------------------------------------------------------------
# serialization

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _expr_str(expr, required: int = _PREC_SUM) -> str:
    if isinstance(expr, NumberLit):
        v = expr.value
        text = f"{_fmt_float(v.imag)}i" if v.imag else _fmt_float(v.real)
        prec = _PREC_ATOM
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
        text = "-" + _expr_str(expr.operand, _PREC_ATOM)
        prec = _PREC_UNARY
    elif isinstance(expr, BinOp):
        prec = _PREC_PROD if expr.op == "*" else _PREC_SUM
        left = _expr_str(expr.left, prec)
        right = _expr_str(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
    else:
        raise ModelValidationError(f"cannot serialize node {type(expr).__name__}")
    if prec < required:
        return f"({text})"
    return text


def serialize_model(ast: ModelSpecAst) -> str:
    """Canonical text whose reparse is structurally identical to ``ast``."""
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
    out = None
    for i, d in enumerate(dims):
        block = mat if i == factor else np.eye(d, dtype=complex)
        out = block if out is None else np.kron(out, block)
    return out


class _Compiler:
    def __init__(self, ast: ModelSpecAst):
        self.ast = ast
        self.space_index: dict[str, int] = {}
        self.dims: list[int] = []
        for s in ast.spaces:
            self.space_index[s.name] = len(self.dims)
            self.dims.append(s.dim)
        self.total = int(np.prod(self.dims)) if self.dims else 1
        if self.total > MAX_DIMENSION:
            raise ModelCompileError(
                f"total dimension {self.total} exceeds cap {MAX_DIMENSION}"
            )
        self.params = {p.name: p.value for p in ast.params}
        self.env: dict[str, object] = {
            name: complex(value) for name, value in self.params.items()
        }

    def run(self) -> MultiToneHamiltonian:
        if not self.ast.spaces:
            raise ModelCompileError("a model needs at least one space declaration")
        if not self.ast.tones:
            raise ModelCompileError("a model needs at least one tone")
        for o in self.ast.operator_defs:
            self.env[o.name] = self.eval(o.expr)
        tones = []
        for t in self.ast.tones:
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
            freq = _eval_scalar(t.frequency, self.params)
            tones.append(ToneTerm(value, float(freq.real)))
        try:
            return MultiToneHamiltonian(tones)
        except Exception as exc:
            raise ModelCompileError(f"model construction failed: {exc}") from exc

    def eval(self, expr):
        if isinstance(expr, NumberLit):
            return expr.value
        if isinstance(expr, NameRef):
            return self.env[expr.name]
        if isinstance(expr, Neg):
            return -self.eval(expr.operand)
        if isinstance(expr, Call):
            return self.eval_call(expr)
        if isinstance(expr, MatLit):
            return self.eval_mat(expr)
        if isinstance(expr, BinOp):
            return self.eval_binop(expr)
        raise ModelCompileError(f"cannot evaluate node {type(expr).__name__}")

    def eval_call(self, expr: Call):
        if expr.func == "kron":
            left = self.eval(expr.args[0])
            right = self.eval(expr.args[1])
            if not (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)):
                raise ModelCompileError(
                    "kron requires matrix arguments", expr.line, expr.col
                )
            if left.shape[0] * right.shape[0] > MAX_DIMENSION:
                raise ModelCompileError(
                    "kron result exceeds the dimension cap", expr.line, expr.col
                )
            return np.kron(left, right)
        space = expr.args[0].name
        factor = self.space_index[space]
        d = self.dims[factor]
        try:
            if expr.func == "proj":
                i = self._index_arg(expr.args[1])
                j = self._index_arg(expr.args[2])
                block = ops.projector(d, i, j)
            else:
                block = _BUILTIN_FACTOR_OPS[expr.func](d)
        except Exception as exc:
            raise ModelCompileError(str(exc), expr.line, expr.col) from exc
        return _embed(block, factor, self.dims)

    def _index_arg(self, arg) -> int:
        value = _eval_scalar(arg, self.params)
        if abs(value.imag) > 1e-9 or abs(value.real - round(value.real)) > 1e-9:
            raise ModelCompileError(
                "projector indices must be integers",
                getattr(arg, "line", None),
                getattr(arg, "col", None),
            )
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
                    raise ModelCompileError(
                        "matrix literal entries must be scalars",
                        getattr(el, "line", None),
                        getattr(el, "col", None),
                    )
                out[r, c] = value
        return out

    def eval_binop(self, expr: BinOp):
        a = self.eval(expr.left)
        b = self.eval(expr.right)
        a_mat = isinstance(a, np.ndarray)
        b_mat = isinstance(b, np.ndarray)
        if expr.op == "*":
            if a_mat and b_mat:
                if a.shape != b.shape:
                    raise ModelCompileError(
                        f"cannot multiply operators of dimensions {a.shape[0]} "
                        f"and {b.shape[0]}",
                        expr.line,
                        expr.col,
                    )
                return a @ b
            return a * b
        # + or -
        if a_mat != b_mat:
            raise ModelCompileError(
                "cannot add a scalar and an operator (wrap scalars with id(...))",
                expr.line,
                expr.col,
            )
        if a_mat and a.shape != b.shape:
            raise ModelCompileError(
                f"cannot add operators of dimensions {a.shape[0]} and {b.shape[0]}",
                expr.line,
                expr.col,
            )
        return a + b if expr.op == "+" else a - b


def compile_model(ast: ModelSpecAst) -> MultiToneHamiltonian:
    """Evaluate an AST to matrices over the full tensor-product space."""
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
