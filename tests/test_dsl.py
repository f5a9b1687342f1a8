import dataclasses
import math
import pathlib
import random
import string
import sys
import time

import numpy as np
import pytest

from effham import (
    ModelCompileError,
    ModelError,
    ModelSyntaxError,
    ModelValidationError,
    MultiToneHamiltonian,
    annihilate,
    compile_model,
    load_model,
    parse_model,
    serialize_model,
    sigma_plus,
    sigma_x,
    sigma_z,
    tensor_product,
)
from effham import dsl
from effham.dsl import (BinOp, Call, MatLit, ModelSpecAst, NameRef, NumberLit, OpDecl,
                        ParamDecl, SpaceDecl, ToneDecl, _validate)

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = sorted(DATA.glob("*.ham"))

MINIMAL = """\
space qubit 2
param g = 0.1
op drive = g * sp(qubit)
tone drive omega = 10.0
"""


def test_corpus_has_ten_files():
    assert len(CORPUS) == 10


def test_parse_minimal():
    ast = parse_model(MINIMAL)
    assert len(ast.spaces) == 1
    assert ast.spaces[0].name == "qubit"
    assert ast.spaces[0].dim == 2
    assert len(ast.params) == 1
    assert len(ast.operator_defs) == 1
    assert len(ast.tones) == 1


def test_parse_comments_and_blank_lines():
    ast = parse_model("# header\n\nspace q 2\n  # indented comment\ntone sx(q) omega = 1.0\n")
    assert len(ast.spaces) == 1


def test_negative_frequency_rejected_with_location():
    text = "space q 2\ntone sx(q) omega = -2.0\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert str(err.value) == "2:0: tone frequency must be a finite real number > 0, got -2.0"
    assert err.value.line == 2


def test_frequency_difference_evaluates():
    H = compile_model(parse_model("space q 2\nparam w = 3\ntone sx(q) omega = w - 1\n"))
    assert H.omegas == (2.0,)


_ZERO = NumberLit(0j)


# ASTs that parse_model cannot produce: an undeclared op and an infinite
# param, which the AST refuses as it is made, and a non-finite literal,
# which the compiler checks where it stands
@pytest.mark.parametrize("g, operator, cls, message", [
    (1.0, NameRef("x", line=2, col=6), ModelValidationError, "2:6: unknown identifier 'x'"),
    (math.inf, Call("proj", (NameRef("q"), NameRef("g"), _ZERO)), ModelValidationError,
     "1:0: param g must be a finite real number, got inf"),
    (1.0, MatLit(((NumberLit(complex(math.inf), line=2, col=11), _ZERO), (_ZERO, _ZERO))),
     ModelCompileError, "2:11: arithmetic overflows to a non-finite value"),
], ids=["undeclared_op", "infinite_param", "infinite_literal"])
def test_compile_gives_a_hand_built_ast_a_located_diagnostic(g, operator, cls, message):
    def build():
        return ModelSpecAst(spaces=(SpaceDecl("q", 2),), params=(ParamDecl("g", g, line=1),),
                            operator_defs=(),
                            tones=(ToneDecl(operator, NumberLit(1 + 0j), line=2),))

    # a validation error comes from making the AST, a compile error after it
    with pytest.raises(cls) as err:
        build() if cls is ModelValidationError else compile_model(build())
    assert type(err.value) is cls and str(err.value) == message


DEMO_MODELS = sorted((pathlib.Path(__file__).parent.parent / "demos" / "models").glob("*.ham"))


@pytest.mark.parametrize("path", DEMO_MODELS, ids=lambda p: p.stem)
def test_load_model_validates_a_file_once(path, monkeypatch):
    calls = []

    def counted(ast):
        calls.append(ast)
        return _validate(ast)

    monkeypatch.setattr(dsl, "_validate", counted)
    H = load_model(str(path))
    assert len(calls) == 1 and H.omegas == calls[0].carriers


def test_a_numpy_frequency_that_overflows_is_refused_without_a_warning():
    # numpy scalars warn on overflow, and the tests turn warnings into errors
    freq = BinOp("*", NumberLit(np.float64(1e200)), NumberLit(np.float64(1e200)))
    with pytest.raises(ModelValidationError, match="^2:0: tone frequency must be a finite"):
        ModelSpecAst(spaces=(SpaceDecl("q", 2),), params=(), operator_defs=(),
                     tones=(ToneDecl(Call("sx", (NameRef("q"),)), freq, line=2),))


def test_replace_validates_the_new_ast():
    ast = parse_model(MINIMAL)
    bad_tone = dataclasses.replace(ast.tones[0], frequency=NumberLit(-1 + 0j))
    with pytest.raises(ModelValidationError) as err:
        dataclasses.replace(ast, tones=(bad_tone,))
    assert str(err.value) == "4:0: tone frequency must be a finite real number > 0, got -1.0"
    again = dataclasses.replace(ast, params=(ParamDecl("g", 0.2),))
    assert again.carriers == ast.carriers == (10.0,) and again != ast


def test_syntax_error_carries_location():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("space q 2\nop bad = g +\n")
    assert err.value.line == 2
    assert err.value.col is not None


def test_duplicate_names_rejected():
    with pytest.raises(ModelValidationError):
        parse_model("space q 2\nspace q 3\ntone sx(q) omega = 1.0\n")
    with pytest.raises(ModelValidationError):
        parse_model("space q 2\nparam g = 1.0\nop g = sx(q)\ntone g omega = 1.0\n")


def test_unknown_identifier_rejected():
    with pytest.raises(ModelValidationError) as err:
        parse_model("space q 2\ntone mystery omega = 1.0\n")
    assert "mystery" in str(err.value)


def test_reserved_words_rejected_as_names():
    with pytest.raises(ModelError):
        parse_model("space omega 2\ntone sx(omega) omega = 1.0\n")


def test_unknown_space_in_builtin():
    with pytest.raises(ModelValidationError):
        parse_model("space q 2\ntone sx(cavity) omega = 1.0\n")


def test_declaration_order_enforced():
    # an op may use only the ops declared above it: not a later one, nor itself
    for text in ["space q 2\nop first = second\nop second = sx(q)\ntone first omega = 1.0\n",
                 "space q 2\nop x = x\ntone x omega = 1.0\n"]:
        with pytest.raises(ModelValidationError, match="unknown identifier"):
            parse_model(text)


@pytest.mark.parametrize("text, in_order", [
    ("op x = sx(q)\nspace q 2\ntone x omega = 1\n",
     "space q 2\nop x = sx(q)\ntone x omega = 1\n"),
    ("space q 2\ntone sx(q) omega = w\nparam w = 2\n",
     "space q 2\nparam w = 2\ntone sx(q) omega = w\n"),
    ("space q 2\nop y = g * sx(q)\nparam g = 0.5\ntone y omega = 1\n",
     "space q 2\nparam g = 0.5\nop y = g * sx(q)\ntone y omega = 1\n"),
    ("space q 2\ntone x omega = 1\nop x = sx(q)\n",
     "space q 2\nop x = sx(q)\ntone x omega = 1\n"),
], ids=["space_after_op", "param_after_tone", "param_after_op", "op_after_tone"])
def test_spaces_params_and_ops_in_tones_may_be_used_before_declaration(text, in_order):
    H, ref = compile_model(parse_model(text)), compile_model(parse_model(in_order))
    assert H.omegas == ref.omegas
    for tone, ref_tone in zip(H.tones, ref.tones):
        assert np.array_equal(tone.h, ref_tone.h)


# ----------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    text = path.read_text()
    ast = parse_model(text)
    again = parse_model(serialize_model(ast))
    assert again == ast


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_compiles(path):
    H = compile_model(parse_model(path.read_text()))
    assert H.dim >= 1


def test_serialization_deterministic():
    ast = parse_model(MINIMAL)
    assert serialize_model(ast) == serialize_model(parse_model(MINIMAL))


def test_serialization_preserves_precedence():
    text = "space q 2\nop w = sx(q) * (sy(q) + sz(q))\ntone w omega = 2.0\n"
    ast = parse_model(text)
    assert parse_model(serialize_model(ast)) == ast


def _with_op(expr, g=1.0) -> ModelSpecAst:
    return ModelSpecAst(spaces=(SpaceDecl("q", 2),), params=(ParamDecl("g", g, line=2),),
                        operator_defs=(OpDecl("x", expr, line=3),),
                        tones=(ToneDecl(NameRef("x"), NumberLit(1 + 0j), line=4),))


@pytest.mark.parametrize("value, shown", [
    (1 + 2j, "(1+2j)"), (-1.0, "-1.0"), (-2j, "(-0-2j)"), (complex(-0.0, 0.0), "(-0+0j)"),
    (complex(0.0, -0.0), "-0j"), (math.nan, "nan"), (complex(math.inf), "(inf+0j)"),
], ids=["complex", "negative", "negative_imaginary", "negative_zero",
        "negative_zero_imaginary", "nan", "infinite"])
def test_serialize_refuses_a_literal_the_parser_cannot_make(value, shown):
    with pytest.raises(ModelValidationError) as err:
        serialize_model(_with_op(MatLit(((NumberLit(value, line=3, col=12),),))))
    assert str(err.value) == (f"3:12: literal {shown} cannot be written: a literal is "
                              "a finite real or imaginary number >= 0")


@pytest.mark.parametrize("value", [0j, 2.5 + 0j, 2.5j, 0.0])
def test_serialize_writes_a_literal_the_parser_can_make(value):
    ast = _with_op(MatLit(((NumberLit(value),),)))
    assert parse_model(serialize_model(ast)) == ast


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_an_ast_refuses_a_non_finite_param_as_it_is_made(g):
    with pytest.raises(ModelValidationError) as err:
        _with_op(NameRef("g"), g)
    assert str(err.value) == f"2:0: param g must be a finite real number, got {g!r}"


class _Foreign:
    line, col = 5, 7


def test_a_foreign_node_is_refused_as_the_ast_is_made():
    for expr in (_Foreign(), BinOp("+", NumberLit(1 + 0j), _Foreign())):
        with pytest.raises(ModelValidationError) as err:
            _with_op(expr)
        assert str(err.value) == "5:7: _Foreign node is not in the grammar"
    # a node with no location is refused without one
    with pytest.raises(ModelValidationError, match="^object node is not in the grammar$"):
        _with_op(object())


_SX = Call("sx", (NameRef("q"),))


@pytest.mark.parametrize("expr", [
    Call("foo", (NameRef("q"),), line=3, col=9), Call("sx", (), line=3, col=9),
    Call("proj", (NameRef("q"),), line=3, col=9), BinOp("/", _SX, _SX, line=3, col=9),
], ids=["unknown_function", "no_argument", "too_few_arguments", "unknown_operator"])
def test_a_call_or_operator_outside_the_grammar_is_refused_as_the_ast_is_made(expr):
    with pytest.raises(ModelValidationError) as err:
        _with_op(expr)
    assert str(err.value) == f"3:9: {type(expr).__name__} node is not in the grammar"
    # in a frequency, as any node but a number, a param or their arithmetic
    tone = ToneDecl(_SX, BinOp("/", NumberLit(1 + 0j), NumberLit(2 + 0j), line=4, col=3), line=4)
    with pytest.raises(ModelValidationError, match="^4:3: expected a scalar expression"):
        dataclasses.replace(_with_op(_SX), tones=(tone,))


def test_crlf_ends_a_line(tmp_path):
    text = "space q 2\r\ntone sx(q) omega = 1\r\n"
    assert parse_model(text) == parse_model(text.replace("\r\n", "\n"))
    (tmp_path / "crlf.ham").write_bytes(text.encode())
    H = load_model(str(tmp_path / "crlf.ham"))
    assert isinstance(H, MultiToneHamiltonian)
    assert np.array_equal(H.tones[0].h, compile_model(parse_model(text)).tones[0].h)
    # a column counts from the start of the line after a CRLF
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("space q 2\r\ntone sx(q) omega = 1 2\r\n")
    assert str(err.value) == "2:22: unexpected trailing token '2'"


def test_lone_carriage_return_is_refused():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("space q 2\rtone sx(q) omega = 1\n")
    assert str(err.value) == "1:10: unexpected character '\\r'"


# ----------------------------------------------------------------------
# compilation semantics


def test_compile_minimal_matrix():
    H = compile_model(parse_model(MINIMAL))
    assert H.dim == 2
    assert np.allclose(H.tones[0].h, 0.1 * sigma_plus())
    assert H.tones[0].omega == 10.0


def test_compile_kron_padding():
    # hand-assembled Kronecker oracle for a qubit x cavity exchange tone
    text = (
        "space qubit 2\nspace cavity 3\nparam g = 0.1\n"
        "tone g * sp(qubit) * a(cavity) omega = 10.0\n"
    )
    H = compile_model(parse_model(text))
    assert H.dim == 6
    assert np.allclose(H.tones[0].h, 0.1 * tensor_product(sigma_plus(), annihilate(3)))


def test_compile_factor_order_commutes_across_factors():
    base = "space qubit 2\nspace cavity 3\n"
    a = compile_model(parse_model(base + "tone sp(qubit) * a(cavity) omega = 1.0\n"))
    b = compile_model(parse_model(base + "tone a(cavity) * sp(qubit) omega = 1.0\n"))
    assert np.array_equal(a.tones[0].h, b.tones[0].h)


def test_compile_same_factor_order_preserved():
    base = "space q 2\n"
    ab = compile_model(parse_model(base + "tone sp(q) * sz(q) omega = 1.0\n"))
    ba = compile_model(parse_model(base + "tone sz(q) * sp(q) omega = 1.0\n"))
    assert np.allclose(ab.tones[0].h, sigma_plus() @ sigma_z())
    assert np.allclose(ba.tones[0].h, sigma_z() @ sigma_plus())
    assert not np.allclose(ab.tones[0].h, ba.tones[0].h)


def test_compile_single_space_builtin():
    H = compile_model(parse_model("space s 2\ntone sx(s) omega = 3.0\n"))
    assert np.array_equal(H.tones[0].h, sigma_x())


def test_compile_matrix_literal():
    H = compile_model(parse_model("space s 2\ntone mat[[0, 2i], [1, 0]] omega = 1.0\n"))
    assert np.allclose(H.tones[0].h, [[0, 2j], [1, 0]])


def test_compile_rejects_non_square_matrix():
    with pytest.raises(ModelCompileError):
        compile_model(parse_model("space s 2\ntone mat[[1, 0, 0], [0, 1, 0]] omega = 1.0\n"))


def test_compile_rejects_wrong_tone_dimension():
    text = "space q 2\nspace c 3\ntone mat[[0, 1], [1, 0]] omega = 1.0\n"
    with pytest.raises(ModelCompileError) as err:
        compile_model(parse_model(text))
    assert "dimension" in str(err.value)


def test_compile_rejects_scalar_plus_operator():
    with pytest.raises(ModelCompileError):
        compile_model(parse_model("space q 2\ntone sx(q) + 1 omega = 1.0\n"))


def test_compile_rejects_dimension_cap():
    text = "space big 70\nspace ger 70\ntone a(big) omega = 1.0\n"
    with pytest.raises(ModelCompileError):
        compile_model(parse_model(text))


def test_compile_projector_indices():
    H = compile_model(parse_model("space d 3\ntone proj(d, 2, 0) omega = 1.0\n"))
    expected = np.zeros((3, 3))
    expected[2, 0] = 1.0
    assert np.array_equal(H.tones[0].h, expected)
    with pytest.raises(ModelCompileError):
        compile_model(parse_model("space d 3\ntone proj(d, 0, 7) omega = 1.0\n"))


def test_compile_deterministic():
    text = CORPUS[0].read_text()
    a = compile_model(parse_model(text))
    b = compile_model(parse_model(text))
    assert a.dim == b.dim
    for ta, tb in zip(a.tones, b.tones):
        assert np.array_equal(ta.h, tb.h)
        assert ta.omega == tb.omega


# ----------------------------------------------------------------------
# totality under fuzzing


def _mutate(text: str, rnd: random.Random) -> str:
    chars = list(text)
    for _ in range(rnd.randint(1, 6)):
        action = rnd.random()
        pos = rnd.randrange(max(1, len(chars)))
        if action < 0.4 and chars:
            del chars[pos % len(chars)]
        elif action < 0.8:
            chars.insert(pos, rnd.choice(string.printable))
        else:
            chars.insert(pos, rnd.choice(["omega", "mat", "[[", "))", "1e", "-", "space "]))
    return "".join(chars)


def test_parser_is_total_under_fuzzing():
    # a case that parses must also serialize, and compile or fail with a ModelError
    rnd = random.Random(20260810)
    seeds = [path.read_text() for path in CORPUS]
    cases = []
    for k in range(120):
        cases.append(_mutate(seeds[k % len(seeds)], rnd))
    for _ in range(60):
        n = rnd.randint(0, 160)
        cases.append("".join(rnd.choice(string.printable) for _ in range(n)))
    for _ in range(20):
        n = rnd.randint(0, 40)
        cases.append("".join(chr(rnd.randint(1, 0x2FF)) for _ in range(n)))
    assert len(cases) == 200
    for case in cases:
        try:
            ast = parse_model(case)
        except ModelError:
            continue  # a located diagnostic is the expected failure mode
        serialize_model(ast)
        try:
            compile_model(ast)
        except ModelError:
            pass


# ----------------------------------------------------------------------
# every diagnostic site: class, message, line and col

Q = "space q 2\n"

DIAGNOSTICS = [
    # (id, text, class, message, line, col)
    ("unexpected_character", Q + "op x = $\n",
     ModelSyntaxError, "unexpected character '$'", 2, 8),
    ("expected_call_open", Q + "tone sx q omega = 1\n",
     ModelSyntaxError, "expected '(', found 'q'", 2, 9),
    ("expected_paren_close", Q + "tone (sx(q) omega = 1\n",
     ModelSyntaxError, "expected ')', found 'omega'", 2, 13),
    ("expected_call_close", Q + "tone sx(q omega = 1\n",
     ModelSyntaxError, "expected ')', found 'omega'", 2, 11),
    ("expected_mat_open", Q + "tone mat(1) omega = 1\n",
     ModelSyntaxError, "expected '[', found '('", 2, 9),
    ("expected_row_open", Q + "tone mat[1] omega = 1\n",
     ModelSyntaxError, "expected '[', found '1'", 2, 10),
    ("expected_row_close", Q + "tone mat[[1, 0] omega = 1\n",
     ModelSyntaxError, "expected ']', found 'omega'", 2, 17),
    ("expected_mat_close", Q + "tone mat[[1, 0], [0, 1] omega = 1\n",
     ModelSyntaxError, "expected ']', found 'omega'", 2, 25),
    ("expected_equals_op", Q + "op x sx(q)\n",
     ModelSyntaxError, "expected '=', found 'sx'", 2, 6),
    ("expected_equals_param", "param g 1\n",
     ModelSyntaxError, "expected '=', found '1'", 1, 9),
    ("expected_equals_omega", Q + "tone sx(q) omega 1\n",
     ModelSyntaxError, "expected '=', found '1'", 2, 18),
    ("expected_name", "space 3 2\n",
     ModelSyntaxError, "expected name, found '3'", 1, 7),
    ("expected_name_at_eof", "op",
     ModelSyntaxError, "expected name, found 'end of file'", 1, 3),
    ("expected_operand", Q + "tone sx(q) + , omega = 1\n",
     ModelSyntaxError, "expected a number, name, built-in, 'mat', or '(', found ','", 2, 14),
    ("expected_operand_at_newline", Q + "op x = sx(q) +\n",
     ModelSyntaxError, "expected a number, name, built-in, 'mat', or '(', found '\\n'", 2, 15),
    ("expected_operand_at_eof", Q + "op x = sx(q) *",
     ModelSyntaxError, "expected a number, name, built-in, 'mat', or '(', found 'end of line'",
     2, 15),
    ("trailing_token", Q + "op x = sx(q) sy(q)\n",
     ModelSyntaxError, "unexpected trailing token 'sy'", 2, 14),
    ("reserved_word_in_expression", Q + "op x = omega\n",
     ModelSyntaxError, "reserved word 'omega' cannot appear here", 2, 8),
    ("reserved_word_as_name", "space tone 2\n",
     ModelValidationError, "'tone' is a reserved word", 1, 7),
    ("arity_proj", "space d 3\ntone proj(d, 0) omega = 1\n",
     ModelSyntaxError, "proj takes 3 argument(s), got 2", 2, 6),
    ("arity_kron", Q + "tone kron(sx(q)) omega = 1\n",
     ModelSyntaxError, "kron takes 2 argument(s), got 1", 2, 6),
    ("arity_factor_builtin", Q + "tone sx(q, q) omega = 1\n",
     ModelSyntaxError, "sx takes 1 argument(s), got 2", 2, 6),
    ("nesting_parentheses", Q + "op x = " + "(" * 60 + "1" + ")" * 60 + "\n",
     ModelSyntaxError, "expression is nested too deeply", 2, 58),
    ("nesting_unary_minus", Q + "op x = " + "-" * 300 + "1\n",
     ModelSyntaxError, "expression is nested too deeply", 2, 207),
    ("declaration_keyword", "3\n",
     ModelSyntaxError, "expected a declaration keyword, found '3'", 1, 1),
    ("unknown_keyword", "spaces q 2\n",
     ModelSyntaxError, "expected 'space', 'param', 'op' or 'tone', found 'spaces'", 1, 1),
    ("space_dimension_real", "space q 2.5\n",
     ModelSyntaxError, "space dimension must be a positive integer", 1, 9),
    ("space_dimension_name", "space q n\n",
     ModelSyntaxError, "space dimension must be a positive integer", 1, 9),
    ("space_dimension_zero", "space q 0\n",
     ModelValidationError, "space dimension must be >= 1", 1, 9),
    ("literal_overflow", Q + "tone 1e400 * sx(q) omega = 1\n",
     ModelSyntaxError, "numeric literal '1e400' overflows", 2, 6),
    ("imaginary_literal_overflow", Q + "tone sx(q) omega = 1 + 2e308i\n",
     ModelSyntaxError, "numeric literal '2e308i' overflows", 2, 24),
    ("param_literal_overflow", "param g = 1e400\n",
     ModelSyntaxError, "numeric literal '1e400' overflows", 1, 11),
    ("negative_param_literal_overflow", "param g = -1e400\n",
     ModelSyntaxError, "numeric literal '1e400' overflows", 1, 12),
    ("param_imaginary_literal", "param g = 1i\n",
     ModelSyntaxError, "param value must be a real literal", 1, 11),
    ("param_name_value", "param g = h\n",
     ModelSyntaxError, "param value must be a real literal", 1, 11),
    ("missing_omega", Q + "tone sx(q) 1\n",
     ModelSyntaxError, "expected 'omega' after the tone operator expression", 2, 12),
    ("duplicate_space", "space q 2\nspace q 3\n",
     ModelValidationError, "duplicate space name 'q'", 2, None),
    ("duplicate_param", "param g = 1\nparam g = 2\n",
     ModelValidationError, "duplicate name 'g'", 2, None),
    ("duplicate_op_and_param", Q + "param g = 1\nop g = sx(q)\n",
     ModelValidationError, "duplicate name 'g'", 3, None),
    ("duplicate_op", Q + "op x = sx(q)\nop x = sy(q)\n",
     ModelValidationError, "duplicate name 'x'", 3, None),
    ("unknown_identifier", Q + "tone sx(q) * y omega = 1\n",
     ModelValidationError, "unknown identifier 'y'", 2, 14),
    ("unknown_projector_index", "space d 3\ntone proj(d, k, 0) omega = 1\n",
     ModelValidationError, "unknown identifier 'k'", 2, 14),
    ("builtin_undeclared_space", Q + "tone sx(c) omega = 1\n",
     ModelValidationError, "sx expects a declared space name as its first argument", 2, 6),
    ("builtin_space_not_a_name", Q + "tone sx(2) omega = 1\n",
     ModelValidationError, "sx expects a declared space name as its first argument", 2, 6),
    ("frequency_names_an_operator", Q + "op x = sx(q)\ntone x omega = x\n",
     ModelValidationError, "'x' is not a scalar parameter", 3, 16),
    ("frequency_not_scalar", Q + "tone sx(q) omega = sz(q)\n",
     ModelValidationError, "expected a scalar expression (numbers and params only)", 2, 20),
    ("frequency_negative", Q + "tone sx(q) omega = -2\n",
     ModelValidationError, "tone frequency must be a finite real number > 0, got -2.0", 2, None),
    ("frequency_complex", Q + "tone sx(q) omega = 1 + 1i\n",
     ModelValidationError, "tone frequency must be a finite real number > 0, got (1+1j)",
     2, None),
    ("frequency_infinite", Q + "tone sx(q) omega = 1e300 * 1e300\n",
     ModelValidationError, "tone frequency must be a finite real number > 0, got inf", 2, None),
    ("frequency_imaginary_infinite", Q + "tone sx(q) omega = 1 + 1e300i * 1e300\n",
     ModelValidationError, "tone frequency must be a finite real number > 0, got (1+infj)",
     2, None),
    # refused where it stands, not when the model is built
    ("frequency_sums_overflow", Q + "tone sx(q) omega = 1e308\n",
     ModelValidationError,
     "tone frequency 1e+308 is too large: a sum of 6 carriers would overflow", 2, None),
    ("compile_dimension_cap", "space big 70\nspace ger 70\ntone a(big) omega = 1\n",
     ModelCompileError, "total dimension 4900 exceeds cap 4096", None, None),
    ("compile_no_space", "tone mat[[1]] omega = 1\n",
     ModelCompileError, "a model needs at least one space declaration", None, None),
    ("compile_no_tone", Q,
     ModelCompileError, "a model needs at least one tone", None, None),
    ("compile_scalar_tone", Q + "tone 2 omega = 1\n",
     ModelCompileError, "tone operator expression must produce a matrix", 2, None),
    ("compile_tone_dimension", Q + "tone mat[[1]] omega = 1\n",
     ModelCompileError, "tone operator acts on dimension 1, model space has dimension 2",
     2, None),
    ("compile_arithmetic_overflow", Q + "tone mat[[1e300 * 1e300, 0], [0, 1]] omega = 1\n",
     ModelCompileError, "arithmetic overflows to a non-finite value", 2, 17),
    ("compile_kron_scalar", Q + "tone kron(sx(q), 2) omega = 1\n",
     ModelCompileError, "kron requires matrix arguments", 2, 6),
    ("compile_kron_cap", "space q 65\ntone kron(a(q), a(q)) omega = 1\n",
     ModelCompileError, "tensor product dimension 4225 exceeds cap 4096", 2, 6),
    ("compile_builtin_failure", "space d 1\ntone sx(d) omega = 1\n",
     ModelCompileError, "dim must be an integer in [2, 4096], got 1", 2, 6),
    ("compile_projector_range", "space d 3\ntone proj(d, 0, 7) omega = 1\n",
     ModelCompileError, "j must be an integer in [0, 2], got 7", 2, 6),
    # an index's own diagnostic is located at the index alone
    ("compile_projector_integer", "space d 3\ntone proj(d, 0.5, 0) omega = 1\n",
     ModelCompileError, "projector indices must be integers", 2, 14),
    ("compile_projector_operator_index", Q + "op x = sx(q)\ntone proj(q, x, 0) omega = 1\n",
     ModelCompileError, "projector indices must be integers", 3, 14),
    ("compile_matrix_square", Q + "tone mat[[1, 0, 0], [0, 1, 0]] omega = 1\n",
     ModelCompileError, "matrix literal must be square, got 2 row(s) with lengths [3, 3]",
     2, 6),
    ("compile_matrix_entry", Q + "tone mat[[sx(q), 0], [0, 1]] omega = 1\n",
     ModelCompileError, "matrix literal entries must be scalars", 2, 11),
    ("compile_multiply_dimensions", Q + "tone sx(q) * mat[[1]] omega = 1\n",
     ModelCompileError, "cannot multiply operators of dimensions 2 and 1", 2, 12),
    ("compile_add_scalar", Q + "tone sx(q) + 1 omega = 1\n",
     ModelCompileError, "cannot add a scalar and an operator (wrap scalars with id(...))",
     2, 12),
    ("compile_add_dimensions", Q + "tone sx(q) - mat[[1]] omega = 1\n",
     ModelCompileError, "cannot add operators of dimensions 2 and 1", 2, 12),
]


@pytest.mark.parametrize("text, cls, message, line, col",
                         [row[1:] for row in DIAGNOSTICS], ids=[row[0] for row in DIAGNOSTICS])
def test_diagnostic_sites(text, cls, message, line, col):
    with pytest.raises(ModelError) as err:
        compile_model(parse_model(text))
    assert type(err.value) is cls
    assert (err.value.line, err.value.col) == (line, col)
    prefix = "" if line is None else f"{line}:{col or 0}: "
    assert str(err.value) == prefix + message


# ----------------------------------------------------------------------
# bounds every later walk of the tree relies on


def _chain(op: str, n: int) -> str:
    return f" {op} ".join(["g"] * n)


def _nested_chain(levels: int, n: int) -> str:
    # ((g + ...n...) + ...n...) + ...: every level's chain sits on the one inside
    text = _chain("+", n)
    for _ in range(levels - 1):
        text = f"({text}) + " + _chain("+", n)
    return text


# flat chains, and chains each under the bound whose heights add up along
# the left operand
TALL_CHAINS = {
    "sum": _chain("+", 3000),
    "product": _chain("*", 3000),
    "nested_4x150": _nested_chain(4, 150),
    "nested_6x170": _nested_chain(6, 170),
    "nested_40x6": _nested_chain(40, 6),
}


@pytest.mark.parametrize("chain", TALL_CHAINS.values(), ids=TALL_CHAINS.keys())
@pytest.mark.parametrize("where", ["op", "frequency"])
def test_long_operator_chain_is_a_located_syntax_error(chain, where):
    head = "space q 2\nparam g = 1.0\n"
    text = head + (f"op x = {chain}\ntone x * sx(q) omega = 1.0\n"
                   if where == "op" else f"tone sx(q) omega = {chain}\n")
    with pytest.raises(ModelSyntaxError) as err:
        compile_model(parse_model(text))
    assert str(err.value).endswith("expression is nested too deeply")
    assert err.value.line == 3 and err.value.col is not None


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_operator_chain_length_bound(op):
    # each chained operator puts one node over the chain: 200 operands pass, 201 do not
    head = "space q 2\nparam g = 1.0\n"
    freq = "1.0" if op == "-" else _chain(op, 200)  # a "-" chain of ones is negative
    ast = parse_model(head + f"op x = {_chain(op, 200)}\ntone x * sx(q) omega = {freq}\n")
    assert parse_model(serialize_model(ast)) == ast
    H = compile_model(ast)
    value = {"+": 200.0, "-": -198.0, "*": 1.0}[op]
    assert np.array_equal(H.tones[0].h, value * sigma_x())
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(head + f"op x = {_chain(op, 201)}\ntone x * sx(q) omega = 1.0\n")
    assert (err.value.line, err.value.col) == (3, 10 + 4 * 199)  # at the 200th operator


@pytest.mark.parametrize("wrap, operand", [
    ("({})", "g"), ("-({})", "g"), ("kron({}, u)", "u"), ("mat[[{}]]", "g"),
])
def test_nested_tree_height_bound(wrap, operand):
    # the tallest accepted tree is 200 nodes from root to leaf, whichever nodes
    # build its levels; a parenthesis makes none
    head = "space q 1\nparam g = 1.0\nop u = id(q)\n"
    terms = lambda n: " + ".join([operand] * n)
    below = 199 - (wrap != "({})")
    tree = wrap.format(f"({terms(100)}) + {terms(below - 100)}") + f" * {operand}"
    ast = parse_model(head + f"op x = {tree}\ntone x * id(q) omega = 1.0\n")
    assert parse_model(serialize_model(ast)) == ast
    compile_model(ast)
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(head + f"op x = {tree} * {operand}\ntone x * id(q) omega = 1.0\n")
    assert str(err.value) == f"4:{9 + len(tree)}: expression is nested too deeply"


def test_total_dimension_beyond_int64_hits_the_cap():
    text = "space p 4294967296\nspace q 4294967296\ntone sx(p) omega = 1\n"
    with pytest.raises(ModelCompileError) as err:
        compile_model(parse_model(text))
    assert str(err.value) == "total dimension 18446744073709551616 exceeds cap 4096"
    assert err.value.line is None


def test_space_dimension_past_the_int_string_limit():
    # refused by its digit count, before int() would raise a bare ValueError
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("space q " + "9" * (limit + 1) + "\n")
    assert str(err.value) == f"1:9: space dimension has more than {limit} digits"
    # at the limit the dimension parses, and the dimension cap refuses it
    ast = parse_model("space q " + "0" * (limit - 1) + "2\ntone sx(q) omega = 1\n")
    assert ast.spaces[0].dim == 2


def test_long_digit_runs_lex_in_linear_time():
    # a digit run splits one way between a number's parts, so a failed
    # imaginary-literal match backs off in linear time
    start = time.perf_counter()
    with pytest.raises(ModelSyntaxError, match="overflows"):
        parse_model("param g = " + "9" * 50_000 + "\n")
    assert time.perf_counter() - start < 2.0
    assert parse_model("param g = " + "0" * 19_999 + "1\n").params[0].value == 1.0


def test_nested_unary_minus_round_trips():
    # a Neg of a Neg is written "--x": one parser level per sign, as parsed
    ast = parse_model("space q 2\nop x = " + "-" * 150 + "1\ntone x * sx(q) omega = 1\n")
    text = serialize_model(ast)
    assert "op x = " + "-" * 150 + "1.0\n" in text
    assert parse_model(text) == ast
    mixed = parse_model("space q 2\nop x = -(-(-sx(q) + 1)) * -2\ntone x omega = 1\n")
    assert "op x = --(-sx(q) + 1.0) * -2.0\n" in serialize_model(mixed)
    assert parse_model(serialize_model(mixed)) == mixed
