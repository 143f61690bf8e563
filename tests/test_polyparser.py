"""Map definition grammar: parsing, canonical formatting, degree checking."""

import random
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hominv import (
    DimensionMismatchError,
    InvalidKappaError,
    MapDefinitionError,
    MapSyntaxError,
    MixedDegreeError,
    PolyMap,
    check_homogeneity_symbolic,
    format_map,
    parse_map,
    random_polymap_spec,
)


def test_parse_simple_map():
    m = parse_map("n = 2; f1 = x1^2 - x2^2; f2 = 2 x1 x2;")
    assert m.n == 2
    assert m.kappa == 2.0
    assert m.body.components[0] == ((1.0, (2, 0)), (-1.0, (0, 2)))
    assert m.body.components[1] == ((2.0, (1, 1)),)


def test_parse_kappa_header():
    m = parse_map("kappa = 2.5; n = 2; f1 = x1^2; f2 = x1 x2;")
    assert m.kappa == 2.5
    assert m.radial_exponent == pytest.approx(0.5)


def test_parse_rational_coefficients_and_kappa():
    m = parse_map("kappa = 5/2; n = 2; f1 = 1/3 x1^2; f2 = x2^2;")
    assert m.kappa == 2.5
    assert m.body.components[0][0][0] == pytest.approx(1.0 / 3.0)


def test_parse_scientific_notation():
    m = parse_map("n = 2; f1 = 2.5e-1 x1^2; f2 = 1E2 x2^2;")
    assert m.body.components[0][0][0] == 0.25
    assert m.body.components[1][0][0] == 100.0


def test_parse_explicit_multiplication_and_juxtaposition_agree():
    a = parse_map("n = 2; f1 = 2*x1*x2; f2 = x1^2;")
    b = parse_map("n = 2; f1 = 2 x1 x2; f2 = x1^2;")
    assert a.body == b.body


def test_parse_leading_sign_and_trailing_semicolon():
    m = parse_map("n = 2; f1 = -x1^2 - x2^2; f2 = 3 x1 x2;")
    assert m.body.components[0] == ((-1.0, (2, 0)), (-1.0, (0, 2)))
    parse_map("n = 2; f1 = x1; f2 = x2")  # trailing semicolon optional


def test_parse_merges_repeated_monomials():
    m = parse_map("n = 2; f1 = x1^2 + x1^2 + x1 x2 - x1 x2; f2 = x2^2;")
    assert m.body.components[0] == ((2.0, (2, 0)),)


def test_parse_zero_component_allowed():
    m = parse_map("n = 2; f1 = 0; f2 = x2;")
    assert m.body.components[0] == ()
    assert format_map(m) == "n=2; f1 = 0; f2 = x2"


def test_format_canonical_example():
    m = parse_map("n = 3; f1 = x2^2 x1 + x1^3 + x3^2 x1; f2 = x2^3 + x2 x1^2 + x2 x3^2; f3 = x3^3 + x3 x1^2 + x3 x2^2;")
    assert format_map(m) == (
        "n=3; f1 = x1^3 + x1*x2^2 + x1*x3^2; "
        "f2 = x1^2*x2 + x2^3 + x2*x3^2; "
        "f3 = x1^2*x3 + x2^2*x3 + x3^3"
    )


def test_format_includes_kappa_only_when_weighted():
    plain = parse_map("n = 2; f1 = x1^2; f2 = x2^2;")
    assert format_map(plain).startswith("n=2;")
    weighted = parse_map("kappa = 3; n = 2; f1 = x1^2; f2 = x2^2;")
    assert format_map(weighted).startswith("kappa=3; n=2;")


def test_roundtrip_exact_on_200_random_maps():
    for seed in range(200):
        m = random_polymap_spec(seed)
        text = format_map(m)
        back = parse_map(text)
        assert back.body == m.body, f"seed {seed}: term multiset changed"
        assert back.kappa == m.kappa, f"seed {seed}: kappa changed"
        assert back.n == m.n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_property(seed):
    m = random_polymap_spec(seed)
    back = parse_map(format_map(m))
    assert back.body == m.body and back.kappa == m.kappa


def test_format_of_parse_is_idempotent():
    for seed in range(40):
        text = format_map(random_polymap_spec(seed))
        assert format_map(parse_map(text)) == text


def test_error_positions_are_one_based():
    with pytest.raises(MixedDegreeError) as exc:
        parse_map("n = 3;\nf1 = x1^2 + x2;\nf2 = x2^2;\nf3 = x3^2;")
    assert exc.value.line == 2
    assert exc.value.col == 13
    assert exc.value.component == 1  # 1-based component index
    assert exc.value.exponents == (0, 1, 0)
    assert "line 2, col 13" in str(exc.value)


def test_mixed_degree_names_the_earliest_offender():
    with pytest.raises(MixedDegreeError) as exc:
        parse_map("n = 2; f1 = x1 + x2^3 + x1^2; f2 = x2^3")
    assert (exc.value.line, exc.value.col) == (1, 13)
    assert exc.value.component == 1 and exc.value.exponents == (1, 0)


@pytest.mark.parametrize("text, col, message", [
    ("n = 2; f1 = x1^9563300443374231; f2 = x2^9563300443374231", 16, "exponent must be"),
    ("n = 1; f1 = x1^" + "9" * 5000, 16, "exponent must be"),
    ("n = 1; f1 = x" + "1" * 5000, 13, "out of range"),
    ("n = 2; f1 = x1^600 x2^600; f2 = x2^1200", 23, "total degree"),
    ("n = 1; f1 = x1^1000 x1", 21, "total degree"),
], ids=["exponent", "5000-digit-exponent", "5000-digit-variable", "term-degree",
         "term-degree-at-variable"])
def test_exponents_and_term_degrees_are_capped(text, col, message):
    with pytest.raises(MapSyntaxError, match=message) as exc:
        parse_map(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert parse_map("n = 1; f1 = x1^1000").body.degree == 1000


def test_mixed_degree_across_components():
    with pytest.raises(MixedDegreeError):
        parse_map("n = 2; f1 = x1^2; f2 = x2;")


def test_constant_only_map_rejected():
    with pytest.raises(InvalidKappaError):
        parse_map("n = 2; f1 = 5; f2 = 7;")


def test_nonpositive_kappa_rejected_at_header_position():
    with pytest.raises(InvalidKappaError) as exc:
        parse_map("kappa = -1; n = 3; f1 = x1; f2 = x2; f3 = x3;")
    assert exc.value.line == 1 and exc.value.col == 10
    with pytest.raises(InvalidKappaError):
        parse_map("kappa = 0; n = 2; f1 = x1; f2 = x2;")


def test_variable_out_of_range():
    with pytest.raises(MapSyntaxError) as exc:
        parse_map("n = 2; f1 = x1; f2 = x3;")
    assert exc.value.line == 1 and exc.value.col == 22


def test_components_must_appear_in_order():
    with pytest.raises(MapSyntaxError):
        parse_map("n = 2; f2 = x1; f1 = x2;")


def test_component_count_must_match_dimension():
    with pytest.raises(DimensionMismatchError) as exc:
        parse_map("n = 2; f1 = x1;")
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(DimensionMismatchError):
        parse_map("n = 2; f1 = x1; f2 = x2; f3 = x1;")


def test_empty_input_is_a_syntax_error():
    with pytest.raises(MapSyntaxError) as exc:
        parse_map("")
    assert exc.value.line == 1 and exc.value.col == 1


def test_bad_exponent_position():
    with pytest.raises(MapSyntaxError) as exc:
        parse_map("n = 3;\nf1 = x1^^2;\nf2 = x2;\nf3 = x3;")
    assert exc.value.line == 2


MAX_FLOAT = "1.7976931348623157e308"


def test_merged_coefficients_must_be_finite():
    # the first x1 of f1 is where the sum of its coefficients overflows from
    text = f"n = 2;\nf1 = x2 + {MAX_FLOAT} x1 + {MAX_FLOAT} x1 - x2; f2 = x2"
    with pytest.raises(MapSyntaxError) as exc:
        parse_map(text)
    assert str(exc.value) == ("line 2, col 11: the merged coefficient of x1 in component f1 "
                              "is not a finite real")
    # a sum that stays finite is kept, whatever its terms' size
    m = parse_map(f"n = 1; f1 = {MAX_FLOAT} x1 - {MAX_FLOAT} x1 + {MAX_FLOAT} x1")
    assert m.body.components == (((float(MAX_FLOAT), (1,)),),)


def test_jacobian_coefficients_must_be_finite():
    # 1e308 is finite, but the coefficient 2e308 of its derivative is not
    for text, where in (("n = 1; f1 = 1e308 x1^2", "line 1, col 13"),
                        ("n = 2;\nf1 = x2^2 + 1e308 x1^2 - x2^2; f2 = x2^2", "line 2, col 13")):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map(text)
        assert str(exc.value) == (f"{where}: the Jacobian coefficient of x1^2 in component f1 "
                                  "is not a finite real")
    assert parse_map(f"n = 1; f1 = {MAX_FLOAT} x1").body.components == (
        ((float(MAX_FLOAT), (1,)),),)


def test_fuzzed_inputs_never_crash():
    # mutate canonical strings; outcome must be a parse or a positioned error
    rng = random.Random(12345)
    alphabet = string.ascii_lowercase + string.digits + "+-*^=;/. \n xf"
    seeds = [format_map(random_polymap_spec(s)) for s in range(10)]
    seeds.append(f"n = 2; f1 = {MAX_FLOAT} x1 + {MAX_FLOAT} x1; f2 = x2")
    for s in seeds:
        _parse_or_positioned_error(s)
    for k in range(2000):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 6)):
            op = rng.randint(0, 2)
            pos = rng.randrange(max(1, len(text)))
            if op == 0 and text:
                text[pos] = rng.choice(alphabet)
            elif op == 1:
                text.insert(pos, rng.choice(alphabet))
            elif text:
                del text[pos]
        _parse_or_positioned_error("".join(text))


def _parse_or_positioned_error(s):
    try:
        m = parse_map(s)
    except MapDefinitionError as err:
        assert isinstance(err.line, int) and err.line >= 1
        assert isinstance(err.col, int) and err.col >= 1
        return
    # an accepted map's canonical text reparses to the same bits
    back = parse_map(format_map(m))
    assert back.kappa.hex() == m.kappa.hex()
    assert _bits(back.body) == _bits(m.body)


def _bits(poly):
    return [[(c.hex(), e) for c, e in terms] for terms in poly.components]


def test_symbolic_homogeneity_verdict():
    good = parse_map("n = 2; f1 = x1^2; f2 = x1 x2;").body
    v = check_homogeneity_symbolic(good)
    assert bool(v) and v.ok and v.degree == 2 and v.offending == ()

    mixed = PolyMap(2, [[(1.0, (2, 0)), (1.0, (1, 0))], [(1.0, (1, 1))]])
    v2 = check_homogeneity_symbolic(mixed)
    assert not v2.ok and not bool(v2)
    assert (0, (1, 0)) in v2.offending


def test_parse_then_evaluate_matches_direct_construction():
    m = parse_map("n = 2; f1 = x1^2 - x2^2; f2 = 2 x1 x2;")
    import hominv

    direct = hominv.complex_square_map()
    X = np.random.default_rng(0).standard_normal((20, 2))
    assert np.allclose(hominv.eval_map(m, X), hominv.eval_map(direct, X))


#: one row per distinct rejection of ``parse_map``:
#: (text, class, message, line, col, extra attributes)
REJECTIONS = [
    ("n = 2; f1 = x1 # x2; f2 = x2", MapSyntaxError, "unexpected character '#'", 1, 16, {}),
    ("\n\tn = 1;\r\n  f1 = x1 é", MapSyntaxError, "unexpected character 'é'", 3, 11, {}),
    ("kappa 2; n = 1; f1 = x1", MapSyntaxError, "expected '='", 1, 7, {}),
    ("kappa = 2 n = 1; f1 = x1", MapSyntaxError, "expected ';'", 1, 11, {}),
    ("kappa = x1; n = 1; f1 = x1", MapSyntaxError,
     "expected a numeric order after 'kappa='", 1, 9, {}),
    ("f1 = x1", MapSyntaxError, "expected the dimension declaration 'n=<int>'", 1, 1, {}),
    ("n = ; f1 = x1", MapSyntaxError, "expected an integer dimension", 1, 5, {}),
    ("n = 2.5; f1 = x1", MapSyntaxError, "dimension n must be an integer", 1, 5, {}),
    ("n = 0; f1 = x1", MapSyntaxError, "dimension n must be >= 1", 1, 5, {}),
    ("n = 1001; f1 = x1", MapSyntaxError, "dimension n must be at most 1000", 1, 5, {}),
    ("n = 1 f1 = x1", MapSyntaxError, "expected ';' between declarations", 1, 7, {}),
    ("n = 1; f1 = x1 = x1", MapSyntaxError, "expected ';' between declarations", 1, 16, {}),
    ("n = 2; f2 = x1; f1 = x2", MapSyntaxError,
     "expected component 'f1' (components must appear as f1..fn in order)", 1, 8, {}),
    ("n = 1; f1 = x1 + ;", MapSyntaxError, "expected a term", 1, 18, {}),
    ("n = 1; f1 = 2/ x1", MapSyntaxError, "expected a denominator", 1, 16, {}),
    ("kappa = 5/0; n = 1; f1 = x1", MapSyntaxError,
     "zero denominator in rational number", 1, 11, {}),
    ("n = 1; f1 = 1e300/1e-300 x1", MapSyntaxError,
     "numeric value is not a finite real", 1, 13, {}),
    ("n = 1; f1 = 2 * 3", MapSyntaxError, "expected a variable after '*'", 1, 17, {}),
    ("n = 1; f1 = y1", MapSyntaxError, "unknown variable 'y1' (variables are x1..x1)", 1, 13, {}),
    ("n = 2; f1 = x1; f2 = x3", MapSyntaxError, "variable 'x3' is out of range for n=2",
     1, 22, {}),
    ("n = 1; f1 = x1^", MapSyntaxError, "expected an integer exponent", 1, 16, {}),
    ("n = 1; f1 = x1^1.5", MapSyntaxError, "exponent must be a nonnegative integer", 1, 16, {}),
    ("n = 1; f1 = x1^1001", MapSyntaxError, "exponent must be at most 1000", 1, 16, {}),
    ("n = 1; f1 = x1^1000 x1", MapSyntaxError,
     "the total degree of a term must be at most 1000", 1, 21, {}),
    ("n = 2; f1 = x1;", DimensionMismatchError, "declared n=2 but found 1 component(s)",
     1, 5, {}),
    ("n = 2;\nf1 = x1 + x2^2; f2 = x2", MixedDegreeError,
     "monomial x1 in component f1 has total degree 1; every monomial must have the "
     "uniform degree 2", 2, 6, {"component": 1, "exponents": (1, 0)}),
    ("kappa = -1; n = 1; f1 = x1", InvalidKappaError, "kappa must be positive, got -1.0",
     1, 10, {}),
    ("n = 1; f1 = 5", InvalidKappaError,
     "the map is constant (total degree 0); a positive homogeneity order requires "
     "polynomial degree >= 1", 1, 13, {}),
    (b"n = 1; f1 = x1", MapSyntaxError, "map definition must be a string", None, None, {}),
]


@pytest.mark.parametrize("text, cls, message, line, col, extra", REJECTIONS,
                         ids=[f"{row[1].__name__}-{k}" for k, row in enumerate(REJECTIONS)])
def test_every_rejection_keeps_its_class_message_and_position(text, cls, message, line,
                                                               col, extra):
    with pytest.raises(MapDefinitionError) as exc:
        parse_map(text)
    err = exc.value
    where = f"line {line}, col {col}: " if line is not None else ""
    assert type(err) is cls
    assert str(err) == where + message
    assert (err.line, err.col) == (line, col)
    assert {key: getattr(err, key) for key in extra} == extra


def test_every_map_file_example_in_the_readme_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    examples = [b for b in blocks if re.match(r"\s*(kappa|n)\s*=", b)]
    assert examples
    for text in examples:
        parse_map(text)
