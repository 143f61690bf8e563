"""Map definition grammar: parsing, canonical formatting, degree checking."""

import random
import string

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


def test_fuzzed_inputs_never_crash():
    # mutate canonical strings; outcome must be a parse or a positioned error
    rng = random.Random(12345)
    alphabet = string.ascii_lowercase + string.digits + "+-*^=;/. \n xf"
    seeds = [format_map(random_polymap_spec(s)) for s in range(10)]
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
        s = "".join(text)
        try:
            parse_map(s)
        except MapDefinitionError as err:
            assert isinstance(err.line, int) and err.line >= 1
            assert isinstance(err.col, int) and err.col >= 1


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
