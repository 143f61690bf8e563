"""Parsing, formatting, and symbolic degree checking of map definitions.

Grammar (whitespace is insignificant; errors carry 1-based line/column)::

    mapdef   := header? dim (";" comp)* ";"?
    header   := "kappa" "=" SIGNED ";"
    dim      := "n" "=" INT
    comp     := IDENT "=" polyexpr         IDENT must be f1..fn, in order
    polyexpr := ("+"|"-")? term (("+"|"-") term)*
    term     := COEFF? ("*"? factor)*
    factor   := VAR ("^" INT)?             VAR is x1..xn
    COEFF    := REAL ("/" REAL)?           rationals are converted to float

The lexer is one regular expression with a group per token kind, matched
at each position in turn: whitespace (space, tab, CR, LF, FF, VT), an
operator of ``+-*^=;/``, a number (``\\d`` digits, Unicode ones included,
with an optional fraction and exponent), or an identifier; any other
character is an error at its position.  Columns count from the last newline.

A leading sign on the first term and a single trailing semicolon are accepted
so that every canonical rendering reparses to itself.  Coefficients are stored
as floats and must be finite: a number is checked where it stands, and the
merged coefficient of a monomial that repeats in a component, and each
coefficient of the Jacobian (``c * e[j]``, which can overflow), are checked by
``PolyMap``, the error pointing at the monomial's first occurrence.

The canonical form produced by :func:`format_map` lists monomials per
component in descending graded-lexicographic order with merged coefficients
and zero terms dropped; ``parse_map(format_map(p))`` reproduces the term
multiset of ``p`` exactly (and the order ``kappa`` when ``p`` is a
:class:`~hominv.mapcore.MapSpec`).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import (
    DimensionMismatchError,
    InvalidKappaError,
    InvalidParameterError,
    MapSyntaxError,
    MixedDegreeError,
)
from .mapcore import MapSpec, PolyMap, _MAX_DEGREE

__all__ = [
    "parse_map",
    "format_map",
    "check_homogeneity_symbolic",
    "HomogeneityVerdict",
]

#: one alternative per token kind; ``bad`` takes any other single character
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\f\v\n]+)|(?P<op>[-+*^=;/])"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)",
    re.DOTALL,
)
_VAR_RE = re.compile(r"x([0-9]+)\Z")
_INT_RE = re.compile(r"\d+\Z")
#: the largest dimension a map file may give; exponents and a term's total
#: degree are held to ``mapcore._MAX_DEGREE``, the cap of every ``PolyMap``
_MAX_SIZE = 1000


#: ``kind`` is "number", "ident", "op" or "eof"
_Token = namedtuple("_Token", "kind value line col")


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # the line's number and the offset it starts at
    for mo in _TOKEN_RE.finditer(text):
        kind, value, col = mo.lastgroup, mo.group(), mo.start() - line_start + 1
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = mo.start() + value.rindex("\n") + 1
        elif kind == "bad":
            raise MapSyntaxError(f"unexpected character {value!r}", line, col)
        else:
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# raw term: (coefficient, exponent tuple, (line, col) of the term start)
_RawTerm = Tuple[float, Tuple[int, ...], Tuple[int, int]]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._toks = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._toks[self._i]

    def _next(self) -> _Token:
        self._i += 1
        return self._toks[self._i - 1]

    def _accept(self, ops: str) -> _Token | None:
        """The next token, taken, if it is one of the operators ``ops``."""
        tok = self._peek()
        return self._next() if tok.kind == "op" and tok.value in ops else None

    def _expect(self, kind: str, value: str | None = None, what: str | None = None) -> _Token:
        """The next token, taken; it must be of ``kind`` (and be ``value``),
        else "expected <what>", ``what`` defaulting to the quoted value."""
        tok = self._peek()
        if tok.kind != kind or value not in (None, tok.value):
            raise MapSyntaxError(f"expected {what or repr(value)}", tok.line, tok.col)
        return self._next()

    def _sign(self) -> float | None:
        """-1.0 or 1.0 for a ``-`` or ``+`` taken, None when there is none."""
        tok = self._accept("+-")
        return None if tok is None else (-1.0 if tok.value == "-" else 1.0)

    def _value(self, what: str) -> tuple[float, _Token]:
        """A finite number, or a rational ``a/b``, and the token of ``a``."""
        num = self._expect("number", what=what)
        value = float(num.value)
        if self._accept("/"):
            den = self._expect("number", what="a denominator")
            if float(den.value) == 0.0:
                raise MapSyntaxError("zero denominator in rational number", den.line, den.col)
            value /= float(den.value)
        if not math.isfinite(value):
            raise MapSyntaxError("numeric value is not a finite real", num.line, num.col)
        return value, num

    def _capped_int(self, what: str, name: str, integer: str, cap: int) -> tuple[int, _Token]:
        """The value of a number token that is an integer of at most ``cap``,
        and the token; "<name> must be <integer>" for any other number."""
        tok = self._expect("number", what=what)
        if not _INT_RE.match(tok.value):
            raise MapSyntaxError(f"{name} must be {integer}", tok.line, tok.col)
        value = _bounded_int(tok.value, cap)
        if value > cap:
            raise MapSyntaxError(f"{name} must be at most {cap}", tok.line, tok.col)
        return value, tok

    def parse(self) -> MapSpec:
        kappa = kappa_tok = None
        if self._peek().value == "kappa":  # only an identifier reads so
            self._next()
            self._expect("op", "=")
            sign = self._sign() or 1.0
            kappa, kappa_tok = self._value("a numeric order after 'kappa='")
            kappa *= sign
            self._expect("op", ";")
        self._expect("ident", "n", "the dimension declaration 'n=<int>'")
        self._expect("op", "=")
        n, n_tok = self._capped_int("an integer dimension", "dimension n", "an integer",
                                    _MAX_SIZE)
        if n < 1:
            raise MapSyntaxError("dimension n must be >= 1", n_tok.line, n_tok.col)

        components: list[list[_RawTerm]] = []
        while self._accept(";") and self._peek().kind != "eof":  # one trailing ';' is allowed
            components.append(self._component(len(components) + 1, n))
        self._expect("eof", what="';' between declarations")

        if len(components) != n:
            raise DimensionMismatchError(
                f"declared n={n} but found {len(components)} component(s)",
                n_tok.line,
                n_tok.col,
            )
        return _build(n, components, kappa, kappa_tok)

    def _component(self, index: int, n: int) -> list[_RawTerm]:
        self._expect("ident", f"f{index}", f"component 'f{index}' "
                     "(components must appear as f1..fn in order)")
        self._expect("op", "=")
        terms = [self._term(self._sign() or 1.0, n)]
        while (sign := self._sign()) is not None:
            terms.append(self._term(sign, n))
        return terms

    def _term(self, sign: float, n: int) -> _RawTerm:
        start = self._peek()
        if start.kind not in ("number", "ident"):
            raise MapSyntaxError("expected a term", start.line, start.col)
        coeff = sign * self._value("a coefficient")[0] if start.kind == "number" else sign
        exps = [0] * n
        while self._accept("*") or self._peek().kind == "ident":
            self._factor(self._expect("ident", what="a variable after '*'"), exps, n)
        return coeff, tuple(exps), (start.line, start.col)

    def _factor(self, tok: _Token, exps: list[int], n: int) -> None:
        mo = _VAR_RE.match(tok.value)
        if not mo:
            raise MapSyntaxError(
                f"unknown variable '{tok.value}' (variables are x1..x{n})", tok.line, tok.col
            )
        idx = _bounded_int(mo.group(1), n)
        if not 1 <= idx <= n:
            raise MapSyntaxError(
                f"variable '{tok.value}' is out of range for n={n}", tok.line, tok.col
            )
        power = 1
        if self._accept("^"):
            power, tok = self._capped_int("an integer exponent", "exponent",
                                          "a nonnegative integer", _MAX_DEGREE)
        exps[idx - 1] += power
        if sum(exps) > _MAX_DEGREE:
            raise MapSyntaxError(f"the total degree of a term must be at most {_MAX_DEGREE}",
                                 tok.line, tok.col)


def _bounded_int(digits: str, cap: int) -> int:
    """The value of a digit string, or ``cap + 1`` for any larger value:
    ``int`` refuses strings of more than 4300 digits."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(cap)) else cap + 1


def _mono_text(exponents: Tuple[int, ...]) -> str:
    facs = [
        f"x{j + 1}" + (f"^{e}" if e > 1 else "")
        for j, e in enumerate(exponents)
        if e > 0
    ]
    return "*".join(facs) if facs else "1"


def _build(
    n: int,
    raw_components: list[list[_RawTerm]],
    kappa: float | None,
    kappa_tok: _Token | None,
) -> MapSpec:
    if kappa is not None and kappa <= 0.0:
        assert kappa_tok is not None
        raise InvalidKappaError(
            f"kappa must be positive, got {kappa!r}", kappa_tok.line, kappa_tok.col
        )
    # PolyMap merges repeated monomials; the parser keeps where each first appeared
    first: dict[Tuple[int, Tuple[int, ...]], Tuple[int, int]] = {}
    for i, raw in enumerate(raw_components):
        for _, e, pos in raw:
            first.setdefault((i, e), pos)
    try:
        poly = PolyMap(n, [[(c, e) for c, e, _ in raw] for raw in raw_components])
    except InvalidParameterError as err:  # the one left: a coefficient that is not finite
        i, e, what = err._monomial
        what = "merged coefficient" if what == "coefficient" else what
        raise MapSyntaxError(f"the {what} of {_mono_text(e)} in component "
                             f"f{i + 1} is not a finite real", *first[i, e]) from None
    verdict = check_homogeneity_symbolic(poly)
    if verdict.offending:
        i, e = min(verdict.offending, key=first.__getitem__)
        raise MixedDegreeError(
            f"monomial {_mono_text(e)} in component f{i + 1} has total degree "
            f"{sum(e)}; every monomial must have the uniform degree {verdict.degree}",
            *first[i, e],
            component=i + 1,
            exponents=e,
        )
    if verdict.degree == 0:
        raise InvalidKappaError(
            "the map is constant (total degree 0); a positive homogeneity "
            "order requires polynomial degree >= 1",
            *min(first[i, e] for i, terms in enumerate(poly.components) for _, e in terms),
        )
    return MapSpec(poly, kappa=kappa)


def parse_map(text: str) -> MapSpec:
    """Parse a textual map definition.

    Returns a :class:`~hominv.mapcore.MapSpec` with a polynomial body.  Any
    invalid input raises a :class:`~hominv.errors.MapDefinitionError` subclass
    carrying the 1-based source position:

    * :class:`~hominv.errors.MapSyntaxError` -- the text does not match the
      grammar (also used for unknown/out-of-range variables and for a
      coefficient, given, merged or of the Jacobian, that is not finite);
    * :class:`~hominv.errors.MixedDegreeError` -- a monomial breaks the
      uniform total degree, named in the message;
    * :class:`~hominv.errors.DimensionMismatchError` -- component count
      differs from the declared ``n``;
    * :class:`~hominv.errors.InvalidKappaError` -- ``kappa <= 0`` (or a
      constant map, whose default order would be 0).

    The all-zero map parses successfully (with ``degree = 1`` by convention)
    and is rejected later, at hypothesis-checking time.
    """
    if not isinstance(text, str):
        raise MapSyntaxError("map definition must be a string")
    return _Parser(_lex(text)).parse()


def _fmt_float(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def _fmt_term(coeff: float, exponents: Tuple[int, ...]) -> tuple[str, str]:
    """Return (sign, body) with sign in {'+', '-'} and body unsigned."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    mono = _mono_text(exponents)
    if mono == "1":
        return sign, _fmt_float(mag)
    return sign, mono if mag == 1.0 else f"{_fmt_float(mag)}*{mono}"


def _fmt_poly(terms) -> str:
    if not terms:
        return "0"
    pieces = []
    for k, (coeff, exponents) in enumerate(terms):
        sign, body = _fmt_term(coeff, exponents)
        if k == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def format_map(p: Union[PolyMap, MapSpec]) -> str:
    """Render a polynomial map in canonical text form.

    Monomials appear per component in descending graded-lexicographic order
    with merged coefficients and zero terms dropped (an identically zero
    component renders as ``0``).  The ``kappa=...;`` header is emitted only
    when the order differs from the polynomial degree.  Floats that carry a
    fractional part are rendered with ``repr`` so that reparsing is exact.
    """
    if isinstance(p, MapSpec):
        if not isinstance(p.body, PolyMap):
            raise InvalidParameterError("only polynomial bodies have a textual form")
        poly = p.body
        kappa = p.kappa
    elif isinstance(p, PolyMap):
        poly = p
        kappa = float(p.degree)
    else:
        raise InvalidParameterError("format_map expects a PolyMap or MapSpec")
    parts = []
    if kappa != float(poly.degree):
        parts.append(f"kappa={_fmt_float(kappa)}")
    parts.append(f"n={poly.n}")
    for i, terms in enumerate(poly.components):
        parts.append(f"f{i + 1} = {_fmt_poly(terms)}")
    return "; ".join(parts)


@dataclass(frozen=True)
class HomogeneityVerdict:
    """Outcome of the exact degree check.

    ``degree`` is the largest total degree present; ``offending`` lists
    ``(component_index, exponent_tuple)`` for every monomial whose total
    degree differs from it (0-based component index).  ``ok`` is true iff that
    list is empty.
    """

    ok: bool
    degree: int
    offending: tuple

    def __bool__(self) -> bool:
        return self.ok


def check_homogeneity_symbolic(p: Union[PolyMap, MapSpec]) -> HomogeneityVerdict:
    """Exact uniform-degree check on the monomials of a polynomial map.

    This is a symbolic verdict: no sampling, no tolerances.  A map passes iff
    every monomial (after canonical merging) has the same total degree, which
    together with the radial weight makes the evaluated map exactly
    positively homogeneous.
    """
    poly = p.body if isinstance(p, MapSpec) else p
    if not isinstance(poly, PolyMap):
        raise InvalidParameterError("check_homogeneity_symbolic expects a polynomial map")
    monos = [(i, e) for i, terms in enumerate(poly.components) for _, e in terms]
    if not monos:
        return HomogeneityVerdict(True, poly.degree, ())
    d = max(sum(e) for _, e in monos)
    offending = tuple((i, e) for i, e in monos if sum(e) != d)
    return HomogeneityVerdict(not offending, d, offending)
