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

A leading sign on the first term and a single trailing semicolon are accepted
so that every canonical rendering reparses to itself.  Coefficients are stored
as floats.

The canonical form produced by :func:`format_map` lists monomials per
component in descending graded-lexicographic order with merged coefficients
and zero terms dropped; ``parse_map(format_map(p))`` reproduces the term
multiset of ``p`` exactly (and the order ``kappa`` when ``p`` is a
:class:`~hominv.mapcore.MapSpec`).
"""

from __future__ import annotations

import math
import re
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

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_RE = re.compile(r"x([0-9]+)\Z")
_INT_RE = re.compile(r"\d+\Z")
_OPS = "+-*^=;/"
#: the largest dimension a map file may give; exponents and a term's total
#: degree are held to ``mapcore._MAX_DEGREE``, the cap of every ``PolyMap``
_MAX_SIZE = 1000


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        mo = _NUMBER_RE.match(text, i)
        if mo:
            tokens.append(_Token("number", mo.group(), line, col))
            col += mo.end() - i
            i = mo.end()
            continue
        mo = _IDENT_RE.match(text, i)
        if mo:
            tokens.append(_Token("ident", mo.group(), line, col))
            col += mo.end() - i
            i = mo.end()
            continue
        raise MapSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
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
        tok = self._toks[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def _expect_op(self, op: str) -> _Token:
        tok = self._peek()
        if tok.kind != "op" or tok.value != op:
            raise MapSyntaxError(f"expected '{op}'", tok.line, tok.col)
        return self._next()

    def _number(self, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != "number":
            raise MapSyntaxError(f"expected {what}", tok.line, tok.col)
        return self._next()

    def _signed_value(self, what: str) -> tuple[float, _Token]:
        sign = 1.0
        tok = self._peek()
        if tok.kind == "op" and tok.value in "+-":
            self._next()
            sign = 1.0 if tok.value == "+" else -1.0
        value, num = self._value(what)
        return sign * value, num

    def _value(self, what: str) -> tuple[float, _Token]:
        """A finite number, or a rational ``a/b``, and the token of ``a``."""
        num = self._number(what)
        value = float(num.value)
        if self._peek().kind == "op" and self._peek().value == "/":
            self._next()
            den_tok = self._number("a denominator")
            den = float(den_tok.value)
            if den == 0.0:
                raise MapSyntaxError("zero denominator in rational number", den_tok.line, den_tok.col)
            value /= den
        if not math.isfinite(value):
            raise MapSyntaxError("numeric value is not a finite real", num.line, num.col)
        return value, num

    def parse(self) -> MapSpec:
        kappa: float | None = None
        kappa_tok: _Token | None = None
        tok = self._peek()
        if tok.kind == "ident" and tok.value == "kappa":
            self._next()
            self._expect_op("=")
            kappa, kappa_tok = self._signed_value("a numeric order after 'kappa='")
            self._expect_op(";")
            tok = self._peek()
        if tok.kind != "ident" or tok.value != "n":
            raise MapSyntaxError("expected the dimension declaration 'n=<int>'", tok.line, tok.col)
        self._next()
        self._expect_op("=")
        n_tok = self._number("an integer dimension")
        if not _INT_RE.match(n_tok.value):
            raise MapSyntaxError("dimension n must be an integer", n_tok.line, n_tok.col)
        n = _bounded_int(n_tok.value, _MAX_SIZE)
        if n < 1:
            raise MapSyntaxError("dimension n must be >= 1", n_tok.line, n_tok.col)
        if n > _MAX_SIZE:
            raise MapSyntaxError(f"dimension n must be at most {_MAX_SIZE}", n_tok.line, n_tok.col)

        components: list[list[_RawTerm]] = []
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind == "op" and tok.value == ";":
                self._next()
                if self._peek().kind == "eof":
                    break  # trailing semicolon
                components.append(self._component(len(components) + 1, n))
                continue
            raise MapSyntaxError("expected ';' between declarations", tok.line, tok.col)

        if len(components) != n:
            raise DimensionMismatchError(
                f"declared n={n} but found {len(components)} component(s)",
                n_tok.line,
                n_tok.col,
            )
        return _build(n, components, kappa, kappa_tok)

    def _component(self, index: int, n: int) -> list[_RawTerm]:
        tok = self._next()
        if tok.kind != "ident" or tok.value != f"f{index}":
            raise MapSyntaxError(
                f"expected component 'f{index}' (components must appear as f1..fn in order)",
                tok.line,
                tok.col,
            )
        self._expect_op("=")
        return self._polyexpr(n)

    def _polyexpr(self, n: int) -> list[_RawTerm]:
        terms = []
        sign = 1.0
        tok = self._peek()
        if tok.kind == "op" and tok.value in "+-":
            self._next()
            sign = 1.0 if tok.value == "+" else -1.0
        terms.append(self._term(sign, n))
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.value in "+-":
                self._next()
                terms.append(self._term(1.0 if tok.value == "+" else -1.0, n))
            else:
                return terms

    def _term(self, sign: float, n: int) -> _RawTerm:
        start = self._peek()
        if start.kind not in ("number", "ident"):
            raise MapSyntaxError("expected a term", start.line, start.col)
        coeff = sign
        if start.kind == "number":
            coeff *= self._value("a coefficient")[0]
        exps = [0] * n
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.value == "*":
                self._next()
                nxt = self._peek()
                if nxt.kind != "ident":
                    raise MapSyntaxError("expected a variable after '*'", nxt.line, nxt.col)
                self._factor(exps, n)
            elif tok.kind == "ident":
                self._factor(exps, n)
            else:
                break
        return coeff, tuple(exps), (start.line, start.col)

    def _factor(self, exps: list[int], n: int) -> None:
        tok = self._next()  # known to be an ident
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
        if self._peek().kind == "op" and self._peek().value == "^":
            self._next()
            tok = self._number("an integer exponent")
            if not _INT_RE.match(tok.value):
                raise MapSyntaxError(
                    "exponent must be a nonnegative integer", tok.line, tok.col
                )
            power = _bounded_int(tok.value, _MAX_DEGREE)
            if power > _MAX_DEGREE:
                raise MapSyntaxError(f"exponent must be at most {_MAX_DEGREE}", tok.line, tok.col)
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
    poly = PolyMap(n, [[(c, e) for c, e, _ in raw] for raw in raw_components])
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
      grammar (also used for unknown/out-of-range variables);
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
