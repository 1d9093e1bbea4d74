"""Concrete syntax for both formula languages.

Hybrid:   ``p``, ``x``, ``c1``, ``!f``, ``f & g``, ``f | g``, ``box f``,
          ``dia f``, ``boxinv f``, ``diainv f``, ``down x. f``, ``@x f``, ``@c1 f``.

First-order: ``R(t1,..,tn)``, ``t = u``, ``true``, ``false``, ``!``, ``&``, ``|``,
          ``->`` (sugar for ``!a | b``), ``forall y (E(t,y) -> f)``,
          ``exists y (E(t,y) & f)``, ``exists>=3 y (E(t,y) & f)``, and the
          accessibility guard ``acc(t1,..,tn; y)``.

``&`` binds tighter than ``|``, both associate to the left, and ``->``
binds loosest and associates to the right.

Identifier classification: ``c``+digits is a nominal/constant; a single letter
from ``x y z u v w`` (optionally digit-suffixed) is a world/first-order
variable in hybrid syntax; anything else is a propositional atom.  In
first-order syntax every identifier that is neither a constant nor a
keyword is a variable (``syntax.is_variable_name``), bound or not, and the
node constructors refuse any other variable name.  Quantifiers
whose body starts with a binary atom over the bound variable in exactly one
position are classified as bounded quantifier nodes; the printer reverses
this, so ASTs round-trip.

Both parsers read one token list.  The tokenizer splits the text with a
single ``findall`` and checks that the tokens and the whitespace make up the
whole text; a token is its text, and its kind is read from its
first character (a letter or ``_`` for an identifier, a digit for a number,
anything else for an operator), with ``""`` marking the end.  Positions are
found again, by scanning the text, only when a ``ParseError`` reports one.
The parsers are recursive descent and share ``_Parser.formula`` and one
``&``/``|`` loop, ``_Parser.expr``, which builds each language's own nodes
and, in first-order syntax, the optional right-nested ``->``.  A
parenthesized operand costs two Python frames.  The two printers likewise
share ``_infix`` for ``&`` and ``|``.
"""
from __future__ import annotations

import re
import string
from typing import NoReturn

from .errors import ParseError, ScopeError
from . import syntax as sx

_TOKEN = rf"{sx.IDENTIFIER}|[0-9]+|->|>=|[().,;=&|!@]"
_TOKEN_RE = re.compile(_TOKEN)
#: the longest prefix of a text made of tokens and whitespace
_TOKENS_PREFIX_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")
_ID_START = frozenset(string.ascii_letters + "_")

_MODALITIES = {"box": sx.Box, "dia": sx.Dia, "boxinv": sx.BoxInv, "diainv": sx.DiaInv}
_MODALITY_NAMES = {cls: name for name, cls in _MODALITIES.items()}

_WORLD_VAR_RE = re.compile(r"^[xyzuvw][0-9]*$")


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then ``""`` for the end."""
    tokens = _TOKEN_RE.findall(text)
    # tokens hold no whitespace and do not overlap, so they cover every
    # other character exactly when their lengths add up to its count
    if len("".join(tokens)) != len("".join(text.split())):
        end = _TOKENS_PREFIX_RE.match(text).end()
        raise ParseError(f"unexpected character {text[end]!r}", end)
    tokens.append("")
    return tokens


def _found(tok: str) -> str:
    return repr(tok or "end of input")


class _Parser:
    implies = False  # whether ``->`` may follow an ``&``/``|`` chain

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def fail(self, message: str, at: int) -> NoReturn:
        """Raise a ``ParseError`` at the position of token ``at``."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        raise ParseError(message, (starts + [len(self.text)])[at])

    def expect(self, op: str) -> None:
        tok = self.tokens[self.i]
        self.i += 1
        if tok != op:
            self.fail(f"expected {op!r}, found {_found(tok)}", self.i - 1)

    def done(self) -> None:
        tok = self.tokens[self.i]
        if tok:
            self.fail(f"unexpected trailing input {tok!r}", self.i)

    def indexed(self, tok: str, at: int, kind=sx.Nom):
        """The ``kind`` node (a nominal, or ``sx.Const``) that a ``c<digits>``
        token at ``at`` names, else ``None``.  Index 0 names no basepoint and
        fails there, as does a leading zero, so each index has one
        spelling."""
        m = sx.INDEXED_RE.match(tok)
        if m is None:
            return None
        digits = m.group(1)
        if int(digits) == 0:
            self.fail(f"{tok!r} names no basepoint: indices start at 1", at)
        if digits[0] == "0":
            self.fail(f"{tok!r} has a leading zero", at)
        return kind(int(digits))

    def formula(self):
        f = self.expr()
        self.done()
        return f

    def expr(self):
        """Operands joined by ``&`` and ``|`` into the subclass's ``conj``
        and ``disj`` nodes, ``&`` binding tighter and both associating to the
        left; then, where ``implies`` is set, optionally ``->`` and the rest,
        which it binds loosest.  The one loop stays in this frame, so with
        ``unary`` a parenthesized operand costs two Python frames."""
        tokens = self.tokens
        f = None
        while True:
            g = self.unary()
            while tokens[self.i] == "&":
                self.i += 1
                g = self.conj(g, self.unary())
            f = g if f is None else self.disj(f, g)
            if tokens[self.i] != "|":
                break
            self.i += 1
        if tokens[self.i] == "->" and self.implies:
            self.i += 1
            return sx.Or(sx.Not(f), self.expr())
        return f


# -- hybrid --------------------------------------------------------------------


class _HybridParser(_Parser):
    conj, disj = sx.Conj, sx.Disj

    def unary(self) -> sx.HybridFormula:
        tok = self.tokens[self.i]
        self.i += 1
        if tok == "!":
            return sx.Neg(self.unary())
        if tok == "@":
            anchor = self.name_ref()
            return sx.At(anchor, self.unary())
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok[:1] not in _ID_START:
            self.fail(f"expected a formula, found {_found(tok)}", self.i - 1)
        if tok in _MODALITIES:
            return _MODALITIES[tok](self.unary())
        if tok == "down":
            var = self.tokens[self.i]
            self.i += 1
            if not _WORLD_VAR_RE.match(var):
                self.fail(f"expected a world variable after 'down', found {var!r}", self.i - 1)
            self.expect(".")
            return sx.Bind(var, self.expr())
        return self.name(tok, self.i - 1) or sx.Atom(tok)

    def name_ref(self) -> sx.HybridFormula:
        tok = self.tokens[self.i]
        self.i += 1
        if tok[:1] not in _ID_START:
            self.fail(f"expected a world variable or nominal, found {tok!r}", self.i - 1)
        ref = self.name(tok, self.i - 1)
        if ref is None:
            self.fail(f"{tok!r} is neither a world variable nor a nominal", self.i - 1)
        return ref

    def name(self, tok: str, at: int) -> sx.HybridFormula | None:
        """The nominal or world variable that the identifier ``tok`` at
        ``at`` names, else ``None``."""
        nominal = self.indexed(tok, at)
        if nominal is not None:
            return nominal
        if _WORLD_VAR_RE.match(tok):
            return sx.WVar(tok)
        return None


def parse_hybrid(
    text: str, closed: bool = True, num_nominals: int | None = None
) -> sx.HybridFormula:
    """Parse a hybrid formula.  With ``closed`` (the default), unbound world
    variables are a scope error; ``num_nominals`` bounds the nominal indices."""
    f = _HybridParser(text).formula()
    if closed:
        free = sorted(sx.free_world_vars(f))
        if free:
            raise ScopeError(f"unbound world variable {free[0]!r} in a closed formula")
    if num_nominals is not None:
        top = sx.max_nominal(f)
        if top > num_nominals:
            raise ScopeError(
                f"nominal c{top} out of range: structure has {num_nominals} basepoints"
            )
    return f


# -- first-order ------------------------------------------------------------------


class _FOParser(_Parser):
    conj, disj, implies = sx.And, sx.Or, True

    def __init__(self, text: str):
        super().__init__(text)
        self.terms: dict[str, sx.Term] = {}  # token -> term, for this text

    def unary(self) -> sx.FOFormula:
        tokens = self.tokens
        tok = tokens[self.i]
        self.i += 1
        if tok == "!":
            return sx.Not(self.unary())
        if tok == "(":
            f = self.expr()
            self.expect(")")
            return f
        if tok[:1] not in _ID_START:
            self.fail(f"expected a formula, found {_found(tok)}", self.i - 1)
        if tok == "forall" or tok == "exists":
            return self.quantifier(tok)
        if tok == "true":
            return sx.TRUE
        if tok == "false":
            return sx.FALSE
        if tok == "acc":
            self.expect("(")
            sources = self.term_list()
            self.expect(";")
            var = self.variable()
            self.expect(")")
            return sx.Acc(sources, var)
        if tokens[self.i] == "(":
            self.i += 1
            args = self.term_list()
            self.expect(")")
            return sx.Rel(tok, args)
        left = self.indexed(tok, self.i - 1, sx.Const) or sx.Var(tok)
        self.expect("=")
        return sx.Eq(left, self.term())

    def variable(self) -> str:
        tok = self.tokens[self.i]
        self.i += 1
        if not sx.is_variable_name(tok):
            self.fail(f"expected a variable, found {tok!r}", self.i - 1)
        return tok

    def quantifier(self, kw: str) -> sx.FOFormula:
        count = None
        if kw == "exists" and self.tokens[self.i] == ">=":
            num = self.tokens[self.i + 1]
            self.i += 2
            if not num[:1].isdigit():
                self.fail(f"expected a count after '>=', found {num!r}", self.i - 1)
            count = int(num)
            if count < 1:
                self.fail("counting threshold must be at least 1", self.i - 1)
        var = self.variable()
        at = self.i - 1
        body = self.unary()
        guarded = type(body) is sx.And and sx.guard_shape(body.left, var) is not None
        if count is not None:
            if guarded:
                return sx.CountExists(count, var, body.left, body.right)
            self.fail(
                "counting quantifier requires a guarded body of the form (E(t,y) & f)", at
            )
        if kw == "exists":
            if guarded:
                return sx.BoundedExists(var, body.left, body.right)
            return sx.Exists(var, body)
        if (
            type(body) is sx.Or
            and type(body.left) is sx.Not
            and sx.guard_shape(body.left.sub, var) is not None
        ):
            return sx.BoundedForall(var, body.left.sub, body.right)
        return sx.Forall(var, body)

    def term_list(self) -> tuple[sx.Term, ...]:
        """A comma-separated list of one or more terms."""
        out = [self.term()]
        while self.tokens[self.i] == ",":
            self.i += 1
            out.append(self.term())
        return tuple(out)

    def term(self) -> sx.Term:
        tok = self.tokens[self.i]
        self.i += 1
        t = self.terms.get(tok)
        if t is None:
            if tok[:1] not in _ID_START or tok in sx.FO_KEYWORDS:
                self.fail(f"expected a term, found {_found(tok)}", self.i - 1)
            t = self.terms[tok] = self.indexed(tok, self.i - 1, sx.Const) or sx.Var(tok)
        return t


def parse_fo(text: str) -> sx.FOFormula:
    return _FOParser(text).formula()


def parse_term(text: str) -> sx.Term:
    """A first-order term on its own: ``c<n>`` with n >= 1 is a constant, and
    any other identifier that is not a keyword is a variable."""
    p = _FOParser(text)
    t = p.term()
    p.done()
    return t


# -- printers ----------------------------------------------------------------------

# gaps leave room for the +1 "right operand" levels without colliding with
# the unary level, where equality atoms need wrapping
_PREC_OR = 10
_PREC_AND = 20
_PREC_UNARY = 30


#: The ``&`` and ``|`` nodes of both languages: operator and precedence level.
_INFIX = {
    **dict.fromkeys((sx.Conj, sx.And), ("&", _PREC_AND)),
    **dict.fromkeys((sx.Disj, sx.Or), ("|", _PREC_OR)),
}


def _infix(show, f, prec: int) -> str:
    """An ``&`` or ``|`` node, its operands printed by ``show``, in
    parentheses when ``prec`` binds tighter.  An operand that is itself
    ``&`` or ``|`` is printed here directly, so a nesting level costs one
    Python frame, as any other node does."""
    op, level = _INFIX[type(f)]
    # right operands print one level tighter so nesting direction
    # survives the left-associative reparse; guarded-quantifier bodies
    # likewise, so the guard classification sees the same split
    sides = []
    for g, at in ((f.left, level), (f.right, level + 1)):
        sides.append(_infix(show, g, at) if type(g) in _INFIX else show(g, at))
    body = f"{sides[0]} {op} {sides[1]}"
    return f"({body})" if prec > level else body


def print_hybrid(f: sx.HybridFormula) -> str:
    return _ph(f, 0)


def _ph(f: sx.HybridFormula, prec: int) -> str:
    if isinstance(f, sx.Atom):
        return f.name
    if isinstance(f, sx.WVar):
        return f.name
    if isinstance(f, sx.Nom):
        return f"c{f.index}"
    if isinstance(f, sx.Neg):
        return f"!{_ph(f.sub, _PREC_UNARY)}"
    if type(f) in _INFIX:
        return _infix(_ph, f, prec)
    name = _MODALITY_NAMES.get(type(f))
    if name is not None:
        return f"{name} {_ph(f.sub, _PREC_UNARY)}"
    if isinstance(f, sx.Bind):
        body = f"down {f.var}. {_ph(f.sub, 0)}"
        return f"({body})" if prec > 0 else body
    if isinstance(f, sx.At):
        return f"@{_ph(f.anchor, _PREC_UNARY)} {_ph(f.sub, _PREC_UNARY)}"
    raise TypeError(f"not a hybrid formula: {f!r}")


def print_term(t: sx.Term) -> str:
    if isinstance(t, sx.Var):
        return t.name
    if isinstance(t, sx.Const):
        return f"c{t.index}"
    raise TypeError(f"not a term: {t!r}")


def print_fo(f: sx.FOFormula) -> str:
    return _pf(f, 0)


def _pf(f: sx.FOFormula, prec: int) -> str:
    if isinstance(f, sx.Rel):
        return f"{f.name}({','.join(print_term(t) for t in f.args)})"
    if isinstance(f, sx.Eq):
        body = f"{print_term(f.left)} = {print_term(f.right)}"
        return f"({body})" if prec >= _PREC_UNARY else body
    if isinstance(f, sx.Top):
        return "true"
    if isinstance(f, sx.Bottom):
        return "false"
    if isinstance(f, sx.Acc):
        return f"acc({','.join(print_term(t) for t in f.sources)}; {f.var})"
    if isinstance(f, sx.Not):
        return f"!{_pf(f.sub, _PREC_UNARY)}"
    if type(f) in _INFIX:
        return _infix(_pf, f, prec)
    if isinstance(f, sx.Forall):
        return f"forall {f.var} ({_pf(f.body, 0)})"
    if isinstance(f, sx.Exists):
        return f"exists {f.var} ({_pf(f.body, 0)})"
    if isinstance(f, sx.BoundedForall):
        return f"forall {f.var} ({_pf(f.guard, _PREC_OR)} -> {_pf(f.body, _PREC_OR + 1)})"
    if isinstance(f, sx.BoundedExists):
        return f"exists {f.var} ({_pf(f.guard, _PREC_AND)} & {_pf(f.body, _PREC_AND + 1)})"
    if isinstance(f, sx.CountExists):
        return (
            f"exists>={f.count} {f.var} "
            f"({_pf(f.guard, _PREC_AND)} & {_pf(f.body, _PREC_AND + 1)})"
        )
    raise TypeError(f"not a first-order formula: {f!r}")
