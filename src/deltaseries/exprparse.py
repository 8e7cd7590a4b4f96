"""A small expression language for delta series given on the command line.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" exponent)?
    atom   := number | "t" | "lambda" | "(" expr ")" | ident "(" expr ")"
    ident  := "exp" | "log" | "sqrt"
    exponent := integer | "(" rational ")"

Binary operators are left-associative and "^" binds tighter than unary
minus, so "-t^2" is -(t^2).  "2t" is a syntax error; write "2*t".

A tree is made of plain values.  A leaf is a ``Fraction`` (a number), "t"
or "lambda"; a node is a tuple tagged by its first item: ``("neg", a)``,
``(op, a, b)`` for op in "+ - * /", ``("^", a, q)`` with q a ``Fraction``
and ``(fn, a)`` for fn in ``FUNCTIONS``.  Equality and hashing are the
tuples' own, so "t - 1" and "t-1" parse to equal trees.
"""

from __future__ import annotations

from fractions import Fraction

from . import fps
from . import scalar as sc
from .errors import DeltaSeriesError, DivisionByZero, ExprSyntaxError, LambdaModeRequired, UnknownFunction

FUNCTIONS = ("exp", "log", "sqrt")

# Deepest nesting (parentheses, calls, unary minus) and tree height accepted.
# The parser spends four Python frames per level of parentheses or calls
# (binary at both levels, unary, atom) and one per unary minus.  The tree
# walkers spend at most three per level (_eval, _eval_node, _eval_div) and
# pretty two; no Python walker compares trees, as == is the tuples' own and
# takes one level of the recursion limit per tree level.  At 150 parsing
# needs about 600 frames, under the default recursion limit, and 128-term
# sums still parse.
MAX_DEPTH = 150

_SUMS = ("+", "-")
_PRODUCTS = ("*", "/")
_BINARY = _SUMS + _PRODUCTS


# ---------------------------------------------------------------------------
# tokenizer / parser: a token is (kind, text, offset)

_SYMBOLS = "+-*/^()"


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and (src[j].isalpha() or src[j] == "_"):
                raise ExprSyntaxError("missing operator (no implicit multiplication)", j, ("operator",))
            try:
                int(src[i:j])
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ExprSyntaxError("integer literal of %d digits is too long" % (j - i), i,
                                      ("shorter integer",)) from None
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i, ("token",))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError("expected %r, found %r" % (kind, tok[1] or "end of input"), tok[2], (kind,))
        return tok

    def binary(self, level=0):
        """A sum of terms (level 0) or a product of unaries (level 1),
        left-associative."""
        ops = _SUMS if level == 0 else _PRODUCTS
        e = self.binary(1) if level == 0 else self.unary()
        while self.peek() in ops:
            op = self.advance()[0]
            e = (op, e, self.binary(1) if level == 0 else self.unary())
        return e

    def unary(self):
        # every recursive rule passes through here, so this bounds the recursion
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError("nested deeper than %d levels" % MAX_DEPTH, self.tokens[self.pos][2],
                                  ("shallower nesting",))
        if self.peek() == "-":
            self.pos += 1
            e = ("neg", self.unary())
        else:
            e = self.atom()
            if self.peek() == "^":
                self.pos += 1
                e = ("^", e, self.exponent())
        self.depth -= 1
        return e

    def exponent(self):
        kind, text, offset = self.advance()
        if kind == "int":
            return Fraction(text)
        if kind == "-":
            return -Fraction(self.expect("int")[1])
        if kind != "(":
            raise ExprSyntaxError("expected exponent, found %r" % (text or "end of input"), offset, ("int", "("))
        negative = self.peek() == "-"
        if negative:
            self.pos += 1
        q = Fraction(self.expect("int")[1])
        if self.peek() == "/":
            self.pos += 1
            _, text, offset = self.expect("int")
            if int(text) == 0:
                raise ExprSyntaxError("zero denominator", offset, ("nonzero integer",))
            q /= int(text)
        self.expect(")")
        return -q if negative else q

    def atom(self):
        kind, text, offset = self.advance()
        fn = None
        if kind == "name" and text not in ("t", "lambda"):
            if self.peek() != "(":
                raise ExprSyntaxError("unknown name %r" % text, offset, ("t", "lambda") + FUNCTIONS)
            if text not in FUNCTIONS:
                raise UnknownFunction("unknown function %r" % text)
            fn, (kind, text, offset) = text, self.advance()
        if kind == "int":
            return Fraction(text)
        if kind == "name":
            return text
        if kind != "(":
            raise ExprSyntaxError("expected a value, found %r" % (text or "end of input"), offset,
                                  ("int", "name", "("))
        e = self.binary()
        self.expect(")")
        return (fn, e) if fn else e


def parse(src):
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, ("expression",))
    p = _Parser(src)
    tree = p.binary()
    kind, text, offset = p.advance()
    if kind != "end":
        raise ExprSyntaxError("trailing input %r" % text, offset, ("end",))
    if _height(tree) > MAX_DEPTH:
        raise ExprSyntaxError("expression tree deeper than %d levels" % MAX_DEPTH, 0, ("shallower expression",))
    return tree


def _height(e):
    """Height of the tree, found level by level without recursion: flat sums
    and products parse in a loop but make left-deep trees."""
    height, level = 0, [e]
    while level:
        height += 1
        level = [k for node in level if isinstance(node, tuple) for k in node[1:2 if node[0] == "^" else 3]]
    return height


# ---------------------------------------------------------------------------
# pretty printer

def _is_pow_atom(e):
    if isinstance(e, tuple):
        return e[0] in FUNCTIONS
    return isinstance(e, str) or (e >= 0 and e.denominator == 1)


def pretty(e):
    """Render a tree back to source; reparsing gives the same tree."""
    if isinstance(e, Fraction):
        return "-" + _frac_text(-e) if e < 0 else _frac_text(e)
    if isinstance(e, str):
        return e
    tag = e[0]
    if tag == "neg":
        return "-" + _wrap(e[1], _BINARY)
    if tag in _SUMS:
        return pretty(e[1]) + tag + _wrap(e[2], _SUMS)
    if tag in _PRODUCTS:
        return _wrap(e[1], _SUMS) + tag + _wrap(e[2], _BINARY)
    if tag == "^":
        q = e[2]
        if q.denominator == 1 and q >= 0:
            return "%s^%d" % (_pow_base(e[1]), q.numerator)
        return "%s^(%s)" % (_pow_base(e[1]), _frac_text(q))
    return "%s(%s)" % (tag, pretty(e[1]))


def _frac_text(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _wrap(e, tags):
    text = pretty(e)
    if isinstance(e, tuple) and e[0] in tags:
        return "(" + text + ")"
    return text


def _pow_base(e):
    return pretty(e) if _is_pow_atom(e) else "(" + pretty(e) + ")"


# ---------------------------------------------------------------------------
# evaluation

def eval_expr(e, order, lambda_mode=sc.LAMBDA_ABSENT):
    """The series of e at the given order; without a lambda mode, a lambda
    node raises LambdaModeRequired once it is reached."""
    return _eval(e, order, sc.resolve_lambda_mode(lambda_mode), {})


def _eval(e, order, lam, memo):
    """Series of e at the given order, each (node, order) evaluated once."""
    key = (id(e), order)
    if key not in memo:
        memo[key] = _eval_node(e, order, lam, memo)
    return memo[key]


def _eval_node(e, order, lam, memo):
    if isinstance(e, Fraction):
        return fps.constant(e, order)
    if e == "t":
        return fps.t_series(order)
    if e == "lambda":
        if lam is None:
            raise LambdaModeRequired("expression uses lambda; pass a lambda mode")
        return fps.constant(lam, order)
    tag = e[0]
    if tag == "/":
        return _eval_div(e, order, lam, memo)
    a = _eval(e[1], order, lam, memo)
    if tag == "neg":
        return fps.scale(a, -1)
    if tag == "^":
        return _eval_pow(e, a, e[2])
    if tag == "exp":
        return fps.exp_series(a)
    if tag == "log":
        return fps.log_series(a)
    if tag == "sqrt":
        return _eval_pow(e, a, Fraction(1, 2))
    b = _eval(e[2], order, lam, memo)
    return fps.add(a, b) if tag == "+" else fps.sub(a, b) if tag == "-" else fps.mul(a, b)


# The highest order at which a divisor that reads as zero is evaluated again
_MAX_DIVISOR_ORDER = 64


def _eval_div(e, order, lam, memo):
    """Division with exact cancellation of the maximal shared power of t.

    The divisor is evaluated at the order n asked and, while it reads as
    zero, again at 2n, 4n, ..., up to order 64 (``_MAX_DIVISOR_ORDER``): a
    divisor with no nonzero term up to there is refused as zero.  Its
    valuation v bounds the power t^s that cancels by s <= v, so the dividend
    is evaluated once, at n + v, and the divisor again only at n + s.
    Errors come as if the dividend were evaluated first, at n, and division
    by zero last.
    """
    _, left, right = e
    try:
        den, m = _eval(right, order, lam, memo), order
        while den.is_zero() and m < _MAX_DIVISOR_ORDER:
            m = min(2 * m, _MAX_DIVISOR_ORDER)
            den = _eval(right, m, lam, memo)
        v = den.valuation()
        if v > m:
            raise DivisionByZero("division by the zero series")
    except DeltaSeriesError:
        _eval(left, order, lam, memo)
        raise
    num = _eval(left, order + v, lam, memo)
    s = min(num.valuation(), v)
    den = _eval(right, order + s, lam, memo)  # the divisor at the order asked when s = 0
    if s:
        num, den = fps.shift_down(num, s), fps.shift_down(den, s)
    return fps.div(num.truncate(order) if s < v else num, den)


def _eval_pow(e, base, exponent):
    """The series base^exponent of the node e (a power, or sqrt).  The
    kernel ``fps.power`` checks the power; its refusal is raised again with
    the power's label in front, "sqrt" or the base's text to the exponent."""
    try:
        return fps.power(base, exponent)
    except DeltaSeriesError as exc:
        what = e[0] if e[0] == "sqrt" else "%s^(%s)" % (_pow_base(e[1]), exponent)
        raise type(exc)("%s: %s" % (what, exc)) from None


def require_delta(s):
    """Validate a series as a delta series."""
    return fps.DeltaSeries(s)
