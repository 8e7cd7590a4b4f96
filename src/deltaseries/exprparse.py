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
"""

from __future__ import annotations

from fractions import Fraction

from . import fps
from . import scalar as sc
from .errors import DeltaSeriesError, DivisionByZero, ExprSyntaxError, LambdaModeRequired, UnknownFunction

FUNCTIONS = ("exp", "log", "sqrt")

# Deepest nesting (parentheses, calls, unary minus) and tree height accepted.
# The parser spends five Python frames per nesting level and the tree walkers
# (_eval, pretty, ==) at most four per level: at 150 parsing needs
# about 760, under the default recursion limit, and 128-term sums still parse.
MAX_DEPTH = 150


# ---------------------------------------------------------------------------
# expression tree

class Expr:
    __slots__ = ()

    def _fields(self):
        # binary nodes keep their fields in _BinOp's slots, not their own
        return tuple(
            getattr(self, f) for cls in type(self).__mro__ for f in cls.__dict__.get("__slots__", ())
        )

    def __eq__(self, other):
        return type(self) is type(other) and self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__,) + self._fields())


class Number(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in ("t", "lambda"):
            raise ValueError("unknown variable %r" % name)
        object.__setattr__(self, "name", name)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)


class _BinOp(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_BinOp):
    __slots__ = ()


class Sub(_BinOp):
    __slots__ = ()


class Mul(_BinOp):
    __slots__ = ()


class Div(_BinOp):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", Fraction(exponent))


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in FUNCTIONS:
            raise UnknownFunction("unknown function %r" % fn)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)


# ---------------------------------------------------------------------------
# tokenizer / parser

_SYMBOLS = "+-*/^()"


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


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
            tokens.append(_Token(ch, ch, i))
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
            tokens.append(_Token("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i, ("token",))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                "expected %r, found %r" % (kind, tok.text or "end of input"), tok.offset, (kind,)
            )
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError("trailing input %r" % tok.text, tok.offset, ("end",))
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self):
        # every recursive rule passes through here, so this bounds the recursion
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError("nested deeper than %d levels" % MAX_DEPTH, self.peek().offset, ("shallower nesting",))
        if self.peek().kind == "-":
            self.advance()
            e = Neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        tok = self.peek()
        if tok.kind == "int":
            return Fraction(self.advance().text)
        if tok.kind == "-":
            self.advance()
            return -Fraction(self.expect("int").text)
        if tok.kind == "(":
            self.advance()
            value = self.rational()
            self.expect(")")
            return value
        raise ExprSyntaxError(
            "expected exponent, found %r" % (tok.text or "end of input"),
            tok.offset,
            ("int", "("),
        )

    def rational(self):
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        num = Fraction(self.expect("int").text)
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                raise ExprSyntaxError("zero denominator", den_tok.offset, ("nonzero integer",))
            return sign * num / den
        return sign * num

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            return Number(self.advance().text)
        if tok.kind == "name":
            self.advance()
            if tok.text in ("t", "lambda"):
                return Var(tok.text)
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunction("unknown function %r" % tok.text)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg)
            raise ExprSyntaxError("unknown name %r" % tok.text, tok.offset, ("t", "lambda") + FUNCTIONS)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(
            "expected a value, found %r" % (tok.text or "end of input"),
            tok.offset,
            ("int", "name", "("),
        )


def parse(src):
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, ("expression",))
    tree = _Parser(src).parse()
    if _height(tree) > MAX_DEPTH:
        raise ExprSyntaxError("expression tree deeper than %d levels" % MAX_DEPTH, 0, ("shallower expression",))
    return tree


def _height(e):
    """Height of the tree, found level by level without recursion: flat sums
    and products parse in a loop but make left-deep trees."""
    height, level = 0, [e]
    while level:
        height += 1
        kids = (getattr(node, a, None) for node in level for a in ("arg", "left", "right", "base"))
        level = [k for k in kids if isinstance(k, Expr)]
    return height


# ---------------------------------------------------------------------------
# pretty printer

def _is_pow_atom(e):
    return isinstance(e, (Var, Call)) or (
        isinstance(e, Number) and e.value >= 0 and e.value.denominator == 1
    )


def pretty(e):
    """Render a tree back to source; reparsing gives the same tree."""
    if isinstance(e, Number):
        if e.value < 0:
            return "-" + _frac_text(-e.value)
        return _frac_text(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.arg)
        if isinstance(e.arg, (Add, Sub, Mul, Div)):
            inner = "(" + inner + ")"
        return "-" + inner
    if isinstance(e, Add):
        return "%s+%s" % (pretty(e.left), _wrap(e.right, (Add, Sub)))
    if isinstance(e, Sub):
        return "%s-%s" % (pretty(e.left), _wrap(e.right, (Add, Sub)))
    if isinstance(e, Mul):
        return "%s*%s" % (_wrap(e.left, (Add, Sub)), _wrap(e.right, (Add, Sub, Mul, Div)))
    if isinstance(e, Div):
        return "%s/%s" % (_wrap(e.left, (Add, Sub)), _wrap(e.right, (Add, Sub, Mul, Div)))
    if isinstance(e, Pow):
        base = pretty(e.base)
        if not _is_pow_atom(e.base):
            base = "(" + base + ")"
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            return "%s^%d" % (base, exp)
        return "%s^(%s)" % (base, _frac_text(exp))
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, pretty(e.arg))
    raise TypeError("not an expression: %r" % (e,))


def _frac_text(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _wrap(e, kinds):
    text = pretty(e)
    if isinstance(e, kinds):
        return "(" + text + ")"
    return text


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
    if isinstance(e, Number):
        return fps.constant(e.value, order)
    if isinstance(e, Var):
        if e.name == "lambda" and lam is None:
            raise LambdaModeRequired("expression uses lambda; pass a lambda mode")
        return fps.t_series(order) if e.name == "t" else fps.constant(lam, order)
    if isinstance(e, Neg):
        return fps.scale(_eval(e.arg, order, lam, memo), -1)
    if isinstance(e, Add):
        return fps.add(_eval(e.left, order, lam, memo), _eval(e.right, order, lam, memo))
    if isinstance(e, Sub):
        return fps.sub(_eval(e.left, order, lam, memo), _eval(e.right, order, lam, memo))
    if isinstance(e, Mul):
        return fps.mul(_eval(e.left, order, lam, memo), _eval(e.right, order, lam, memo))
    if isinstance(e, Div):
        return _eval_div(e, order, lam, memo)
    if isinstance(e, Pow):
        return _eval_pow(e, _eval(e.base, order, lam, memo), e.exponent)
    if isinstance(e, Call):
        arg = _eval(e.arg, order, lam, memo)
        if e.fn == "exp":
            return fps.exp_series(arg)
        if e.fn == "log":
            return fps.log_series(arg)
        return _eval_pow(e, arg, Fraction(1, 2))
    raise TypeError("not an expression: %r" % (e,))


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
    try:
        den, m = _eval(e.right, order, lam, memo), order
        while den.is_zero() and m < _MAX_DIVISOR_ORDER:
            m = min(2 * m, _MAX_DIVISOR_ORDER)
            den = _eval(e.right, m, lam, memo)
        v = den.valuation()
        if v > m:
            raise DivisionByZero("division by the zero series")
    except DeltaSeriesError:
        _eval(e.left, order, lam, memo)
        raise
    num = _eval(e.left, order + v, lam, memo)
    s = min(num.valuation(), v)
    den = _eval(e.right, order + s, lam, memo)  # the divisor at the order asked when s = 0
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
        if isinstance(e, Call):
            what = e.fn
        else:
            what = "%s^(%s)" % (pretty(e.base) if _is_pow_atom(e.base) else "(%s)" % pretty(e.base), exponent)
        raise type(exc)("%s: %s" % (what, exc)) from None


def require_delta(s):
    """Validate a series as a delta series."""
    return fps.DeltaSeries(s)
