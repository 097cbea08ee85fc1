"""Parser for the exact expression grammar used across the package.

The grammar covers integer and rational literals (``-9216``, ``3/2``),
variable symbols (``n``, ``x``, ``y``, ``z``, ...), the operators
``+ - * / ^`` with integer exponents, and parentheses; whitespace is
ignored.  Parse errors report the byte offset of the offending token.

Series summands extend the same grammar with a closed set of named
functions: ``factorial(u)``, ``binom(u, v)``, ``rising_factorial(q, u)``,
``harmonic(u)``, and a finite inner sum ``sum(expr, k, lo, hi)``.  Function
calls are only meaningful to the exact term evaluator; the polynomial and
rational-function converters reject them.

Implicit multiplication is supported for the common written forms like
``3n+1``, ``n(n+1)`` and ``(2n-1)^2``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .multivar import MRat
from .poly import Poly
from .ratfunc import RationalFunction


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Token:
    kind: str  # INT NAME OP LPAREN RPAREN COMMA END
    text: str
    offset: int


_OPS = set("+-*/^")


def tokenize(src: str) -> list[Token]:
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("INT", src[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("NAME", src[i:j], i))
            i = j
        elif ch in _OPS:
            out.append(Token("OP", ch, i))
            i += 1
        elif ch == "(":
            out.append(Token("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            out.append(Token("RPAREN", ch, i))
            i += 1
        elif ch == ",":
            out.append(Token("COMMA", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", n))
    return out


FUNCTIONS = {"factorial", "binom", "rising_factorial", "harmonic", "sum"}

# AST nodes are plain tuples:
#   ("num", Fraction)  ("var", name)  ("add", l, r)  ("sub", l, r)
#   ("mul", l, r)  ("div", l, r)  ("pow", base, exp)  ("neg", x)
#   ("call", fname, [args])


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, got {t.text!r}", t.offset)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"trailing input {t.text!r}", t.offset)
        return node

    def expr(self):
        t = self.peek()
        neg = False
        if t.kind == "OP" and t.text in "+-":
            self.next()
            neg = t.text == "-"
        node = self.term()
        if neg:
            node = ("neg", node)
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if t.text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.text in "*/":
                self.next()
                rhs = self.factor()
                node = ("mul" if t.text == "*" else "div", node, rhs)
            elif t.kind in ("NAME", "LPAREN", "INT"):
                # implicit multiplication: 3n, n(n+1), (n+1)(n-1)
                rhs = self.factor()
                node = ("mul", node, rhs)
            else:
                return node

    def factor(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "OP" and t.text == "^":
            self.next()
            expo = self.exponent_atom()
            return ("pow", base, expo)
        return base

    def exponent_atom(self):
        # exponents are themselves expressions (2^n, (-1)^(n+1)); unary sign allowed
        t = self.peek()
        if t.kind == "OP" and t.text in "+-":
            self.next()
            inner = self.exponent_atom()
            return ("neg", inner) if t.text == "-" else inner
        return self.atom()

    def atom(self):
        t = self.next()
        if t.kind == "INT":
            return ("num", Fraction(int(t.text)))
        if t.kind == "NAME":
            if t.text in FUNCTIONS and self.peek().kind == "LPAREN":
                self.next()
                args = [self.expr()]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.expr())
                self.expect("RPAREN")
                return ("call", t.text, args)
            return ("var", t.text)
        if t.kind == "LPAREN":
            node = self.expr()
            self.expect("RPAREN")
            return node
        if t.kind == "OP" and t.text in "+-":
            inner = self.factor()
            return ("neg", inner) if t.text == "-" else inner
        raise ParseError(f"unexpected token {t.text!r}", t.offset)


def parse_ast(src: str):
    return _Parser(tokenize(src)).parse()


# -- converters ---------------------------------------------------------------


_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


def _fold(node, leaf):
    """Evaluate a rational expression AST bottom up, one operator per node;
    ``leaf(kind, value)`` builds the value of a ``num`` or ``var`` node."""
    kind = node[0]
    if kind in ("num", "var"):
        return leaf(kind, node[1])
    if kind == "neg":
        return -_fold(node[1], leaf)
    if kind in _BINARY:
        return _BINARY[kind](_fold(node[1], leaf), _fold(node[2], leaf))
    if kind == "pow":
        return _fold(node[1], leaf) ** _const_int(node[2])
    if kind == "call":
        raise ValueError(f"function {node[1]!r} not allowed in a rational expression")
    raise ValueError(f"bad AST node {kind!r}")


def _const_int(node) -> int:
    if node[0] == "num" and node[1].denominator == 1:
        return int(node[1])
    if node[0] == "neg":
        return -_const_int(node[1])
    raise ValueError("exponent must be an integer constant here")


def ast_to_ratfunc(node, var: str = "n") -> RationalFunction:
    def leaf(kind, value):
        if kind == "num":
            return RationalFunction(Poly.const(value))
        if value != var:
            raise ValueError(f"unknown variable {value!r} (expected {var!r})")
        return RationalFunction(Poly.var())

    return _fold(node, leaf)


def parse_ratfunc(src: str, var: str = "n") -> RationalFunction:
    return ast_to_ratfunc(parse_ast(src), var)


def parse_poly(src: str, var: str = "n") -> Poly:
    rf = parse_ratfunc(src, var)
    return rf.as_poly()


def ast_to_mrat(node, names: tuple[str, ...]) -> MRat:
    def leaf(kind, value):
        if kind == "num":
            return MRat.const(names, value)
        if value not in names:
            raise ValueError(f"unknown variable {value!r} (expected one of {names})")
        return MRat.var(names, value)

    return _fold(node, leaf)


def parse_mrat(src: str, names: tuple[str, ...]) -> MRat:
    return ast_to_mrat(parse_ast(src), names)


# -- exact term evaluation ------------------------------------------------------


def _rising_factorial(q: Fraction, k: int) -> Fraction:
    acc = Fraction(1)
    for i in range(k):
        acc *= q + i
    return acc


def _harmonic(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


class TermError(ValueError):
    pass


def eval_term(node, env: dict[str, Fraction]) -> Fraction:
    """Evaluate a series-summand AST exactly at integer variable values."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise TermError(f"unbound variable {node[1]!r}") from None
    if kind == "neg":
        return -eval_term(node[1], env)
    if kind == "add":
        return eval_term(node[1], env) + eval_term(node[2], env)
    if kind == "sub":
        return eval_term(node[1], env) - eval_term(node[2], env)
    if kind == "mul":
        return eval_term(node[1], env) * eval_term(node[2], env)
    if kind == "div":
        den = eval_term(node[2], env)
        if den == 0:
            raise ZeroDivisionError("zero denominator in term")
        return eval_term(node[1], env) / den
    if kind == "pow":
        base = eval_term(node[1], env)
        expo = eval_term(node[2], env)
        if expo.denominator != 1:
            raise TermError("exponent must evaluate to an integer")
        e = int(expo)
        if base == 0 and e < 0:
            raise ZeroDivisionError("zero base with negative exponent")
        return base**e
    if kind == "call":
        fname, args = node[1], node[2]
        if fname == "factorial":
            (k,) = (_int_arg(a, env) for a in args)
            return Fraction(factorial(k))
        if fname == "binom":
            u, v = (_int_arg(a, env) for a in args)
            return Fraction(comb(u, v)) if 0 <= v <= u else Fraction(_gen_binom(u, v))
        if fname == "rising_factorial":
            q = eval_term(args[0], env)
            k = _int_arg(args[1], env)
            return _rising_factorial(q, k)
        if fname == "harmonic":
            return _harmonic(_int_arg(args[0], env))
        if fname == "sum":
            expr, varnode, lo, hi = args
            if varnode[0] != "var":
                raise TermError("sum() needs a plain variable as second argument")
            name = varnode[1]
            lo_v = _int_arg(lo, env)
            hi_v = _int_arg(hi, env)
            total = Fraction(0)
            inner = dict(env)
            for k in range(lo_v, hi_v + 1):
                inner[name] = Fraction(k)
                total += eval_term(expr, inner)
            return total
        raise TermError(f"unknown function {fname!r}")
    raise TermError(f"bad AST node {kind!r}")


def _int_arg(node, env) -> int:
    v = eval_term(node, env)
    if v.denominator != 1:
        raise TermError("argument must evaluate to an integer")
    return int(v)


def _gen_binom(u: int, v: int) -> Fraction:
    # generalized binomial for the occasional negative entry, e.g. binom(2k, k+1) at k=0
    if v < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(v):
        num *= u - i
    return num / factorial(v)
