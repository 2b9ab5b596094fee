"""Graded-commutative polynomial core with exact coefficients and formal series.

Expressions are finite sums of monomials in graded symbols.  Coefficients are
Gaussian rationals (exact real and imaginary Fraction parts); floats appear
only when an expression is numerically evaluated.  Canonical form: monomials
are stored sorted by symbol key, odd symbols square to zero, zero coefficients
are dropped.  Two expressions are equal iff their term dicts are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


class QI:
    """Gaussian rational: re + im*i with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, QI):
            return x
        if isinstance(x, complex):
            return QI(Fraction(x.real), Fraction(x.imag))
        return QI(x)

    def __add__(self, other):
        other = QI.of(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.of(other))

    def __rsub__(self, other):
        return QI.of(other) + (-self)

    def __mul__(self, other):
        other = QI.of(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.of(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QI")
        return QI((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

    def __eq__(self, other):
        try:
            other = QI.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conj(self):
        return QI(self.re, -self.im)

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*I" % self.im
        return "(%s+%s*I)" % (self.re, self.im)


I = QI(0, 1)
ONE = QI(1)
ZERO = QI(0)


@dataclass(frozen=True, order=True)
class Symbol:
    """Graded symbol, keyed by (namespace, name, index).

    The namespace keeps symbols from different modules apart; index is a
    multi-index tuple (e.g. derivative orders).  grade is the cohomological
    degree; odd grade means the symbol anticommutes with other odd symbols.
    """

    ns: str
    name: str
    index: tuple = ()
    grade: int = 0

    @property
    def odd(self):
        return self.grade % 2 == 1

    def key(self):
        return (self.ns, self.name, self.index)

    def __repr__(self):
        idx = "" if not self.index else ".d%s" % (list(self.index),)
        return self.name + idx


# A monomial is a tuple of (Symbol, exponent), sorted by symbol key.
# Odd symbols always carry exponent 1.

def _merge_monomials(m1, m2):
    """Merge two sorted monomials; return (sign, monomial) or (0, None)."""
    sign = 1
    out = []
    i = j = 0
    # odd symbols in m1 not yet passed
    odd_remaining = sum(s.odd for s, _ in m1)
    while i < len(m1) and j < len(m2):
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        k1, k2 = s1.key(), s2.key()
        if k1 < k2:
            out.append((s1, e1))
            if s1.odd:
                odd_remaining -= 1
            i += 1
        elif k1 > k2:
            # s2 jumps over the remaining odd part of m1
            if s2.odd and odd_remaining % 2 == 1:
                sign = -sign
            out.append((s2, e2))
            j += 1
        else:
            if s1.odd:
                return 0, None  # odd square
            out.append((s1, e1 + e2))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


class Expr:
    """Canonical graded-commutative polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict monomial -> QI, already canonical
        self.terms = terms or {}

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero():
        return Expr({})

    @staticmethod
    def const(c):
        c = QI.of(c)
        return Expr({(): c} if c else {})

    @staticmethod
    def sym(s: Symbol):
        return Expr({((s, 1),): ONE})

    @staticmethod
    def from_terms(pairs: Iterable):
        acc = {}
        for mono, c in pairs:
            c = QI.of(c)
            if not c:
                continue
            acc[mono] = acc.get(mono, ZERO) + c
            if not acc[mono]:
                del acc[mono]
        return Expr(acc)

    # ---- ring operations ---------------------------------------------
    def __add__(self, other):
        other = _as_expr(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m, ZERO) + c
            if v:
                acc[m] = v
            elif m in acc:
                del acc[m]
        return Expr(acc)

    __radd__ = __add__

    def __neg__(self):
        return Expr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) + (-self)

    def __mul__(self, other):
        other = _as_expr(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sgn, m = _merge_monomials(m1, m2)
                if sgn == 0:
                    continue
                v = acc.get(m, ZERO) + c1 * c2 * sgn
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
        return Expr(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of Expr")
        out = Expr.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, (Expr, int, Fraction, QI)):
            return NotImplemented
        return self.terms == _as_expr(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # ---- structure ----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def constant_part(self):
        return self.terms.get((), ZERO)

    def symbols(self):
        out = set()
        for m in self.terms:
            for s, _ in m:
                out.add(s)
        return out

    def grade_of_monomial(self, mono):
        return sum(s.grade * e for s, e in mono)

    def grades(self):
        return {self.grade_of_monomial(m) for m in self.terms}

    def homogeneous_grade(self):
        gs = self.grades()
        if len(gs) > 1:
            raise ValueError("expression is not grade-homogeneous: %s" % gs)
        return gs.pop() if gs else 0

    def map_coeff(self, fn):
        return Expr.from_terms((m, fn(c)) for m, c in self.terms.items())

    # ---- calculus -----------------------------------------------------
    def dleft(self, s: Symbol):
        """Left partial derivative with respect to symbol s."""
        acc = []
        for mono, c in self.terms.items():
            gsum = 0
            for k, (t, e) in enumerate(mono):
                if t == s:
                    sign = -1 if (s.odd and gsum % 2 == 1) else 1
                    rest = list(mono)
                    if e == 1:
                        del rest[k]
                    else:
                        rest[k] = (t, e - 1)
                    acc.append((tuple(rest), c * e * sign))
                    break
                gsum += t.grade * e
        return Expr.from_terms(acc)

    def dright(self, s: Symbol):
        """Right partial derivative with respect to symbol s."""
        acc = []
        for mono, c in self.terms.items():
            for k, (t, e) in enumerate(mono):
                if t == s:
                    gafter = sum(u.grade * f for u, f in mono[k + 1:])
                    sign = -1 if (s.odd and (gafter + (e - 1) * s.grade) % 2 == 1) else 1
                    rest = list(mono)
                    if e == 1:
                        del rest[k]
                    else:
                        rest[k] = (t, e - 1)
                    acc.append((tuple(rest), c * e * sign))
                    break
        return Expr.from_terms(acc)

    def subs(self, table: Mapping[Symbol, "Expr"]):
        """Substitute symbols by expressions (even symbols and odd symbols
        replaced by same-grade expressions)."""
        out = Expr.zero()
        for mono, c in self.terms.items():
            term = Expr.const(c)
            for s, e in mono:
                rep = table.get(s)
                if rep is None:
                    rep = Expr.sym(s)
                term = term * rep ** e
        # note: substitution of odd symbols by odd expressions is consistent
        # because multiplication re-sorts with Koszul signs
            out = out + term
        return out

    def evalf(self, assign: Mapping[Symbol, complex]) -> complex:
        """Numeric evaluation; every symbol present must be assigned."""
        total = 0j
        for mono, c in self.terms.items():
            v = c.to_complex()
            for s, e in mono:
                if s not in assign:
                    raise KeyError("no value for symbol %r" % (s,))
                v *= assign[s] ** e
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: ([s.key() for s, _ in m], )):
            c = self.terms[mono]
            factors = [] if c == ONE and mono else [repr(c)]
            for s, e in mono:
                factors.append(repr(s) + ("^%d" % e if e > 1 else ""))
            parts.append("*".join(factors) if factors else repr(c))
        return " + ".join(parts)


def _as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, Symbol):
        return Expr.sym(x)
    return Expr.const(x)


class FormalSeries:
    """Truncated formal power series in hbar and lam with Expr coefficients."""

    __slots__ = ("coeffs", "orders")

    def __init__(self, coeffs=None, orders=(3, 2)):
        self.orders = tuple(orders)
        cs = {}
        if coeffs:
            for (p, q), e in coeffs.items():
                e = _as_expr(e)
                if p <= orders[0] and q <= orders[1] and e:
                    cs[(p, q)] = e
        self.coeffs = cs

    @staticmethod
    def const(c, orders=(3, 2)):
        return FormalSeries({(0, 0): Expr.const(c)}, orders)

    @staticmethod
    def of_expr(e, orders=(3, 2), hbar=0, lam=0):
        return FormalSeries({(hbar, lam): _as_expr(e)}, orders)

    def __getitem__(self, pq):
        return self.coeffs.get(tuple(pq), Expr.zero())

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        acc = dict(self.coeffs)
        for k, e in other.coeffs.items():
            v = acc.get(k, Expr.zero()) + e
            if v:
                acc[k] = v
            elif k in acc:
                del acc[k]
        return FormalSeries(acc, self.orders)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries({k: -e for k, e in self.coeffs.items()}, self.orders)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        acc = {}
        for (p1, q1), e1 in self.coeffs.items():
            for (p2, q2), e2 in other.coeffs.items():
                p, q = p1 + p2, q1 + q2
                if p > self.orders[0] or q > self.orders[1]:
                    continue
                v = acc.get((p, q), Expr.zero()) + e1 * e2
                if v:
                    acc[(p, q)] = v
                elif (p, q) in acc:
                    del acc[(p, q)]
        return FormalSeries(acc, self.orders)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, FormalSeries):
            return other
        return FormalSeries({(0, 0): _as_expr(other)}, self.orders)

    def _check(self, other):
        if self.orders != other.orders:
            raise ValueError("incompatible truncation orders %s vs %s"
                             % (self.orders, other.orders))

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.orders == other.orders and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def map(self, fn):
        return FormalSeries({k: fn(e) for k, e in self.coeffs.items()}, self.orders)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (p, q) in sorted(self.coeffs):
            pre = []
            if p:
                pre.append("hbar" + ("^%d" % p if p > 1 else ""))
            if q:
                pre.append("lam" + ("^%d" % q if q > 1 else ""))
            body = repr(self.coeffs[(p, q)])
            parts.append("*".join(pre + ["(%s)" % body]) if pre else body)
        return " + ".join(parts)


def series_exp(a: FormalSeries) -> FormalSeries:
    """exp of a series with no (0,0) term, truncated."""
    if (0, 0) in a.coeffs:
        raise ValueError("series_exp needs vanishing constant term")
    out = FormalSeries.const(1, a.orders)
    term = FormalSeries.const(1, a.orders)
    n = (a.orders[0] + 1) * (a.orders[1] + 1)
    for k in range(1, n + 1):
        term = term * a
        if term.is_zero():
            break
        out = out + term.map(lambda e, k=k: e.map_coeff(
            lambda c: c * Fraction(1, math.factorial(k))))
    return out


# ---------------------------------------------------------------------------
# Textual syntax
# ---------------------------------------------------------------------------
#
# Grammar (round-trippable with to_text):
#
#   expr     := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := '-' factor | atom ('^' INT)?
#   atom     := RATIONAL | 'I' | symbol | '(' expr ')'
#   symbol   := NAME ('.d[' INT (',' INT)* ']')?
#   RATIONAL := INT ('/' INT)?
#   NAME     := letter or '_', then letters, digits, '_', "'", '~'
#
# 'I' is the imaginary unit.  The '.d[k, ...]' marker is the symbol's
# derivative multi-index; bare names carry the empty index.  Whitespace is
# insignificant.  Symbol namespaces and grades are supplied by the caller's
# resolver -- the text itself records only name and index.

_TOKEN_RE = None


def _tokens(text):
    import re
    global _TOKEN_RE
    if _TOKEN_RE is None:
        _TOKEN_RE = re.compile(
            r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_'~]*)|(\.d\[)"
            r"|([-+*^()\[\],]))")
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise SyntaxError("bad token at %r" % text[pos:pos + 10])
            break
        num, name, dmark, punct = m.groups()
        if num is not None:
            out.append(("num", Fraction(num)))
        elif name is not None:
            out.append(("name", name))
        elif dmark is not None:
            out.append(("dmark", None))
        else:
            out.append((punct, None))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, toks, resolve):
        self.toks = toks
        self.i = 0
        self.resolve = resolve

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        k, v = self.next()
        if k != kind:
            raise SyntaxError("expected %r, got %r" % (kind, k))
        return v

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self):
        if self.peek() == "-":
            self.next()
            return -self.factor()
        a = self.atom()
        if self.peek() == "^":
            self.next()
            n = self.expect("num")
            if n.denominator != 1:
                raise SyntaxError("exponent must be an integer")
            return a ** int(n)
        return a

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Expr.const(val)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if val == "I":
                return Expr.const(I)
            index = ()
            if self.peek() == "dmark":
                self.next()
                idx = [int(self.expect("num"))]
                while self.peek() == ",":
                    self.next()
                    idx.append(int(self.expect("num")))
                self.expect("]")
                index = tuple(idx)
            return _as_expr(self.resolve(val, index))
        raise SyntaxError("unexpected token %r" % kind)


def parse_expr(text, resolve=None) -> Expr:
    """Parse the textual syntax; `resolve(name, index)` maps a symbol
    occurrence to a Symbol or Expr (default: even jet symbols)."""
    if resolve is None:
        resolve = lambda name, index: Symbol("jet", name, index, 0)
    p = _Parser(_tokens(text), resolve)
    out = p.expr()
    if p.peek() != "end":
        raise SyntaxError("trailing input")
    return out


def _coeff_text(c: QI):
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        return "I" if c.im == 1 else "%s*I" % c.im
    return "(%s + %s*I)" % (c.re, c.im)


def _symbol_text(s: Symbol):
    if not s.index:
        return s.name
    return "%s.d[%s]" % (s.name, ",".join(str(k) for k in s.index))


def to_text(e: Expr) -> str:
    """Print an Expr in the documented textual syntax (parse round-trips
    modulo the symbol resolver)."""
    if not e.terms:
        return "0"
    parts = []
    for mono in sorted(e.terms, key=lambda m: [s.key() for s, _ in m]):
        c = e.terms[mono]
        factors = []
        if not mono or c != ONE:
            factors.append(_coeff_text(c))
        for s, k in mono:
            factors.append(_symbol_text(s) + ("^%d" % k if k > 1 else ""))
        parts.append("*".join(factors))
    return " + ".join(parts)
