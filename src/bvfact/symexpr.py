"""Graded-commutative polynomial core with exact coefficients and formal series.

Expressions are finite sums of monomials in graded symbols.  Coefficients are
Gaussian rationals, stored as integer triples (a + b*i)/d; floats appear
only when an expression is numerically evaluated.  Canonical form: monomials
are stored sorted by symbol order, odd symbols square to zero, zero
coefficients are dropped.  Two expressions are equal iff their term dicts are
equal.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Iterable, Mapping


class QI:
    """Gaussian rational (a + b*i)/d with integers a, b, d.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples.  `re` and `im` read the parts back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        # with both parts reduced, their common denominator leaves
        # gcd(a, b, d) == 1
        d = dr * di // math.gcd(dr, di)
        self.a = re.numerator * (d // dr)
        self.b = im.numerator * (d // di)
        self.d = d

    @staticmethod
    def of(x):
        if isinstance(x, QI):
            return x
        q = _coerce(x)
        return QI(x) if q is None else q

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not QI:
            if type(other) is int:
                return _qi(self.a + other * self.d, self.b, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return _qi(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                        d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _qi(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not QI:
            if type(other) is int:
                if other == 1:
                    return self
                if other == -1:
                    return _qi(-self.a, -self.b, self.d)
                g = math.gcd(other, self.d)
                return _qi(self.a * (other // g), self.b * (other // g),
                           self.d // g)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b1 == 0 and b2 == 0:
            a, b = a1 * a2, 0
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        d = self.d * other.d
        return _qi(a, b, 1) if d == 1 else _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a2, b2 = other.a, other.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero QI")
        # (a1 + b1 i) / d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        a1, b1 = self.a, self.b
        return _reduced((a1 * a2 + b1 * b2) * other.d,
                        (b1 * a2 - a1 * b2) * other.d, self.d * n)

    def __eq__(self, other):
        if type(other) is not QI:
            if type(other) is int:
                return self.b == 0 and self.d == 1 and self.a == other
            try:
                other = _coerce(other)
            except (ValueError, OverflowError):  # a nan or infinite float
                return False
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conj(self):
        return _qi(self.a, -self.b, self.d)

    def constant_part(self):
        """The QI itself: a number is its own constant part, as for Expr."""
        return self

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        if self.b == 0:
            return str(self.re)
        if self.a == 0:
            return "%s*I" % self.im
        return "(%s+%s*I)" % (self.re, self.im)


def _qi(a, b, d):
    """QI from a triple that is already canonical."""
    q = object.__new__(QI)
    q.a, q.b, q.d = a, b, d
    return q


def _reduced(a, b, d):
    """QI from a triple with d > 0, divided by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _qi(a, b, d)


def _coerce(x):
    """x as a QI, or None when x is not a number."""
    if isinstance(x, QI):
        return x
    if isinstance(x, int):
        return _qi(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _qi(x.numerator, 0, x.denominator)
    if isinstance(x, complex):
        return QI(Fraction(x.real), Fraction(x.imag))
    if isinstance(x, (float, numbers.Rational)):
        return QI(x)
    return None


I = _qi(0, 1, 1)
ONE = _qi(1, 0, 1)
ZERO = _qi(0, 0, 1)


@functools.total_ordering
class Symbol:
    """Graded symbol, keyed by (namespace, name, index).

    The namespace keeps symbols from different modules apart; index is a
    multi-index tuple (e.g. derivative orders).  grade is the cohomological
    degree; odd grade means the symbol anticommutes with other odd symbols.

    Symbols are interned: there is one object per (ns, name, index, grade),
    so equality and hash are the object's identity, which Python computes
    in C.  `key()` and `odd` are computed once; symbols order by
    (ns, name, index, grade).
    """

    __slots__ = ("ns", "name", "index", "grade", "odd", "_key", "_order")
    _interned = {}

    def __new__(cls, ns, name, index=(), grade=0):
        order = (ns, name, index, grade)
        s = cls._interned.get(order)
        if s is None:
            s = object.__new__(cls)
            set_ = object.__setattr__
            set_(s, "ns", ns)
            set_(s, "name", name)
            set_(s, "index", index)
            set_(s, "grade", grade)
            set_(s, "odd", grade % 2 == 1)
            set_(s, "_key", (ns, name, index))
            set_(s, "_order", order)
            # setdefault is atomic, so racing threads still share one object
            s = cls._interned.setdefault(order, s)
        return s

    def __setattr__(self, attr, value):
        raise AttributeError("Symbol is immutable")

    def __reduce__(self):
        return Symbol, self._order

    def key(self):
        return self._key

    def __lt__(self, other):
        if type(other) is not Symbol:
            return NotImplemented
        return self._order < other._order

    def __repr__(self):
        idx = "" if not self.index else ".d%s" % (list(self.index),)
        return self.name + idx


def koszul_sign(perm, odd):
    """Koszul sign of reordering graded factors: perm maps each new position
    to an old index, odd[i] says whether old factor i is odd, and every
    inversion of two odd factors flips the sign.  With every factor odd it
    is the sign of the permutation."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and odd[perm[a]] and odd[perm[b]]:
                sign = -sign
    return sign


# A monomial is a tuple of (Symbol, exponent), sorted by symbol order
# (ns, name, index, grade).  Odd symbols always carry exponent 1.

def _merge_monomials(m1, m2):
    """Merge two sorted monomials; return (sign, monomial) or (0, None)."""
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    sign = 1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    # odd symbols in m1 not yet passed
    odd_remaining = 0
    for s, _ in m1:
        if s.odd:
            odd_remaining += 1
    while i < n1 and j < n2:
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 is s2:
            # symbols are interned: the same symbol, grade included
            if s1.odd:
                return 0, None  # odd square
            out.append((s1, e1 + e2))
            i += 1
            j += 1
        elif s1._order < s2._order:
            out.append((s1, e1))
            if s1.odd:
                odd_remaining -= 1
            i += 1
        else:
            # s2 jumps over the remaining odd part of m1
            if s2.odd and odd_remaining % 2 == 1:
                sign = -sign
            out.append((s2, e2))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


class Expr:
    """Canonical graded-commutative polynomial."""

    __slots__ = ("terms", "_partials", "_hash")

    def __init__(self, terms=None):
        # terms: dict monomial -> QI, already canonical; never mutated
        self.terms = terms or {}
        self._partials = None  # {right: {symbol: partial}}, on demand
        # _hash is set on the first hash

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
            v = acc.get(mono)
            if v is not None:
                c = v + c
                if not c:
                    del acc[mono]
                    continue
            acc[mono] = c
        return Expr(acc)

    # ---- ring operations ---------------------------------------------
    def __add__(self, other):
        acc = dict(self.terms)
        _add_into(acc, _as_expr(other).terms)
        return Expr(acc)

    __radd__ = __add__

    def __neg__(self):
        return Expr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        acc = dict(self.terms)
        _sub_into(acc, _as_expr(other).terms)
        return Expr(acc)

    def __rsub__(self, other):
        acc = dict(_as_expr(other).terms)
        _sub_into(acc, self.terms)
        return Expr(acc)

    def __mul__(self, other):
        other = _as_expr(other)
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sgn, m = _merge_monomials(m1, m2)
                if sgn == 0:
                    continue
                c = c1 * c2 if sgn > 0 else -(c1 * c2)
                v = acc.get(m)
                if v is not None:
                    c = v + c
                    if not c:
                        del acc[m]
                        continue
                acc[m] = c
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
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, (Expr, int, Fraction, QI)):
            return NotImplemented
        return self.terms == _as_expr(other).terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.terms.items()))
            return h

    def __reduce__(self):
        # the caches stay behind: symbols hash by identity, so a hash holds
        # in one process only
        return Expr, (self.terms,)

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
        return self._partial(s, False)

    def dright(self, s: Symbol):
        """Right partial derivative with respect to symbol s."""
        return self._partial(s, True)

    def _partial(self, s, right):
        # all partials of one side come from one pass, kept for the next call
        cache = self._partials
        if cache is None:
            cache = self._partials = {}
        ps = cache.get(right)
        if ps is None:
            ps = cache[right] = _all_partials(self, right)
        p = ps.get(s)
        return Expr.zero() if p is None else p

    def subs(self, table: Mapping[Symbol, "Expr"]):
        """Substitute symbols by expressions (even symbols and odd symbols
        replaced by same-grade expressions).  Substitution of odd symbols
        by odd expressions is consistent because multiplication re-sorts
        with Koszul signs."""
        acc = {}
        for mono, c in self.terms.items():
            term = Expr.const(c)
            for s, e in mono:
                rep = table.get(s)
                # (s, e) is a factor of a canonical monomial
                term = term * (Expr({((s, e),): ONE}) if rep is None
                               else rep ** e)
            _add_into(acc, term.terms)
        return Expr(acc)

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


def _all_partials(expr, right):
    """{symbol: left partial derivative} of expr in one pass over its terms,
    or the right partials when `right`.  Symbols whose partial vanishes are
    absent.

    The factor s^e of a monomial gives e * sign * c on it with s^e lowered;
    an odd s (e == 1) moves past the factors before it, or after it when
    `right`.  Distinct monomials lower to distinct ones, so there is
    nothing to collect.
    """
    acc = {}
    for mono, c in expr.terms.items():
        total = 0
        for t, e in mono:
            total += t.grade * e
        gbefore = 0
        for k, (s, e) in enumerate(mono):
            v = c
            if s.odd and (total - gbefore - 1 if right else gbefore) % 2 == 1:
                v = -c
            if e > 1:
                v = v * e
            acc.setdefault(s, {})[_lowered(mono, k, e)] = v
            gbefore += s.grade * e
    return {s: Expr(terms) for s, terms in acc.items()}


def _add_into(acc, terms):
    """Add the term dict `terms` into the term dict `acc`, in place."""
    for m, c in terms.items():
        v = acc.get(m)
        if v is not None:
            c = v + c
            if not c:
                del acc[m]
                continue
        acc[m] = c


def _sub_into(acc, terms):
    """Subtract the term dict `terms` from the term dict `acc`, in place."""
    for m, c in terms.items():
        c = -c
        v = acc.get(m)
        if v is not None:
            c = v + c
            if not c:
                del acc[m]
                continue
        acc[m] = c


def _lowered(mono, k, e):
    """mono with the exponent of its k-th factor, e, lowered by one."""
    if e == 1:
        return mono[:k] + mono[k + 1:]
    return mono[:k] + ((mono[k][0], e - 1),) + mono[k + 1:]


def _as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, Symbol):
        return Expr.sym(x)
    return Expr.const(x)


class FormalSeries:
    """Truncated formal power series in hbar and lam with coefficients in
    Q(i).

    `coeffs` maps (hbar power, lam power) to a nonzero `QI`.  A coefficient
    may be given as anything `QI.of` reads or as a constant `Expr`; a
    non-constant `Expr` raises ValueError.
    """

    __slots__ = ("coeffs", "orders")

    def __init__(self, coeffs=None, orders=(3, 2)):
        self.orders = tuple(orders)
        cs = {}
        if coeffs:
            for (p, q), c in coeffs.items():
                c = _series_coeff(c)
                if p <= orders[0] and q <= orders[1] and c:
                    cs[(p, q)] = c
        self.coeffs = cs

    @staticmethod
    def const(c, orders=(3, 2)):
        return FormalSeries({(0, 0): c}, orders)

    def __getitem__(self, pq):
        return self.coeffs.get(tuple(pq), ZERO)

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        acc = dict(self.coeffs)
        _add_into(acc, other.coeffs)
        return _series(acc, self.orders)

    __radd__ = __add__

    def __neg__(self):
        return _series({k: -c for k, c in self.coeffs.items()}, self.orders)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        acc = dict(self.coeffs)
        _sub_into(acc, other.coeffs)
        return _series(acc, self.orders)

    def __mul__(self, other):
        """The truncated product; a number or a constant series scales the
        other factor coefficient by coefficient."""
        if not isinstance(other, FormalSeries):
            return self._scaled(other if type(other) is int
                                else _series_coeff(other))
        self._check(other)
        for a, b in ((self, other), (other, self)):
            if len(b.coeffs) < 2 and b.coeffs.keys() <= {(0, 0)}:
                return a._scaled(b.coeffs.get((0, 0), 0))
        hmax, lmax = self.orders
        acc = {}
        for (p1, q1), c1 in self.coeffs.items():
            for (p2, q2), c2 in other.coeffs.items():
                p, q = p1 + p2, q1 + q2
                if p > hmax or q > lmax:
                    continue
                c = c1 * c2
                v = acc.get((p, q))
                if v is not None:
                    c = v + c
                    if not c:
                        del acc[(p, q)]
                        continue
                acc[(p, q)] = c
        return _series(acc, self.orders)

    __rmul__ = __mul__

    def _scaled(self, c):
        """The series times the int or QI c."""
        if not c:
            return _series({}, self.orders)
        return _series({pq: v * c for pq, v in self.coeffs.items()},
                       self.orders)

    def _coerce(self, other):
        if isinstance(other, FormalSeries):
            return other
        return FormalSeries({(0, 0): other}, self.orders)

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


def _series_coeff(c):
    """A series coefficient as a QI; an Expr must be constant."""
    if isinstance(c, Expr):
        if any(c.terms):
            raise ValueError("series coefficient %r is not constant" % (c,))
        return c.constant_part()
    return QI.of(c)


def _series(coeffs, orders):
    """FormalSeries from nonzero QI coefficients within `orders`."""
    s = object.__new__(FormalSeries)
    s.coeffs = coeffs
    s.orders = orders
    return s


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
        out = out + term * QI(Fraction(1, math.factorial(k)))
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
