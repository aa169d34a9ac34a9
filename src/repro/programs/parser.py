"""Parser for the pseudo-COBOL program text.

The Program Analyzer of Figure 4.1 reads *source programs*; this
parser closes the loop: :func:`repro.programs.ast.render_program`
produces a text form, and :func:`parse_program` reads it (or
hand-written text in the same style) back into the AST.  Round-tripping
is exact -- ``parse_program(render_program(p))`` reproduces ``p`` -- and
is enforced by property tests over generated programs and corpora.

The grammar is line-oriented: one statement per line, leaf statements
terminated by a period, compound statements bracketed by
``IF/ELSE/END-IF``, ``PERFORM WHILE/END-PERFORM`` and
``FOR EACH/END-FOR``, procedures introduced by ``PROCEDURE NAME(...)``.
A line is dispatched on its first word: the three compound openers are
tested first, and every leaf statement is one lookup in
:data:`_LEAVES`.  A literal or a bare variable, the commonest operand,
is parsed without the expression tokenizer.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.errors import ReproError
from repro.programs import ast


class ProgramSyntaxError(ReproError):
    """The program text could not be parsed.

    ``line_no`` is the 1-based text line the parser was reading; every
    error :func:`parse_program` raises carries one, and its message
    starts ``line N:``.  :func:`parse_expression` raises untagged
    errors.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_EXPR_TOKEN = re.compile(r"'[^']*'|\(|\)|[^\s()]+")
#: Text that tokenizes to itself: no whitespace, parenthesis or quote.
_BARE_TOKEN = re.compile(r"[^\s()']+")
_OPS = ("AND", "OR", "=", "<>", "<=", ">=", "<", ">", "+", "-", "*")
_NAMED_CONSTANTS = {"True": True, "False": False, "None": None}


def _tokenize_expr(text: str) -> list[str]:
    return _EXPR_TOKEN.findall(text)


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def _next(self) -> str:
        if self._pos >= len(self._tokens):
            raise ProgramSyntaxError("unexpected end of expression")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def parse(self) -> ast.Expr:
        expr = self._expr()
        if self._pos != len(self._tokens):
            raise ProgramSyntaxError(
                f"trailing tokens in expression: {self._tokens[self._pos :]!r}"
            )
        return expr

    def _expr(self) -> ast.Expr:
        token = self._next()
        if token == "(":
            left = self._expr()
            op = self._next()
            if op not in _OPS:
                raise ProgramSyntaxError(f"expected an operator, got {op!r}")
            right = self._expr()
            closing = self._next()
            if closing != ")":
                raise ProgramSyntaxError(f"expected ')', got {closing!r}")
            return ast.Bin(op, left, right)
        return _atom(token)


def _atom(token: str) -> ast.Expr:
    if token[0] == "'" and token[-1] == "'":
        return ast.Const(token[1:-1])
    # str.isdecimal is the regex class \d: Unicode category Nd.
    if token.isdecimal() or (token[0] == "-" and token[1:].isdecimal()):
        return ast.Const(int(token))
    if token in _NAMED_CONSTANTS:
        return ast.Const(_NAMED_CONSTANTS[token])
    return ast.Var(token)


def parse_expression(text: str) -> ast.Expr:
    """Parse one rendered expression."""
    if text.isdecimal():
        return ast.Const(int(text))
    if _BARE_TOKEN.fullmatch(text):
        return _atom(text)
    if text[:1] == "'" and text[-1] == "'" and text.count("'") == 2:
        return ast.Const(text[1:-1])
    return _ExprParser(_tokenize_expr(text)).parse()


#: Per separator: the characters that open or close a quote or a
#: nesting level, and the separator itself.
_SPLITTERS = {
    separator: re.compile(r"['()\[\]]|" + re.escape(separator))
    for separator in (", ", " ", " AND ")
}


def _split_top_level(text: str, separator: str) -> list[str]:
    """Split on a separator, ignoring occurrences inside quotes,
    parentheses, or brackets."""
    parts: list[str] = []
    start = depth = 0
    quoted = False
    for match in _SPLITTERS[separator].finditer(text):
        token = match[0]
        if token == "'":
            quoted = not quoted
        elif quoted:
            continue
        elif token == "(" or token == "[":
            depth += 1
        elif token == ")" or token == "]":
            depth -= 1
        elif depth == 0:
            parts.append(text[start : match.start()])
            start = match.end()
    parts.append(text[start:])
    return parts


def _parse_pairs(text: str) -> tuple[tuple[str, ast.Expr], ...]:
    """Parse ``K1=expr, K2=expr`` lists."""
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for part in _split_top_level(text, ", "):
        name, _eq, value = part.partition("=")
        if not _eq:
            raise ProgramSyntaxError(f"expected NAME=value, got {part!r}")
        pairs.append((name.strip(), parse_expression(value.strip())))
    return tuple(pairs)


def _parse_exprs(text: str) -> tuple[ast.Expr, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(
        parse_expression(part.strip()) for part in _split_top_level(text, ", ")
    )


_SSA_RE = re.compile(r"^([A-Z0-9\-#]+)(?:\((.+?)(<=|>=|<>|=|<|>)(.+)\))?$")


def _parse_ssa(text: str) -> ast.SsaSpec:
    match = _SSA_RE.match(text.strip())
    if match is None:
        raise ProgramSyntaxError(f"malformed SSA {text!r}")
    segment, field_name, op, value = match.groups()
    if field_name is None:
        return ast.SsaSpec(segment)
    return ast.SsaSpec(segment, field_name, op, parse_expression(value))


def _parse_ssas(text: str) -> tuple[ast.SsaSpec, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_ssa(part) for part in _split_top_level(text, " "))


# ---------------------------------------------------------------------------
# Leaf statements
# ---------------------------------------------------------------------------
#
# Each takes the statement without its period (``body``) and the text
# after its first word (``rest``).  A malformed statement raises an
# untagged ProgramSyntaxError, or fails on a missing regex match;
# ``_ProgramParser._block`` reports either with the line number.

_ACCEPT_RE = re.compile(r"^(\S+) PROMPT '([^']*)'$")
_READ_RE = re.compile(r"^READ (\S+) INTO (\S+)$")
_BIND_FIRST_RE = re.compile(r"^BIND FIRST (\S+) FROM (\S+)$")
_PERFORM_RE = re.compile(r"^PERFORM ([A-Z0-9\-#]+)\((.*)\)$")
_FIND_FIRST_RE = re.compile(r"^FIND FIRST (\S+) WITHIN (\S+)$")
_FIND_NEXT_RE = re.compile(r"^FIND NEXT (\S+) WITHIN (\S+)(?: USING (.+))?$")
_STORE_RE = re.compile(r"^STORE (\S+) \((.*)\)$")
_MODIFY_RE = re.compile(r"^MODIFY (\S+) \((.*)\)$")
_CONNECT_RE = re.compile(r"^CONNECT (\S+) TO (\S+)$")
_DISCONNECT_RE = re.compile(r"^DISCONNECT (\S+) FROM (\S+)$")
_RECONNECT_RE = re.compile(
    r"^RECONNECT (\S+) IN (\S+) TO ([A-Z0-9\-#]+)=(.+?)( ENSURING OWNER)?$"
)
_QUERY_RE = re.compile(r"^QUERY \[(.+)\] INTO (\S+?)(?: USING \((.*)\))?$")
_INSERT_RE = re.compile(r"^INSERT INTO (\S+) \((.*)\)$")
_DELETE_RE = re.compile(r"^DELETE FROM (\S+) WHERE (.+)$")
_UPDATE_RE = re.compile(r"^UPDATE (\S+) SET (.+) WHERE (.+)$")
_ISRT_RE = re.compile(r"^ISRT (\S+) \((.*?)\)(?: UNDER (.+))?$")
_REPL_RE = re.compile(r"^REPL \((.*)\)$")


def _unrecognized(body: str) -> ProgramSyntaxError:
    return ProgramSyntaxError(f"unrecognized statement {body!r}")


def _where_pairs(text: str) -> tuple[tuple[str, ast.Expr], ...]:
    """Parse ``K1=expr AND K2=expr`` conditions."""
    return _parse_pairs(", ".join(_split_top_level(text, " AND ")))


# -- host language ----------------------------------------------------------


def _move(body: str, rest: str) -> ast.Stmt:
    expr_text, _to, var = rest.rpartition(" TO ")
    return ast.Assign(var.strip(), parse_expression(expr_text))


def _display(body: str, rest: str) -> ast.Stmt:
    return ast.WriteTerminal(_parse_exprs(rest))


def _accept(body: str, rest: str) -> ast.Stmt:
    match = _ACCEPT_RE.match(rest)
    if match:
        return ast.ReadTerminal(match.group(1), match.group(2))
    return ast.ReadTerminal(rest.strip())


def _read(body: str, rest: str) -> ast.Stmt:
    match = _READ_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed READ: {body!r}")
    return ast.ReadFile(match.group(1), match.group(2))


def _write(body: str, rest: str) -> ast.Stmt:
    exprs, _to, file_name = rest.rpartition(" TO ")
    return ast.WriteFile(file_name.strip(), _parse_exprs(exprs))


def _bind(body: str, rest: str) -> ast.Stmt:
    if not rest.startswith("FIRST "):
        raise _unrecognized(body)
    match = _BIND_FIRST_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed BIND FIRST: {body!r}")
    return ast.BindFirstRow(match.group(1), match.group(2))


def _perform(body: str, rest: str) -> ast.Stmt:
    match = _PERFORM_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed PERFORM: {body!r}")
    return ast.Call(match.group(1), _parse_exprs(match.group(2)))


# -- network DML ------------------------------------------------------------


def _find(body: str, rest: str) -> ast.Stmt:
    if rest.startswith("ANY "):
        record, _using, using = rest[len("ANY ") :].partition(" USING ")
        return ast.NetFindAny(record.strip(), _parse_pairs(using))
    if rest.startswith("FIRST "):
        match = _FIND_FIRST_RE.match(body)
        return ast.NetFindFirst(match.group(1), match.group(2))
    if rest.startswith("NEXT "):
        match = _FIND_NEXT_RE.match(body)
        if match.group(3):
            using = _parse_pairs(match.group(3))
            return ast.NetFindNextUsing(match.group(1), match.group(2), using)
        return ast.NetFindNext(match.group(1), match.group(2))
    if rest.startswith("OWNER WITHIN "):
        return ast.NetFindOwner(rest[len("OWNER WITHIN ") :])
    if rest.startswith("CURRENT "):
        return ast.NetFindCurrent(rest[len("CURRENT ") :].strip())
    raise _unrecognized(body)


def _get(body: str, rest: str) -> ast.Stmt:
    return ast.NetGet(rest.strip())


def _store(body: str, rest: str) -> ast.Stmt:
    match = _STORE_RE.match(body)
    return ast.NetStore(match.group(1), _parse_pairs(match.group(2)))


def _modify(body: str, rest: str) -> ast.Stmt:
    match = _MODIFY_RE.match(body)
    return ast.NetModify(match.group(1), _parse_pairs(match.group(2)))


def _erase(body: str, rest: str) -> ast.Stmt:
    if rest.endswith(" ALL MEMBERS"):
        record = rest[: -len(" ALL MEMBERS")].strip()
        return ast.NetErase(record, all_members=True)
    return ast.NetErase(rest.strip())


def _connect(body: str, rest: str) -> ast.Stmt:
    match = _CONNECT_RE.match(body)
    return ast.NetConnect(match.group(1), match.group(2))


def _disconnect(body: str, rest: str) -> ast.Stmt:
    match = _DISCONNECT_RE.match(body)
    return ast.NetDisconnect(match.group(1), match.group(2))


def _reconnect(body: str, rest: str) -> ast.Stmt:
    match = _RECONNECT_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed RECONNECT: {body!r}")
    return ast.NetReconnect(
        match.group(1),
        match.group(2),
        match.group(3),
        parse_expression(match.group(4)),
        ensure_owner=match.group(5) is not None,
    )


def _call(body: str, rest: str) -> ast.Stmt:
    if not rest.startswith("DML("):
        raise _unrecognized(body)
    parts = _split_top_level(rest[len("DML(") : -1], ", ")
    verb = parse_expression(parts[0])
    record = parts[1].strip()
    pairs = _parse_pairs(", ".join(parts[2:])) if len(parts) > 2 else ()
    return ast.NetGenericCall(verb, record, pairs)


# -- relational DML ---------------------------------------------------------


def _query(body: str, rest: str) -> ast.Stmt:
    if not rest.startswith("["):
        raise _unrecognized(body)
    match = _QUERY_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed QUERY: {body!r}")
    parameters = tuple(
        p.strip() for p in (match.group(3) or "").split(",") if p.strip()
    )
    return ast.RelQuery(match.group(1), match.group(2), parameters)


def _insert(body: str, rest: str) -> ast.Stmt:
    if not rest.startswith("INTO "):
        raise _unrecognized(body)
    match = _INSERT_RE.match(body)
    return ast.RelInsert(match.group(1), _parse_pairs(match.group(2)))


def _delete(body: str, rest: str) -> ast.Stmt:
    if not rest.startswith("FROM "):
        raise _unrecognized(body)
    match = _DELETE_RE.match(body)
    return ast.RelDelete(match.group(1), _where_pairs(match.group(2)))


def _update(body: str, rest: str) -> ast.Stmt:
    match = _UPDATE_RE.match(body)
    equal = _where_pairs(match.group(3))
    return ast.RelUpdate(match.group(1), equal, _parse_pairs(match.group(2)))


# -- hierarchical DML -------------------------------------------------------


def _gu(body: str, rest: str) -> ast.Stmt:
    return ast.HierGU(_parse_ssas(rest))


def _gn(body: str, rest: str) -> ast.Stmt:
    return ast.HierGN(_parse_ssas(rest))


def _gnp(body: str, rest: str) -> ast.Stmt:
    return ast.HierGNP(_parse_ssas(rest))


def _isrt(body: str, rest: str) -> ast.Stmt:
    match = _ISRT_RE.match(body)
    if match is None:
        raise ProgramSyntaxError(f"malformed ISRT: {body!r}")
    return ast.HierISRT(
        match.group(1),
        _parse_pairs(match.group(2)),
        _parse_ssas(match.group(3) or ""),
    )


def _dlet(body: str, rest: str) -> ast.Stmt:
    return ast.HierDLET()


def _repl(body: str, rest: str) -> ast.Stmt:
    match = _REPL_RE.match(body)
    return ast.HierREPL(_parse_pairs(match.group(1)))


def _position(body: str, rest: str) -> ast.Stmt:
    if rest != "PARENT":
        raise _unrecognized(body)
    return ast.HierPositionParent()


#: Leaf statements by first word, followed by a space when the
#: statement has operands and bare when it has none.
_LEAVES: dict[str, Callable[[str, str], ast.Stmt]] = {
    "MOVE ": _move,
    "DISPLAY ": _display,
    "DISPLAY": _display,
    "ACCEPT ": _accept,
    "READ ": _read,
    "WRITE ": _write,
    "BIND ": _bind,
    "PERFORM ": _perform,
    "FIND ": _find,
    "GET ": _get,
    "STORE ": _store,
    "MODIFY ": _modify,
    "ERASE ": _erase,
    "CONNECT ": _connect,
    "DISCONNECT ": _disconnect,
    "RECONNECT ": _reconnect,
    "CALL ": _call,
    "QUERY ": _query,
    "INSERT ": _insert,
    "DELETE ": _delete,
    "UPDATE ": _update,
    "GU ": _gu,
    "GU": _gu,
    "GNP ": _gnp,
    "GNP": _gnp,
    "GN ": _gn,
    "GN": _gn,
    "ISRT ": _isrt,
    "DLET": _dlet,
    "REPL ": _repl,
    "POSITION ": _position,
}

#: The openings of the compound statements.
_OPENERS = ("IF ", "PERFORM WHILE ", "FOR EACH ")

#: Lines that end the block before them.
_BLOCK_ENDS = frozenset({"END-IF", "ELSE", "END-PERFORM", "END-FOR"})

#: A line's first word, up to whitespace or a parenthesis.
_FIRST_WORD = re.compile(r"[^\s(]*")

_FOR_EACH_RE = re.compile(r"^FOR EACH (\S+) IN (\S+)$")
_PROGRAM_RE = re.compile(r"^PROGRAM ([A-Z0-9\-#]+) \((\w+) / ([A-Z0-9\-#]+)\)\.$")
_PROCEDURE_RE = re.compile(r"^PROCEDURE ([A-Z0-9\-#]+)\((.*)\)\.$")


# ---------------------------------------------------------------------------
# Programs and compound statements
# ---------------------------------------------------------------------------


class _ProgramParser:
    def __init__(self, text: str):
        self._text = text
        #: The non-blank lines, stripped; :meth:`_line_no` numbers them.
        self._lines = [line for line in map(str.strip, text.splitlines()) if line]
        self._pos = 0

    def _line_no(self, index: int) -> int:
        """The 1-based text line of ``self._lines[index]`` (for error
        messages only, so it is worked out again each time)."""
        lines = enumerate(map(str.strip, self._text.splitlines()), start=1)
        return [number for number, line in lines if line][index]

    def _peek(self) -> str | None:
        if self._pos < len(self._lines):
            return self._lines[self._pos]
        return None

    def _next(self) -> str:
        line = self._peek()
        if line is None:
            raise ProgramSyntaxError("unexpected end of program text")
        self._pos += 1
        return line

    def parse(self) -> ast.Program:
        if not self._lines:
            end = len(self._text.splitlines()) + 1
            raise ProgramSyntaxError("unexpected end of program text", end)
        header = self._next()
        match = _PROGRAM_RE.match(header)
        if match is None:
            raise ProgramSyntaxError(
                f"expected 'PROGRAM NAME (model / schema).', got {header!r}",
                self._line_no(0),
            )
        name, model, schema_name = match.groups()
        statements = self._block(top=True)
        procedures = []
        while self._peek() is not None:
            procedures.append(self._procedure())
        return ast.Program(name, model, schema_name, statements, tuple(procedures))

    def _procedure(self) -> ast.Procedure:
        header = self._next()
        match = _PROCEDURE_RE.match(header)
        if match is None:
            raise ProgramSyntaxError(
                f"expected 'PROCEDURE NAME(params).', got {header!r}",
                self._line_no(self._pos - 1),
            )
        name, params_text = match.groups()
        parameters = tuple(p.strip() for p in params_text.split(",") if p.strip())
        return ast.Procedure(name, parameters, self._block(top=True))

    def _block(self, top: bool) -> tuple[ast.Stmt, ...]:
        """Statements up to the end of the text, a block terminator, or
        a procedure header.  At the top level any line whose first
        word is PROCEDURE ends the block, so a malformed header is
        reported as one."""
        statements = []
        lines = self._lines
        pos = self._pos
        while pos < len(lines):
            line = lines[pos]
            if line in _BLOCK_ENDS:
                break
            if line[0] == "P" and (
                line.startswith("PROCEDURE ")
                or (top and _FIRST_WORD.match(line)[0] == "PROCEDURE")
            ):
                break
            # A compound statement's blocks advance the position past
            # the line that closes it.
            self._pos = pos + 1
            try:
                statements.append(self._statement(line))
            except ProgramSyntaxError as error:
                if error.line_no is not None:  # by a nested block or _end
                    raise
                raise ProgramSyntaxError(str(error), self._line_no(pos)) from None
            except ReproError:
                raise
            except Exception as error:  # tokenizer edge cases -> syntax error
                message = f"cannot parse {line!r}: {error}"
                raise ProgramSyntaxError(message, self._line_no(pos)) from error
            pos = self._pos
        return tuple(statements)

    def _statement(self, line: str) -> ast.Stmt:
        if line.startswith(_OPENERS):
            if line.startswith("IF "):
                return self._if(line[len("IF ") :])
            if line.startswith("PERFORM WHILE "):
                return self._while(line[len("PERFORM WHILE ") :])
            return self._for_each(line)
        if line[-1] != ".":
            raise ProgramSyntaxError(f"missing period: {line!r}")
        body = line[:-1]
        word, space, rest = body.partition(" ")
        leaf = _LEAVES.get(word + space)
        if leaf is None:
            raise _unrecognized(body)
        return leaf(body, rest)

    def _end(self, marker: str) -> None:
        line = self._next()
        if line != marker:
            message = f"expected {marker}, got {line!r}"
            raise ProgramSyntaxError(message, self._line_no(self._pos - 1))

    def _if(self, condition_text: str) -> ast.If:
        condition = parse_expression(condition_text)
        then = self._block(top=False)
        orelse: tuple[ast.Stmt, ...] = ()
        if self._peek() == "ELSE":
            self._pos += 1
            orelse = self._block(top=False)
        self._end("END-IF")
        return ast.If(condition, then, orelse)

    def _while(self, condition_text: str) -> ast.While:
        condition = parse_expression(condition_text)
        body = self._block(top=False)
        self._end("END-PERFORM")
        return ast.While(condition, body)

    def _for_each(self, line: str) -> ast.ForEachRow:
        match = _FOR_EACH_RE.match(line)
        if match is None:
            raise ProgramSyntaxError(f"malformed FOR EACH: {line!r}")
        body = self._block(top=False)
        self._end("END-FOR")
        return ast.ForEachRow(match.group(1), match.group(2), body)


def parse_program(text: str) -> ast.Program:
    """Parse pseudo-COBOL program text into a :class:`Program`."""
    return _ProgramParser(text).parse()


def roundtrips(program: ast.Program) -> bool:
    """True when render -> parse reproduces the program exactly."""
    return parse_program(ast.render_program(program)) == program


__all__ = ["parse_program", "parse_expression", "ProgramSyntaxError", "roundtrips"]
