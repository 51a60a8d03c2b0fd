"""Structural lint of emitted Verilog — the stand-in for synthesis.

Re-parses a project (one source string or a ``{file: text}`` dict) and
checks what elaboration would: every ``module`` has its ``endmodule``,
no module is defined twice, every instance names a known module, every
named connection and parameter override exists on that module, no
input is left unconnected, every net an instance or ``assign`` names is
declared, and (when asked) the project has exactly one top module.

The parser reads the subset of Verilog-2001 the templates emit: ANSI
port headers, declarations, ``assign``, named-connection instances with
optional ``#(...)`` overrides, and ``always``/``initial`` statements,
which are skipped as opaque behaviour.  Comments and compiler
directives (`` `timescale``) are stripped first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import RTLError

_COMMENT_OR_STRING = re.compile(r'("(?:[^"\\\n]|\\.)*")|//[^\n]*|/\*.*?\*/',
                                re.DOTALL)
_DIRECTIVE = re.compile(r"^[ \t]*`[^\n]*", re.MULTILINE)
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>\d*\s*'[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ?_]+|\d[\d_]*(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<system>\$[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><<<|>>>|===|!==|<=|>=|==|!=|&&|\|\||<<|>>|\+:|-:|\*\*|~&|~\||~\^|\^~
          |[()\[\]{};,.\#@=+\-*/%&|^~!?:<>])
""", re.VERBOSE)

_DECLARATIONS = {"wire", "reg", "integer", "genvar", "parameter",
                 "localparam", "real", "time", "input", "output", "inout"}
_DIRECTIONS = {"input", "output", "inout"}
_BLOCK_ENDS = {"function": "endfunction", "task": "endtask",
               "generate": "endgenerate"}
_TYPE_WORDS = {"wire", "reg", "integer", "signed", "unsigned", "genvar",
               "real", "time"}


@dataclass
class ModuleInfo:
    """What the lint learnt of one module."""

    name: str
    #: Port names; :attr:`directions` maps each to input/output/inout.
    ports: frozenset[str] = frozenset()
    directions: dict[str, str] = field(default_factory=dict)
    parameters: frozenset[str] = frozenset()
    #: Every declared name: ports, parameters, nets, variables.
    declared: frozenset[str] = frozenset()
    #: ``(module, instance name, {port: expression})`` in source order.
    instances: list[tuple[str, str, dict[str, str]]] = field(
        default_factory=list)
    #: ``(instance name, parameter names overridden)``.
    overrides: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    #: Identifiers read or written by ``assign`` statements.
    assign_names: list[str] = field(default_factory=list)
    source: str = ""
    #: False when a syntax error cut the parse short; such a module's
    #: declarations are incomplete and are not checked against.
    complete: bool = True


@dataclass
class LintReport:
    """Outcome of linting a project."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise RTLError("RTL lint failed:\n" + "\n".join(self.errors[:20]))


def _strip_comments(text: str) -> str:
    """Drop comments and compiler directives; string literals survive."""
    def keep(match: re.Match[str]) -> str:
        if match.group(1):
            return match.group(1)
        return "\n" * match.group(0).count("\n") or " "
    return _DIRECTIVE.sub("", _COMMENT_OR_STRING.sub(keep, text))


def _tokenize(text: str, errors: list[str], where: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            errors.append(f"{where}: unexpected character "
                          f"{text[position]!r}")
            position += 1
            continue
        if match.lastgroup != "space":
            tokens.append(match.group(0))
        position = match.end()
    return tokens


def _is_ident(token: str) -> bool:
    return bool(token) and (token[0].isalpha() or token[0] == "_")


class _Parser:
    """Module-level scan of one token stream."""

    def __init__(self, tokens: list[str], where: str,
                 errors: list[str]) -> None:
        self.tokens = tokens
        self.where = where
        self.errors = errors
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        if self.peek() != token:
            raise _Syntax(f"expected '{token}', found '{self.peek() or 'EOF'}'")
        self.pos += 1

    def balanced(self) -> list[str]:
        """Consume a parenthesised group; return the tokens inside it."""
        self.expect("(")
        start, depth = self.pos, 1
        while depth:
            token = self.take()
            if not token:
                raise _Syntax("unbalanced '('")
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
        return self.tokens[start:self.pos - 1]

    def skip_to(self, end: str) -> list[str]:
        """Consume through ``end`` at bracket depth 0; return the tokens
        before it."""
        start, depth = self.pos, 0
        while True:
            token = self.take()
            if not token or token in ("module", "endmodule"):
                raise _Syntax(f"missing '{end}'")
            if token in "([{":
                depth += 1
            elif token in ")]}":
                depth -= 1
            elif token == end and depth == 0:
                return self.tokens[start:self.pos - 1]

    def skip_statement(self) -> None:
        token = self.peek()
        if token in ("@", "#"):
            self.take()
            if self.peek() == "(":
                self.balanced()
            else:
                self.take()
            if self.peek() != ";":
                self.skip_statement()
                return
            self.take()
        elif token == "begin":
            self._skip_nested("begin", "end")
        elif token in ("case", "casez", "casex"):
            self._skip_nested(token, "endcase")
        elif token == "if":
            self.take()
            self.balanced()
            self.skip_statement()
            if self.peek() == "else":
                self.take()
                self.skip_statement()
        elif token in ("for", "while", "repeat"):
            self.take()
            self.balanced()
            self.skip_statement()
        elif token == "forever":
            self.take()
            self.skip_statement()
        else:
            self.skip_to(";")

    def _skip_nested(self, open_: str, close: str) -> None:
        depth = 0
        while True:
            token = self.take()
            if not token or token in ("module", "endmodule"):
                raise _Syntax(f"'{open_}' without '{close}'")
            if token == open_ or (open_ != "begin" and
                                  token in ("case", "casez", "casex")):
                depth += 1
            elif token == close:
                depth -= 1
                if depth == 0:
                    return

    # -- module structure -----------------------------------------------

    def parse(self) -> list[ModuleInfo]:
        modules: list[ModuleInfo] = []
        while self.peek():
            token = self.take()
            if token != "module":
                self.errors.append(f"{self.where}: '{token}' outside any "
                                   "module")
                continue
            name = self.take()
            if not _is_ident(name):
                self.errors.append(f"{self.where}: bad module name '{name}'")
                continue
            info = ModuleInfo(name=name, source=self.where)
            try:
                self._module(info)
            except _Syntax as problem:
                self.errors.append(f"{self.where}: module '{name}': "
                                   f"{problem}")
                info.complete = False
                self._recover()
            modules.append(info)
        return modules

    def _recover(self) -> None:
        """Resume at the next ``module`` after a syntax error."""
        while self.peek() and self.peek() != "module":
            if self.take() == "endmodule":
                return

    def _module(self, info: ModuleInfo) -> None:
        declared: list[str] = []
        parameters: list[str] = []
        ports: dict[str, str] = {}
        if self.peek() == "#":
            self.take()
            for chunk in _split_commas(self.balanced()):
                names = _declared_names(chunk)
                parameters.extend(names)
        if self.peek() == "(":
            direction = ""
            for chunk in _split_commas(self.balanced()):
                if chunk and chunk[0] in _DIRECTIONS:
                    direction = chunk[0]
                names = _declared_names(chunk)
                if not names:
                    raise _Syntax("empty port declaration")
                ports[names[-1]] = direction
        self.expect(";")
        while True:
            token = self.peek()
            if not token or token == "module":
                raise _Syntax("no 'endmodule'")
            if token == "endmodule":
                self.take()
                break
            if token in _DECLARATIONS:
                self.take()
                names = _declared_names([token] + self.skip_to(";"))
                if token == "parameter":
                    parameters.extend(names)
                if token in _DIRECTIONS:
                    for name in names:
                        ports[name] = token
                declared.extend(names)
            elif token == "assign":
                self.take()
                info.assign_names.extend(
                    t for t in self.skip_to(";") if _is_ident(t))
            elif token in ("always", "initial"):
                self.take()
                self.skip_statement()
            elif token in _BLOCK_ENDS:
                self.take()
                end = _BLOCK_ENDS[token]
                while self.take() != end:
                    if not self.peek():
                        raise _Syntax(f"'{token}' without '{end}'")
            elif _is_ident(token):
                self._instance(info)
            else:
                raise _Syntax(f"unexpected '{token}'")
        info.ports = frozenset(ports)
        info.directions = ports
        info.parameters = frozenset(parameters)
        info.declared = frozenset([*ports, *parameters, *declared])

    def _instance(self, info: ModuleInfo) -> None:
        module = self.take()
        overrides: list[str] = []
        if self.peek() == "#":
            self.take()
            for chunk in _split_commas(self.balanced()):
                if len(chunk) < 2 or chunk[0] != ".":
                    raise _Syntax(f"instance of '{module}' overrides "
                                  "parameters by position")
                overrides.append(chunk[1])
        name = self.take()
        if not _is_ident(name):
            raise _Syntax(f"instance of '{module}' has bad name '{name}'")
        connections: dict[str, str] = {}
        for chunk in _split_commas(self.balanced()):
            if len(chunk) < 4 or chunk[0] != "." or chunk[2] != "(" \
                    or chunk[-1] != ")":
                raise _Syntax(f"instance '{name}' of '{module}' must use "
                              "named connections .port(expr)")
            port = chunk[1]
            if port in connections:
                raise _Syntax(f"instance '{name}' connects '{port}' twice")
            connections[port] = " ".join(chunk[3:-1])
        self.expect(";")
        info.instances.append((module, name, connections))
        info.overrides.append((name, tuple(overrides)))


class _Syntax(Exception):
    """A parse failure inside one module."""


def _split_commas(tokens: list[str]) -> list[list[str]]:
    """Split a token list on commas at bracket depth 0."""
    chunks: list[list[str]] = [[]]
    depth = 0
    for token in tokens:
        if token in "([{":
            depth += 1
        elif token in ")]}":
            depth -= 1
        if token == "," and depth == 0:
            chunks.append([])
        else:
            chunks[-1].append(token)
    return [chunk for chunk in chunks if chunk]


def _declared_names(tokens: list[str]) -> list[str]:
    """Names a declaration introduces: identifiers at bracket depth 0
    that are not type words and not inside an initialiser."""
    names: list[str] = []
    depth = 0
    in_value = False
    for token in tokens:
        if token in "([{":
            depth += 1
        elif token in ")]}":
            depth -= 1
        elif depth == 0 and token == "=":
            in_value = True
        elif depth == 0 and token == ",":
            in_value = False
        elif (depth == 0 and not in_value and _is_ident(token)
              and token not in _TYPE_WORDS and token not in _DECLARATIONS):
            names.append(token)
    return names


def _parse(text: str, where: str, errors: list[str]) -> list[ModuleInfo]:
    tokens = _tokenize(_strip_comments(text), errors, where)
    return _Parser(tokens, where, errors).parse()


def parse_modules(text: str) -> list[ModuleInfo]:
    """Parse every module in ``text``; raises :class:`RTLError` on a
    syntax error."""
    errors: list[str] = []
    modules = _parse(text, "<source>", errors)
    if errors:
        raise RTLError("; ".join(errors))
    return modules


def lint_source(source: str | dict[str, str],
                expect_single_top: bool = True) -> LintReport:
    """Lint one source text or a whole ``{file name: text}`` project.

    With ``expect_single_top``, more than one module that nobody
    instantiates is reported as a warning.
    """
    files = source if isinstance(source, dict) else {"<source>": source}
    report = LintReport()
    for where, text in files.items():
        for info in _parse(text, where, report.errors):
            if info.name in report.modules:
                report.errors.append(
                    f"{where}: module '{info.name}' defined more than once "
                    f"(also in {report.modules[info.name].source})")
                continue
            report.modules[info.name] = info
    instantiated: set[str] = set()
    for info in report.modules.values():
        _check_module(info, report, instantiated)
    tops = [name for name in report.modules if name not in instantiated]
    if report.modules and not tops:
        report.errors.append("no top module: every module is instantiated "
                             "(instantiation cycle)")
    elif expect_single_top and len(tops) > 1:
        report.warnings.append(f"more than one top module: {sorted(tops)}")
    return report


def _check_module(info: ModuleInfo, report: LintReport,
                  instantiated: set[str]) -> None:
    where = f"{info.source}: module '{info.name}'"
    if not info.complete:
        instantiated.update(module for module, _, _ in info.instances)
        return
    for name in info.assign_names:
        if name not in info.declared:
            report.errors.append(f"{where}: assign uses undeclared '{name}'")
    seen: set[str] = set()
    for (module, name, connections), (_, overrides) in zip(info.instances,
                                                           info.overrides):
        if name in seen or name in info.declared:
            report.errors.append(f"{where}: instance name '{name}' is "
                                 "declared more than once")
        seen.add(name)
        if module == info.name:
            report.errors.append(f"{where}: instance '{name}' instantiates "
                                 "its own module")
            continue
        target = report.modules.get(module)
        if target is None:
            report.errors.append(f"{where}: instance '{name}' of unknown "
                                 f"module '{module}'")
            continue
        instantiated.add(module)
        if not target.complete:
            continue
        for port, expr in connections.items():
            if port not in target.ports:
                report.errors.append(f"{where}: instance '{name}' connects "
                                     f"'{port}', which '{module}' does not "
                                     "have")
            for token in expr.split():
                if _is_ident(token) and token not in info.declared:
                    report.errors.append(f"{where}: instance '{name}' port "
                                         f"'{port}' reads undeclared "
                                         f"'{token}'")
        for port, direction in target.directions.items():
            if direction == "input" and not connections.get(port):
                report.errors.append(f"{where}: instance '{name}' leaves "
                                     f"input '{port}' of '{module}' "
                                     "unconnected")
        for parameter in overrides:
            if parameter not in target.parameters:
                report.errors.append(f"{where}: instance '{name}' overrides "
                                     f"'{parameter}', which '{module}' does "
                                     "not declare")
