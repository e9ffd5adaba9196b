"""Exception types raised across the codeforest pipeline.

Every error carries enough context to point a user at the offending
input: lexer and parser errors hold a source span, corpus errors hold
paths, model errors hold the class names involved. ``exit_code`` is
the CLI's exit status for the error: 2 for usage errors (a missing
root, an invalid config, a config whose sizes overflow the geometry,
an OBJ output path that its own material file would overwrite), 1 for
everything else.
"""

from __future__ import annotations


class CodeforestError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class NonUtf8Input(CodeforestError):
    """Source bytes are not valid UTF-8."""

    def __init__(self, byte_offset: int, file_id: str = "<memory>"):
        self.byte_offset = byte_offset
        self.file_id = file_id
        super().__init__(f"{file_id}: invalid UTF-8 at byte offset {byte_offset}")


class _SourceError(CodeforestError):
    """An error at a source span, reported as ``file:line: problem``."""

    problem: str

    def __init__(self, span):
        self.span = span
        super().__init__(f"{span.file_id}:{span.line_start}: {self.problem}")


class UnterminatedLiteral(_SourceError):
    """A string or character literal is not closed before end of line/file."""

    problem = "unterminated literal"


class UnterminatedComment(_SourceError):
    """A block comment is not closed before end of file."""

    problem = "unterminated block comment"


class UnbalancedBraces(_SourceError):
    """Brackets do not pair inside a compilation unit.

    ``span`` is the first closer with no partner or of the wrong kind,
    or the first opener that never closes.
    """

    problem = "unbalanced braces"


class MissingClassName(_SourceError):
    """A class or interface keyword is not followed by a name."""

    problem = "class keyword without a name"


class MissingClassBody(_SourceError):
    """A class header reaches a closer or end of file before its ``{``."""

    def __init__(self, span, name: str):
        self.name = name
        self.problem = f"class {name} has no body"
        super().__init__(span)


class RootNotFound(CodeforestError):
    """The corpus root directory does not exist or is not a directory."""

    exit_code = 2

    def __init__(self, root: str):
        self.root = root
        super().__init__(f"corpus root not found: {root}")


class DuplicateClassName(CodeforestError):
    """Two classes in the same package share a name."""

    def __init__(self, package: str, name: str):
        self.package = package
        self.name = name
        super().__init__(f"duplicate class {name!r} in package {package!r}")


class InheritanceCycle(CodeforestError):
    """Resolved inheritance edges contain a cycle."""

    def __init__(self, participants: list[str]):
        self.participants = list(participants)
        super().__init__("inheritance cycle: " + " -> ".join(self.participants))


class DegenerateSegment(CodeforestError):
    """A channel polyline contains two consecutive coincident points."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"degenerate channel segment at point {index}")


class GeometryOverflow(CodeforestError):
    """Config values so large that a size or coordinate overflows a float.

    ``what`` names the first island or scene node found to overflow.
    """

    exit_code = 2

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"{what} overflows; the config's sizes are too large")


class SceneTooLarge(CodeforestError):
    """A mesh exceeds what a glTF accessor can index."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"accessor count {count} exceeds glTF limits")


class OutputIsMaterialFile(CodeforestError):
    """An OBJ output path ends in ``.mtl``, so its sibling material file
    would overwrite it."""

    exit_code = 2

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path}: the OBJ output would be overwritten by its own .mtl file")


class UnknownKey(CodeforestError):
    """A config file names a key this tool does not define."""

    exit_code = 2

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key: {key}")


class NonPositiveValue(CodeforestError):
    """A config value is outside its allowed range."""

    exit_code = 2

    def __init__(self, key: str, value, reason: str = "must be positive"):
        self.key = key
        self.value = value
        super().__init__(f"config key {key} {reason}, got {value}")


class ConfigSyntaxError(CodeforestError):
    """A config line does not parse: no ``=``, or a value of the wrong shape."""

    exit_code = 2

    def __init__(self, where: str, detail: str):
        self.where = where
        super().__init__(f"{where}: {detail}")
