"""Exception types with stable machine-readable kinds.

The ``kind`` tag is what the CLI serializes into ``{"error": {"kind": ...}}``
documents, so it must stay backward compatible.
"""


class RaagError(Exception):
    """Base class for all domain and input errors raised by this package."""

    kind = "error"

    def __init__(self, detail, **info):
        super().__init__(detail)
        self.detail = detail
        self.info = dict(info)

    def payload(self):
        doc = {"kind": self.kind, "detail": self.detail}
        doc.update(self.info)
        return doc


class ParseError(RaagError):
    """Malformed input document (bad JSON, self-loop, duplicate edge, ...)."""

    kind = "parse"


class UnknownVertexError(RaagError):
    kind = "unknown_vertex"


class CliqueCapError(RaagError):
    """A clique enumeration would pass ``complexes.SIMPLEX_BUDGET`` simplices,
    which ``info["budget"]`` holds (2**20: the complete graph on 20 vertices)."""

    kind = "clique_cap"


class NotChordalError(RaagError):
    """Carries the offending induced cycle in ``info["cycle"]``."""

    kind = "not_chordal"


class DisconnectedError(RaagError):
    kind = "disconnected"


class NotOneEndedError(RaagError):
    """Fewer than two vertices where a one-ended group is required."""

    kind = "not_one_ended"


class ZeroCharacterError(RaagError):
    kind = "zero_character"


class CharacterDomainError(RaagError):
    """Character support does not match the vertex set it is paired with."""

    kind = "character_domain"


class NotIntegralError(RaagError):
    kind = "character_not_integral"


class NotPrimitiveError(RaagError):
    kind = "character_not_primitive"


class AmbientMismatchError(RaagError):
    kind = "ambient_mismatch"


class SplittingError(RaagError):
    """Structural misuse of a graph of groups (multi-vertex input to a
    single-vertex operation, missing stable letters, non-proportional
    character, bad truncation parameters)."""

    kind = "splitting"


class ResultTooLargeError(RaagError):
    """An exact result has more decimal digits than the interpreter
    converts to text; the limit is in ``info["limit"]``."""

    kind = "result_too_large"


class InvalidInput(RaagError):
    """Generic precondition violation (singleton complex where two vertices
    are needed, bad sizes)."""

    kind = "invalid_input"
