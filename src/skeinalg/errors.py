"""Exception types shared across the library.

The CLI maps these onto its exit-code contract, so raising the right
class matters more than the message text.

Argument policy: an object of the wrong class is the caller's bug, and
Python's TypeError or AttributeError for it is fine, except in a
tangle, where an event or a coupon's morphism of the wrong class would
fail only later, in a fold, and so raises ContractViolation when the
tangle is built.  A size, count, width, index, sign, exponent or
scalar of the wrong type or value, or past a documented cap, raises
ContractViolation.  Containers from a file
or the command line are checked where they are read (``jsonio``,
``parse_word``), before any constructor sees them.

``int_arg`` is the one implementation of the policy for int arguments:
every size, count, width, index, sign, exponent, duration and seed is
checked by a call to it.
"""


class SkeinalgError(Exception):
    """Base class for all library errors."""


class ParseError(SkeinalgError):
    """Malformed textual input (word syntax, braid strings, JSON schemas)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ContractViolation(SkeinalgError):
    """A call broke a documented precondition (dimension or shape mismatch)."""


class ValidationError(SkeinalgError):
    """A constructed object failed its algebraic invariants."""


class TangleShapeError(SkeinalgError):
    """Slice widths do not chain, or a closed tangle was required."""


class LabelNotFound(SkeinalgError):
    """A word referenced a state/costate/observable label the system lacks."""


class InternalCheckError(SkeinalgError):
    """A redundant internal consistency check failed; indicates a bug."""


def int_arg(value, what: str, lo=0, hi=None, error=ContractViolation) -> int:
    """value, if it is an int with lo <= value <= hi; else raise error.

    lo=None and hi=None leave that side unbounded.  type, not isinstance,
    turns bools away: True would pass as 1.  The message names what, the
    bounds and the value.
    """
    if (type(value) is int and (lo is None or lo <= value)
            and (hi is None or value <= hi)):
        return value
    if lo is None:
        bound = "" if hi is None else f" <= {hi}"
    else:
        bound = f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise error(f"{what} must be an int{bound}, got {value!r}")
