"""The shared base of every module: errors, residues mod p, exact numbers.

Each carrier and solver imports these names from here, so a call that
never builds an abstract complex never compiles `core`.  `core`
re-exports them, so `flatchains.core.X` paths keep working.
"""

from __future__ import annotations

from fractions import Fraction


class PreconditionError(ValueError):
    """An input violates a documented precondition of an operation."""


class InternalDefectError(RuntimeError):
    """An internal consistency check failed; this is a bug, not bad input."""


class FillInfeasibleError(ValueError):
    """No chain in the complex fills the requested boundary mod p."""


def norm_mod_p(g: int, p: int) -> int:
    """Distance from the integer g to the nearest multiple of p."""
    _check_modulus(p)
    if not isinstance(g, int):
        raise PreconditionError(f"integer coefficient expected, got {g!r}")
    r = g % p
    return min(r, p - r)


def canonical_residue(g: int, p: int) -> int:
    """Residue of g in (-p/2, p/2], ties at +p/2 for even p."""
    _check_modulus(p)
    r = g % p
    return r - p if 2 * r > p else r


def _check_modulus(p) -> None:
    if not isinstance(p, int) or p < 2:
        raise PreconditionError(f"invalid modulus: {p!r} (an integer >= 2 is required)")


class Frozen:
    """Base of the immutable value classes, whose __init__ fills `vars(self)`.

    The names in `_fields` make the repr, equality and hash, in order; other
    attributes take part in none of them.  Assigning or deleting raises.
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction; floats convert by their binary value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"cannot parse {x!r} as an exact number") from exc
    raise PreconditionError(f"cannot convert {x!r} to an exact number")
