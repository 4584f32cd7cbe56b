"""Exception types shared across the package, and the guard that turns an
input file's undecodable byte into one of them."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class EntresError(Exception):
    """Base class for all package errors."""


# --- core model ---

class NonEntityMerge(EntresError):
    """Attempt to merge a Value or Null constant."""


class UnknownConstant(EntresError):
    """Constant not in the domain of the equivalence relation."""


# --- specification language ---

class SpecError(EntresError):
    """Base class for specification problems."""


class SpecSyntaxError(SpecError):
    """Malformed specification text; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownRelation(SpecError):
    """Atom over a relation that was never declared."""


class ArityMismatch(SpecError):
    """Atom or data row with the wrong number of arguments."""


class UnsafeHeadVariable(SpecError):
    """Head variable that does not occur in any relational atom of the body."""


class SpecValidationError(SpecError):
    """Other semantic problems: duplicate labels, unbound similarity terms,
    head variables outside merge positions, similarity atoms in denial
    constraints, and the like."""


# --- similarity ---

class MissingSimScore(EntresError):
    """Strict resolver was asked for a pair that was never scored."""


class UnknownSimFunction(SpecError):
    """Similarity atom references a function that was never declared."""


# --- engine ---

class NotASolution(EntresError):
    """Equivalence relation offered where a solution was required."""


# --- explanations ---

class NotInSolution(EntresError):
    """Asked to explain a merge the solution does not contain."""


# --- ingest / CLI data errors ---

class DataError(EntresError):
    """Base class for input-data problems."""


class MissingFile(DataError):
    """Expected data file absent."""


class HeaderMismatch(DataError):
    """Data file header does not match the declared attributes."""


class RaggedRow(DataError):
    """Data row with the wrong number of cells."""


@contextmanager
def decode_guard(path, error: type[EntresError]) -> Iterator[None]:
    """Reading path as UTF-8 within the block, a byte that is not UTF-8
    raises error naming path:line instead of a UnicodeDecodeError."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise error(
                f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8"
            ) from None
        raise
