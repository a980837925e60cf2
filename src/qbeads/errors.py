"""Exception types shared across the package.

Two failure categories are kept distinct because the command line maps
them to different exit codes: malformed or out-of-contract input
(InputError, exit 2) versus well-formed objects that fail an axiom or an
expected-value comparison (exit 1, reported as data rather than raised).
Every input file is read through read_text, so a file that cannot be
read or decoded is an InputError too.
"""


class QBeadsError(Exception):
    """Base class for all package-specific errors."""


class InputError(QBeadsError):
    """Malformed input: bad file syntax, out-of-range index, wrong shape."""


class AxiomError(QBeadsError):
    """Raised when constructing an object whose defining axioms fail.

    Carries the full violation report so callers can print it.
    """

    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = list(violations)


def read_text(path):
    """The text of a UTF-8 file.  A file that cannot be opened or read,
    or is not UTF-8, raises InputError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
