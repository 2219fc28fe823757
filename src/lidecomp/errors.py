"""Shared exception types, and the integer check for values read from JSON.

Two families cover every failure mode in the toolkit: bad input versus
exhausted search/budget. The CLI maps them to exit codes 2 and 3.
"""


class InputError(ValueError):
    """Rejected input: malformed file, violated precondition, invalid profile."""


class BudgetError(RuntimeError):
    """A bounded search ran out of budget (generation, solving, rounding, exact search)."""


def json_int(x: object) -> int:
    """``x`` if it is a JSON integer, else ``InputError``.

    ``int()`` would take JSON ``true`` as 1 and ``1.5`` as 1; ``bool`` is a
    subclass of ``int``, so the type is compared exactly.
    """
    if type(x) is not int:
        raise InputError(f"expected an integer, got {x!r}")
    return x
