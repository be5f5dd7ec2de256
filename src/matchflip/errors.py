"""Error types shared across the package.

The CLI maps these onto its exit-code contract: verification mismatches
exit 2, memory/resource refusals and failed graph build workers exit 4.
An exhausted search budget is a result (rainbow status "budget", exit 3),
not an error.
"""


class VerificationError(Exception):
    """A predicted quantity disagreed with an enumerated one."""


class ResourceLimitError(Exception):
    """A computation would exceed the configured memory budget."""


class WorkerError(RuntimeError):
    """A graph build worker failed, other than by running out of memory."""
