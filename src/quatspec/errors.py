"""Exception types shared across the package, and the key check of every
input document."""


class PreconditionError(ValueError):
    """An operation was called with input violating its contract
    (wrong dimensions, wrong operator class, point outside a domain, ...)."""


class NumericalError(RuntimeError):
    """A numerical routine could not reach its accuracy contract
    (eigensolver failure, series that does not converge, singular node, ...)."""


def _check_keys(data, document: str, required: set, optional: set) -> None:
    """Require the JSON document `data` to be an object with the required keys
    and no other key than the optional ones; the message names the key and
    the document, e.g. "unknown key 'N' in a matrix"."""
    if not isinstance(data, dict):
        raise PreconditionError(f"a {document} must be a JSON object")
    missing, unknown = sorted(required - data.keys()), sorted(data.keys() - required - optional)
    if missing:
        raise PreconditionError(f"missing key {missing[0]!r} in a {document}")
    if unknown:
        raise PreconditionError(f"unknown key {unknown[0]!r} in a {document}; "
                                f"allowed: {', '.join(sorted(required | optional))}")
