"""Exception types shared across the package."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed its configured cap."""


class InternalCheckError(RuntimeError):
    """A cross-check that must hold by theorem failed; signals a library bug."""


def guard_cap(size: int, cap: int, what: str) -> None:
    """Raise CapExceeded when `size` items of `what` would exceed `cap`. A
    size over 100 bits is shown by the power of two below it: its decimal
    form may be too long to read, or even to convert."""
    if size > cap:
        bits = size.bit_length()
        shown = size if bits <= 100 else f"at least 2^{bits - 1}"
        raise CapExceeded(f"{what}: {shown} exceeds cap {cap}")
