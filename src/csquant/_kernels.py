"""Kernel backend record: numpy is the only backend."""


def backend_name() -> str:
    """Kernel backend; numpy is the only one."""
    return "numpy"
