"""Shared exception types, mapped onto CLI exit codes by the cli module,
and the field type check that config dataclasses share."""

import dataclasses
import math
import typing


class ConfigError(ValueError):
    """Bad configuration or missing referenced file (CLI exit code 1)."""


class DataError(ValueError):
    """Malformed or invariant-violating input data (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Numeric failure such as a diverged training run (CLI exit code 3)."""


def check_field_types(config) -> None:
    """Raise a ConfigError naming the first field of the dataclass instance
    ``config`` whose value does not have its annotated type.

    An ``int`` field takes an int, a ``float`` field a finite int or float,
    and neither takes a bool; a ``tuple[...]`` field takes a tuple of that
    length whose entries have those types.  Range checks are the caller's.
    """
    hints = typing.get_type_hints(type(config))
    for field in dataclasses.fields(config):
        _check_value(getattr(config, field.name), hints[field.name], field.name)


def _check_value(value, hint, where: str) -> None:
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if not (isinstance(value, tuple) and len(value) == len(kinds)):
            raise ConfigError(
                f"config field {where}: expected a list of {len(kinds)} numbers, "
                f"got {value!r:.40}"
            )
        for i, (v, kind) in enumerate(zip(value, kinds)):
            _check_value(v, kind, f"{where}[{i}]")
    elif hint is int:
        if type(value) is not int:  # bool is an int subclass
            raise ConfigError(f"config field {where}: expected an integer, got {value!r:.40}")
    elif hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
            raise ConfigError(
                f"config field {where}: expected a finite number, got {value!r:.40}"
            )


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False
