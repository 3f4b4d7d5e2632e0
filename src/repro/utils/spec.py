"""The ``key=value`` mini-language of the CLI plan specs.

Every seeded plan — network faults, worker faults, storage faults,
stragglers, durable-storage corruption — parses the same shape: a
comma-separated ``key=value`` list whose values are numbers, ``+``-joined
numbers, or ``+``-joined ``a:b[:c]`` events.  :func:`parse_spec` is the one
item loop; the converters below cover the value shapes.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError


def parse_spec(spec: str, what: str, fields: dict[str, tuple[str, Callable]]) -> dict:
    """Constructor kwargs from a comma-separated ``key=value`` spec.

    ``fields`` maps each known key to ``(kwarg name, converter)``.  A
    converter's ``ValueError`` becomes a
    :class:`~repro.errors.ConfigurationError`, as do an item without ``=``
    and an unknown key.  A key declared with an :class:`Events` converter
    extends its kwarg's tuple, so event keys may repeat and several may
    feed one kwarg; any other converter's value replaces the kwarg.
    """
    kwargs: dict = {}
    for item in filter(None, (s.strip() for s in spec.split(","))):
        if "=" not in item:
            raise ConfigurationError(f"{what} spec item {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip().lower()
        if key not in fields:
            raise ConfigurationError(
                f"unknown {what} spec key {key!r} (known: {', '.join(sorted(fields))})"
            )
        name, conv = fields[key]
        try:
            out = conv(value)
        except ValueError as exc:
            raise ConfigurationError(f"{what} spec {key}={value!r}: {exc}") from None
        kwargs[name] = (*kwargs.get(name, ()), *out) if isinstance(conv, Events) else out
    return kwargs


def plus_ints(value: str) -> tuple[int, ...]:
    """A ``+``-joined list of integers (``16+48``)."""
    return tuple(int(x) for x in value.split("+"))


class Events:
    """Converter of a ``+``-joined list of ``form``-shaped ``a:b[:c]``
    events with ``len in arities`` integer fields, each built by
    ``make(*fields)``.  :func:`parse_spec` accumulates the events of every
    key declared with it."""

    def __init__(self, make: Callable, what: str, form: str, arities: tuple[int, ...]):
        self.make, self.what, self.form, self.arities = make, what, form, arities

    def __call__(self, value: str) -> tuple:
        out = []
        for ev in value.split("+"):
            parts = ev.split(":")
            if len(parts) not in self.arities:
                raise ConfigurationError(f"{self.what} event {ev!r} is not {self.form}")
            out.append(self.make(*(int(x) for x in parts)))
        return tuple(out)
