"""Pieces shared by the workload modules and the runner."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import oracle


@dataclass
class Op:
    """One closed-loop operation: `call()` is the timed work.

    `expect` carries whatever the workload's check needs to judge the result;
    it is built during set-up and is never read by the timed call.
    """

    label: str
    call: object
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one call returned, or the exception that escaped it."""

    value: object = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def failed(self):
        return self.error is not None


def order_of(poset_dict):
    """The reference order of a poset given as {"elements": ..., "covers": ...}."""
    return oracle.Order(poset_dict["elements"], [tuple(c) for c in poset_dict["covers"]])


def dump(payload):
    """The byte format posetlab's CLI writes JSON in."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
