"""Fixture kernel registry: R1/R2 violations, one per kernel."""

from labcheck_fixtures.machine import FixtureMachine
from repro.lab.params import POS, Params


def undeclared_read_kernel(machine, params):
    cost = params["n"] * machine.line_size
    return {"x": cost * machine.write_slow}  # MARKER r1-undeclared-read


def overdeclared_kernel(machine, params):
    return {"x": machine.seed}


def missing_metrics_kernel(machine, params):
    return {"x": 1}


KERNELS = {
    "fx-undeclared-read": undeclared_read_kernel,
    "fx-overdeclared": overdeclared_kernel,
    "fx-missing-metrics": missing_metrics_kernel,
}

MACHINE_FIELDS = {
    # omits write_slow, which the kernel reads -> R1 error at the read
    "fx-undeclared-read": ("line_size",),
    # declares policy, which the kernel never reads -> R1 warning here
    "fx-overdeclared": ("policy", "seed"),  # MARKER r1-overdeclared
    "fx-missing-metrics": (),
}

METRIC_FIELDS = {
    "fx-undeclared-read": ("x",),
    "fx-overdeclared": ("x",),
    # "fx-missing-metrics" intentionally absent -> R2 error
}

PARAMS = {  # MARKER r2-params
    "fx-undeclared-read": Params.of(n=POS),
    # "fx-overdeclared" intentionally absent -> R2 error
    "fx-missing-metrics": Params.of(),
}

MACHINES = {"fx": FixtureMachine()}

POLICIES = {"lru": object()}
