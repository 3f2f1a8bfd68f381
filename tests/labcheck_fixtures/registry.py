"""Fixture kernel records: one R1 violation per kernel."""

from labcheck_fixtures.machine import FixtureMachine
from repro.lab.params import POS, BatchKernel, Kernel, Params


def undeclared_read_kernel(machine, params):
    cost = params["n"] * machine.line_size
    return {"x": cost * machine.write_slow}  # MARKER r1-undeclared-read


def overdeclared_kernel(machine, params):
    return {"x": machine.seed}


def batch_read_kernel(machine, params):
    return {"x": machine.line_size}


def batch_read_group(group):
    return [{"x": machine.write_slow}  # MARKER r1-batch-read
            for machine, _ in group]


KERNELS = {
    # machine_fields omit write_slow, which the kernel reads -> R1 error
    # at the read
    "fx-undeclared-read": Kernel(undeclared_read_kernel, Params.of(n=POS),
                                 ("line_size",), ("x",)),
    # declares policy, which the kernel never reads -> R1 warning here
    "fx-overdeclared": Kernel(  # MARKER r1-overdeclared
        overdeclared_kernel, Params.of(), ("policy", "seed"), ("x",)),
    # the body reads only line_size, but the batch evaluator reads
    # write_slow -> R1 error at the evaluator's read
    "fx-batch-read": Kernel(
        batch_read_kernel, Params.of(), ("line_size",), ("x",),
        batch=BatchKernel("batch", lambda machine, params: {},
                          batch_read_group)),
}

MACHINES = {"fx": FixtureMachine()}

POLICIES = {"lru": object()}
