import json
import sys

import pytest

import workloads

PYTHON = sys.executable


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argvs_are_deterministic_per_seed(workload):
    first = workloads.argvs(workload, 5, PYTHON)
    assert first == workloads.argvs(workload, 5, PYTHON)
    kinds = workloads.WORKLOADS[workload]
    assert len(first) == workloads.INPUTS_PER_ROUND * len(kinds)
    assert [kind for kind, _ in first[:len(kinds)]] == list(kinds)
    assert len({tuple(argv) for _, argv in first}) == len(first)
    assert first != workloads.argvs(workload, 6, PYTHON)
    assert first == workloads.argvs(workload, 5 + workloads.POOL, PYTHON)


def test_every_command_has_a_stored_reference():
    references = json.loads(workloads.REFERENCES.read_text())["reports"]
    for workload in workloads.WORKLOADS:
        for input_set in range(workloads.POOL):
            for kind, argv in workloads.argvs(workload, input_set, PYTHON):
                assert workloads.command_key(argv, PYTHON) in references[kind]


def test_command_keys_do_not_depend_on_the_interpreter_path():
    a = workloads.argvs("attr-exec", 0, "/usr/bin/python3")
    b = workloads.argvs("attr-exec", 0, "/usr/local/bin/python3")
    assert a != b
    assert [workloads.command_key(x, "/usr/bin/python3") for _, x in a] == \
        [workloads.command_key(x, "/usr/local/bin/python3") for _, x in b]

