"""A fault matrix: each row is a minimal fault in one kernel, patched in its
home module, and the checks expected to catch it.

Every row runs the four sweeps in-process at small sizes and asserts their
exit codes, the mismatches that ``crosscheck`` reports and that the faulty
kernel's output differs from the true one, so that no row is vacuous.
"""

import json

import pytest

from arctanderiv import composition
from arctanderiv.cli import main

SWEEPS = (
    "check-identity 60",
    "check-corollary 60",
    "check-2f1 40",
    "crosscheck 40 --points=0,1/2,-47/53",
)


def last_weight_plus_one_at_order_9(chain_weights):
    def wrong(n, numerators):
        weights = list(chain_weights(n, numerators))
        if n == 9:
            weights[-1] += 1
        return weights

    return wrong


def chain_weights_at_order_9(chain_weights):
    numerators, _ = composition._reciprocal_square_jet(1, 2, 9)
    return list(chain_weights(9, numerators))


# kernel: (home module, fault, a probe of the kernel's output, the exit codes
# of SWEEPS, and crosscheck's mismatches as (n, pair, point)).  arctan^(10)(0)
# is 0 whatever the weights, so x = 0 cannot see the _chain_weights fault.
FAULTS = {
    "_chain_weights": (
        composition,
        last_weight_plus_one_at_order_9,
        chain_weights_at_order_9,
        (0, 0, 0, 1),
        [(10, "pointwise vs oracle", "1/2"), (10, "pointwise vs oracle", "-47/53")],
    ),
}


def run(capsys, line):
    code = main(line.split())
    return code, capsys.readouterr().out


def patch(monkeypatch, kernel):
    module, fault, probe, _, _ = FAULTS[kernel]
    true = getattr(module, kernel)
    monkeypatch.setattr(module, kernel, fault(true))
    assert probe(getattr(module, kernel)) != probe(true)


@pytest.mark.parametrize("kernel", FAULTS)
def test_each_fault_is_caught_by_the_checks_of_its_row(capsys, monkeypatch, kernel):
    *_, exits, mismatches = FAULTS[kernel]
    patch(monkeypatch, kernel)
    results = [run(capsys, f"{line} --format=json") for line in SWEEPS]
    assert tuple(code for code, _ in results) == exits
    failures = json.loads(results[-1][1])["failures"]
    assert [(f["n"], f["pair"], f["point"]) for f in failures] == mismatches


def test_a_wrong_chain_weight_changes_what_fdb_prints_where_crosscheck_sees_it(
    capsys, monkeypatch
):
    patch(monkeypatch, "_chain_weights")
    for x, differs in (("0", False), ("1/2", True), ("-47/53", True)):
        closed = run(capsys, f"derive 10 --method=closed --x={x}")
        fdb = run(capsys, f"derive 10 --method=fdb --x={x}")
        assert closed[0] == fdb[0] == 0
        assert (fdb[1] != closed[1]) is differs, x
