"""The claim table: what it derives, the rungs it names and README's copy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbzagreb
from nbzagreb import claims, enumeration, verify_all
from nbzagreb.claims import CHECK_NAMES, CLAIMS, gate_row
from nbzagreb.errors import PreconditionError, reason

README = Path(__file__).resolve().parent.parent / "README.md"
# The rungs that no op raises, which each engine decides itself.
ENGINE_RUNGS = {"n_lt_3", "no_edges", "not_regular"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_check_names_are_the_table_in_report_order():
    assert CHECK_NAMES == tuple(claim.name for claim in CLAIMS)
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)
    assert enumeration.CHECK_NAMES is CHECK_NAMES
    assert tuple(verify_all(3, [2.0]).checks_run) == CHECK_NAMES


def test_every_rung_an_op_raises_is_a_precondition_error():
    # In each row the engine rungs lead, and every rung after them is the
    # errors.reason of a PreconditionError subclass.
    known = {reason(sub()) for sub in _subclasses(PreconditionError)}
    assert not known & ENGINE_RUNGS
    for claim in CLAIMS:
        lead = 0
        while lead < len(claim.rungs) and claim.rungs[lead] in ENGINE_RUNGS:
            lead += 1
        assert set(claim.rungs[lead:]) <= known, claim.name
        assert len(set(claim.rungs)) == len(claim.rungs), claim.name


def test_gate_row_takes_the_whole_row_or_a_leading_part():
    nm2 = ("nm2_reconstruct_secant", "nm2_reconstruct_unit")
    rungs = ("not_diameter_two", "zero_min_dist2_degree", "dist2_regular")
    row = gate_row(nm2, rungs)
    assert row.name == "nm2_reconstruct_secant" and row.per_exponent and row.rungs == rungs
    assert gate_row(nm2[1:], rungs[:1], True) is claims._BY_NAME["nm2_reconstruct_unit"]
    assert gate_row(("m1_identity",), (), True).rungs == ()
    for args in [(nm2, rungs[:1]), (nm2, rungs[::-1]), (("m1_identity",), ("n_lt_3",), True),
                 (("nm2_reconstruct_secant", "dist2_identity"), ("not_diameter_two",), True)]:
        with pytest.raises(ValueError):
            gate_row(*args)


def test_readme_states_the_claim_in_table_order():
    lines = [
        "| Check | Statement | Counted | Preconditions, in order |",
        "|---|---|---|---|",
    ]
    for claim in CLAIMS:
        counted = "per exponent" if claim.per_exponent else "per graph"
        rungs = ", ".join(f"`{rung}`" for rung in claim.rungs) or "none"
        lines.append(f"| `{claim.name}` | {claim.statement} | {counted} | {rungs} |")
    text = README.read_text()
    section = text[text.index("\n## The claim\n"):]
    section = section[: section.index("\n## ", 1)]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert table == lines


def test_claims_loads_no_numpy():
    script = "import sys, nbzagreb.claims; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nbzagreb.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
