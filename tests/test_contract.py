"""The output contract (tests/contract/regen.py): each case's outputs match the kept ones.

Results and text outputs match byte for byte, and so does each exit code.
A trace file is read as JSON.  Its gamma, step_inf and fallbacks series
match exactly.  Its energies and masses are dot products, whose last bits
depend on the order of their terms, so each may move by rounding alone:
an energy or pre-energy by 1e-12 of its start's largest mass, and a mass
by 1e-12 of itself.
"""

import json

import numpy as np
import pytest

from contract import regen


def _assert_traces_close(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for sid, want in expected.items():
        have = got[sid]
        assert list(have) == list(want), sid
        for name in ("gamma", "step_inf", "fallbacks"):
            assert have[name] == want[name], (sid, name)
        scale = max(want["mass"], default=0.0)
        for name in ("energy", "pre_energy", "mass"):
            assert len(have[name]) == len(want[name]), (sid, name)
            tolerance = 1e-12 * (np.abs(want[name]) if name == "mass" else scale)
            assert np.all(np.abs(np.subtract(have[name], want[name])) <= tolerance), (sid, name)


@pytest.mark.parametrize("case", list(regen.CASES))
def test_output_contract(case, tmp_path):
    got, expected = regen.run_case(case, tmp_path), regen.read_expected(case)
    assert sorted(got) == sorted(expected)
    for name, text in expected.items():
        if name.endswith(".trace.json"):
            _assert_traces_close(json.loads(got[name]), json.loads(text))
        else:
            assert got[name] == text, name
