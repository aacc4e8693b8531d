import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fit_agreement.py"
_SPEC = importlib.util.spec_from_file_location("fit_agreement", _PATH)
fit_agreement = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit_agreement)

PARENT = """\
nar s00 grad_tol 0 120 151 -0.5
nar s01 max_iters 0 200 230 -0.25
nar s02 stalled 0 80 99 0.125
test08 logdet/5000 grad_tol 3 40 900 1.0
test08 fgls/5000 grad_tol 1 30 700 2.0
test08 logdet/5001 NotPositiveDefinite - 0 0 nan
"""
CHANGE = """\
nar s00 grad_tol 0 118 149 -0.5
nar s01 max_iters 0 200 231 -0.2499999
nar s02 grad_tol 0 60 70 0.1249
test08 logdet/5000 max_iters 5 200 950 1.0000000005
test08 fgls/5000 grad_tol 1 30 701 2.00000002
test08 fgls/5031 grad_tol 0 1 2 3.0
"""


def test_parse_reads_one_record_per_line():
    fits = fit_agreement.parse(PARENT.splitlines() + [""])
    assert fits["nar", "s00"] == ("grad_tol", "0", 120, 151, -0.5)
    assert fits["test08", "logdet/5001"][0] == "NotPositiveDefinite"
    assert len(fits) == 6


def test_compare_lists_terminations_rises_and_counts():
    a, b = (fit_agreement.parse(text.splitlines()) for text in (PARENT, CHANGE))
    assert fit_agreement.compare(a, b) == [
        "only in B: test08 fgls/5031",
        "only in A: test08 logdet/5001",
        "termination nar s02: stalled -> grad_tol (best start 0 -> 0, U_n -0.0001)",
        "termination test08 logdet/5000: grad_tol -> max_iters (best start 3 -> 5, U_n +5e-10)",
        # a rise of 5e-10 is below the 1e-9 tolerance; 1e-7 and 2e-8 are not
        "U_n rose nar s01: +1e-07 (max_iters -> max_iters)",
        "U_n rose test08 fgls/5000: +2e-08 (grad_tol -> grad_tol)",
        "nar: 3 fits, U_n equal 1, rose 1, fell 1; converged 2 -> 2 (stalled 1 -> 0); "
        "evaluations 480 -> 450",
        "test08: 2 fits, U_n equal 0, rose 2, fell 0; converged 2 -> 1 (stalled 0 -> 0); "
        "evaluations 1600 -> 1651",
    ]
