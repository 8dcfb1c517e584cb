"""Replay the recorded mutation checks: every mutant must fail its killer tests.

From the repository root:

    python tests/mutants.py               # every mutant
    python tests/mutants.py NAME [NAME ...]

pytest does not collect this file (its name does not start with
``test_``), and tier-1 does not run it.  Each entry is (name, file, old
text, new text, killer tests).  The killers first run once on an
unmutated copy of the tree and must pass there.  Then, for each mutant,
``src``, ``tests`` and ``pyproject.toml`` are copied to a temporary
directory, the old text must occur exactly once in the file, the one
edit is applied and ``pytest -x`` runs the killers on the copy.  The
replay fails if a mutant survives (its killers pass), if a killer does
not fail as a test (pytest cannot collect it, say), if the killers run
past ``TIMEOUT`` seconds (a mutant that loops forever), or if an old text
no longer occurs exactly once: a change that moves the mutated code
updates its entry too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER, CLI, EXACT = "src/specgap/ladder.py", "src/specgap/cli.py", "src/specgap/exact.py"
GRAPHS, ESTIMATOR = "src/specgap/graphs.py", "src/specgap/estimator.py"
DIFFERENTIAL, TEST_LADDER = "tests/test_differential.py", "tests/test_ladder.py"
TEST_GRAPHS, TEST_ESTIMATOR = "tests/test_graphs.py", "tests/test_estimator.py"
# seconds a killer run may take; a mutant that loops forever is no verdict
TIMEOUT = 120

MUTANTS = [
    # a shift step that forgets - q M(t-1)
    ("shift-without-q-below", LADDER,
     "np.subtract(raw, scaled, out=scaled)",
     "np.subtract(raw, 0 * scaled, out=scaled)",
     [f"{DIFFERENTIAL}::test_checked_mode_covers_the_shifted_operands"]),
    # a shift that never reduces, whatever its values' bound
    ("shift-never-reduces", LADDER,
     "        if high <= cap:\n",
     "        if True:\n",
     [f"{DIFFERENTIAL}::test_a_shift_reduces_only_where_its_values_would_pass_the_cap"]),
    # a prefix whose product only equals twice the bound: the bisection of
    # the running products stops at an equal one
    ("prefix-bisect-left", LADDER,
     "bisect.bisect_right(products, 2 * bound)",
     "bisect.bisect_left(products, 2 * bound)",
     [f"{DIFFERENTIAL}::test_a_product_equal_to_twice_the_bound_is_not_enough",
      f"{DIFFERENTIAL}::test_every_plan_equals_the_prime_by_prime_plan"]),
    # 2**b to the e bracketed as 2**((b-1) e)
    ("power-of-two-shift", EXACT,
     "return 1, 1, b * e",
     "return 1, 1, (b - 1) * e",
     ["tests/test_exact.py::test_power_bounds_of_a_power_of_two_are_exact"]),
    # the slack's numerator s d + 1 - trace without its 1
    ("slack-without-plus-one", LADDER,
     "* d + 1 - trace, d)",
     "* d - trace, d)",
     [f"{TEST_LADDER}::test_slack_examples"]),
    # the batched triangles of M(t), not of Y(t) = M(t) - s_t J
    ("serve-without-offsets", LADDER,
     "        taken -= offset_rows[i][:, start:start + count, None]\n",
     "",
     [f"{DIFFERENTIAL}::test_checked_tables_fix_each_trace"]),
    # a block's gathered triangles keep the entries taken for their padding
    ("serve-keeps-padding", LADDER,
     "        gathered[:, :, len(flat):] = 0\n",
     "",
     [f"{DIFFERENTIAL}::test_checked_mode_covers_the_shifted_operands"]),
    # q**x = n s_x + ((q**x + 1) mod n) - 1 without its middle term
    ("fix-without-power-residue", LADDER,
     "[[(pow(q, t, n) + 1) % n - 1] for t in reach]",
     "[[-1] for t in reach]",
     [f"{DIFFERENTIAL}::test_checked_tables_fix_each_trace"]),
    # trace M(2y+2) without the square's correction 2 n q**(y+1)
    ("sweep-without-square-correction", LADDER,
     "yield _dot(here, here, n * (power + 1) ** 2) - 2 * n * power",
     "yield _dot(here, here, n * (power + 1) ** 2)",
     [f"{DIFFERENTIAL}::test_the_half_index_sweep_equals_the_plain_recurrence_at_n_120"]),
    # the runner drops the command's exit code (3 for an oracle mismatch)
    ("main-exits-0", CLI,
     "        return code\n",
     "        return 0\n",
     ["tests/test_cli_outputs.py::test_an_oracle_mismatch_prints_it_and_exits_3"]),
    # the extension rule counts the exact prefix's indices as per-prime steps
    ("plan-counts-exact-steps", LADDER,
     "sum(len(steps) for _, _, steps in rest)",
     "len(built)",
     [f"{TEST_LADDER}::test_a_ladder_exact_throughout_extends_nothing"]),
    # the edge-list reader lets a repeated line through
    ("reader-accepts-duplicates", GRAPHS,
     "if (u, v) in seen:",
     "if False:",
     [f"{TEST_GRAPHS}::test_edge_list_errors"]),
    # the connectivity search settles for reaching any vertex
    ("search-reaches-some", GRAPHS,
     "seen.all()",
     "seen.any()",
     [f"{TEST_GRAPHS}::test_disconnected_rejected"]),
    # validation never compares a matrix with its transpose
    ("symmetry-unchecked", GRAPHS,
     "a != a.T",
     "a != a",
     [f"{TEST_GRAPHS}::test_validation_names_first_offender"]),
    # the required index one bisection step short of the least passing one
    ("index-one-short", ESTIMATOR,
     "return 2 * high",
     "return 2 * low",
     [f"{TEST_ESTIMATOR}::test_required_index_is_the_least_passing_index_down_to_2_pow_minus_14"]),
    # an estimate equal to 2 + eps no longer counts as within the bound
    ("estimate-strict", ESTIMATOR,
     "(a + b) ** 2 <= bound**2 * a * b",
     "(a + b) ** 2 < bound**2 * a * b",
     [f"{TEST_ESTIMATOR}::test_exact_threshold_comparison_agrees_with_floats"]),
    # a nonnegative slack at k + 2 alone no longer certifies the bound
    ("decide-without-k-plus-2", ESTIMATOR,
     "if slack.sign() >= 0 or slack_next.sign() >= 0:",
     "if slack.sign() >= 0:",
     [f"{TEST_ESTIMATOR}::test_a_nonnegative_slack_at_k_plus_2_alone_certifies"]),
]


def _copy(tmp):
    tree = Path(tmp)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    return tree


def _pytest(tree, tests):
    """pytest's exit code on ``tests`` in ``tree``, importing the tree's own src;
    None if it runs past TIMEOUT seconds, when it is killed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, f"no result within {TIMEOUT} s"
    return run.returncode, run.stdout[-2000:]


def _replay(name, path, old, new, killers):
    """None if the mutant is killed, else why the replay fails."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = _copy(tmp)
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"its old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new), encoding="utf-8")
        code, out = _pytest(tree, killers)
    if code is None:
        return f"pytest gave {out}"
    if code == 0:
        return "it survives: every killer passes"
    if code != 1:  # 1: tests failed; anything else is no verdict
        return f"pytest exited {code}:\n{out}"
    return None


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    killers = sorted({test for *_, tests in chosen for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _pytest(_copy(tmp), killers)
    if code != 0:
        print(f"the killers fail on the unmutated tree (pytest exited {code}):\n{out}")
        return 1
    failures = 0
    for name, *entry in chosen:
        started = time.perf_counter()
        problem = _replay(name, *entry)
        verdict = "killed" if problem is None else f"FAILED: {problem}"
        print(f"{name}: {verdict} ({time.perf_counter() - started:.1f} s)", flush=True)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
