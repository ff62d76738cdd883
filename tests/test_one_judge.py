"""One judge: only ``harness._Recorder`` appends to a suite's findings and
failures.

A check's verdict, its aggregate and the witness it records belong together,
so a suite hands its measurements to the recorder and never writes to the
two lists itself.  This test parses ``src/delta_ineq/harness.py`` and
rejects, anywhere outside the ``_Recorder`` class, a call that appends to
``findings`` or ``failures`` (append, extend, insert), an augmented
assignment to one, and any expression that selects one of them to append to
later: a conditional or boolean choice between them, or a name bound to one.
"""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "src" / "delta_ineq" / "harness.py"
SINKS = ("findings", "failures")
MUTATORS = ("append", "extend", "insert")
JUDGE = "_Recorder"


def _sink(node) -> bool:
    """Whether node evaluates to one of the two lists."""
    if isinstance(node, ast.Attribute):
        return node.attr in SINKS
    if isinstance(node, ast.Name):
        return node.id in SINKS
    if isinstance(node, ast.IfExp):
        return _sink(node.body) or _sink(node.orelse)
    if isinstance(node, ast.BoolOp):
        return any(_sink(v) for v in node.values)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
        return any(isinstance(a, ast.Constant) and a.value in SINKS for a in node.args[1:2])
    return False


def _offence(node) -> str | None:
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and _sink(node.func.value)):
        return f"{node.func.attr}()"
    if isinstance(node, ast.AugAssign) and _sink(node.target):
        return "augmented assignment"
    if isinstance(node, (ast.IfExp, ast.BoolOp)) and _sink(node):
        return "selects a list"
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None \
            and _sink(node.value):
        return "binds a list"
    return None


def _offences(source: str) -> list[str]:
    """'line: what' for every write to findings or failures, or choice of
    one of them, outside the judge class."""
    found = set()

    def visit(node, in_judge: bool) -> None:
        if isinstance(node, ast.ClassDef) and node.name == JUDGE:
            in_judge = True
        if not in_judge:
            what = _offence(node)
            if what is not None:
                found.add((node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, in_judge)

    visit(ast.parse(source), False)
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_check_sees_every_way_round_the_judge():
    source = "\n".join([
        "rec.failures.append(w)",
        "rec.findings.extend(ws)",
        "rec.findings += [w]",
        "sink = rec.findings if finding else rec.failures",
        "sink = rec.failures",
        "getattr(rec, 'failures').insert(0, w)",
        "(finding and rec.findings or rec.failures).append(w)",
        "ok = not rep.failures and len(rec.findings) == 0",
        "out = {'findings': rep.findings, 'failures': rep.failures}",
        "'''rec.failures.append(w) in a docstring is fine'''",
    ])
    assert _offences(source) == [
        "1: append()", "2: extend()", "3: augmented assignment",
        "4: binds a list", "4: selects a list", "5: binds a list", "6: insert()",
        "7: append()", "7: selects a list"]


def test_the_judge_class_may_append():
    source = "\n".join([
        "class _Recorder:",
        "    def check(self, finding, w):",
        "        (self.findings if finding else self.failures).append(w)",
        "        self.failures.append(w)",
        "class Other:",
        "    def check(self, w):",
        "        self.failures.append(w)",
    ])
    assert _offences(source) == ["7: append()"]


def test_a_suite_that_records_its_own_checks_fails_the_check():
    # recording folded into the trial loop of the bound suite
    source = "\n".join([
        "def run_bound_suite(config, keep_rows=False):",
        "    rec = _Recorder('bounds', config, aggs)",
        "    for i in range(config.n_trials):",
        "        once, reports = evaluate_bounds(spec, f, g, config.variants)",
        "        for rep in reports:",
        "            agg, finding = labels[rep.theorem, rep.variant]",
        "            if not agg.add(rep, config.tolerance):",
        "                (rec.findings if finding else rec.failures).append(",
        "                    _bound_witness(config.seed, i, rep, s, fj, None, lo, hi))",
        "    return rec.report()",
    ])
    assert _offences(source) == ["8: append()", "8: selects a list"]


def test_only_the_recorder_judges_in_the_harness():
    assert _offences(HARNESS.read_text(encoding="utf-8")) == []
    # the judge is there, and does append
    tree = ast.parse(HARNESS.read_text(encoding="utf-8"))
    judge = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == JUDGE]
    assert len(judge) == 1
    assert any(_offence(node) for node in ast.walk(judge[0]))
