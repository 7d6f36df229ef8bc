"""The output checks accept correct output and count wrong values as failures."""

from fractions import Fraction

import refs
import worker


def _constants_text(values, digits=12):
    return "".join(f"{name:<18} = {refs.mpmath.nstr(v, digits)}\n" for name, v in values.items())


def test_constants_check_passes_on_the_closed_forms_and_fails_on_a_wrong_reference():
    good = refs.constants_reference(12)
    text = _constants_text(good)
    assert refs.check_constants(text) == []
    wrong = dict(good, beta=good["beta"] * (1 + refs.mpmath.mpf("1e-9")))
    fails = refs.check_constants(text, ref=wrong)
    assert len(fails) == 1 and fails[0].startswith("beta:")


def test_a_command_that_exits_nonzero_fails_its_check():
    import run

    text = _constants_text(refs.constants_reference(12))
    assert run.CLI_CHECKS["constants"](0, text) == []
    assert run.CLI_CHECKS["constants"](2, text) == ["exit code 2"]


def test_eval_check_fails_on_a_wrong_reference():
    ref = refs.eval_w2_at_one_reference(50)
    text = (
        "formula        = w2\nx              = 1\n"
        f"value          = {refs.mpmath.nstr(ref['value'], 50)}\n"
        f"relative_error = {refs.mpmath.nstr(ref['relative_error'], 6)}\n"
        f"log_gap        = {refs.mpmath.nstr(ref['log_gap'], 6)}\n"
    )
    assert refs.check_eval(text, 50) == []
    wrong = dict(ref, log_gap=ref["log_gap"] * 2)
    assert any(f.startswith("log_gap:") for f in refs.check_eval(text, 50, ref=wrong))
    assert refs.check_eval(text.replace("value", "valeur"), 50)  # missing line


def test_table_check_fails_on_a_wrong_published_cell():
    rows = ["x,formula,relative_error,log_gap,digits"]
    for (x, tag), printed in refs.PUBLISHED_TABLE.items():
        rel = refs.mpmath.mpf(printed)
        gap = -refs.mpmath.log1p(-rel)  # relative_error = 1 - exp(-gap)
        rows.append(f"{x},{tag},{printed},{refs.mpmath.nstr(gap, 6)},50")
    text = "\n".join(rows) + "\n"
    assert refs.check_table_csv(text) == []
    wrong = dict(refs.PUBLISHED_TABLE)
    wrong[(5, "w2")] = "1.300e-10"
    assert refs.check_table_csv(text, published=wrong) == ["table: cell (5, 'w2') = 1.249e-10, published 1.300e-10"]
    assert refs.check_table_csv("\n".join(rows[:-1]) + "\n")  # a missing cell fails


def test_verify_check_needs_exit_zero_and_every_check_passing():
    text = "".join(f"PASS {name}\n     [ok ] detail\n" for name in sorted(refs.VERIFY_CHECKS))
    assert refs.check_verify(0, text) == []
    assert refs.check_verify(1, text) == ["verify: exit code 1"]
    assert refs.check_verify(0, text.replace("PASS csch-bound", "FAIL csch-bound")) == [
        "verify: csch-bound is FAIL"
    ]
    assert refs.check_verify(0, text + "PASS some-new-check\n") == []


class _WrongReferenceOracle(worker.Oracle):
    """Checks each call against a deliberately wrong log gap."""

    def check(self, op, record):
        tag, x, digits = op
        return refs.check_log_error(tag, x, digits, record.log_gap.raw,
                                    record.relative_error.raw, ref_gap=Fraction(1, 10**6))


def _oracle(cls):
    import windschitl

    work = cls(windschitl)
    work.warm_up()
    return work


def test_oracle_calls_pass_against_mpmath():
    ops = [("w2", Fraction(3, 2), 50), ("smith", Fraction(1234567, 1000), 100),
           ("lsm", Fraction(25), 200), ("yangchu2", Fraction(9999), 50)]
    done, latencies, failed, messages = worker.timed_ops(_oracle(worker.Oracle), ops, keep_ops=True)
    assert done == ops and failed == 0 and messages == []
    assert {k: len(v) for k, v in latencies.items()} == {"digits50": 2, "digits100": 1, "digits200": 1}


def test_a_wrong_reference_is_counted_as_a_failure():
    ops = [("w2", Fraction(3, 2), 50), ("chen", Fraction(7), 100)]
    _, latencies, failed, messages = worker.timed_ops(_oracle(_WrongReferenceOracle), ops)
    assert failed == 2 and sum(len(v) for v in latencies.values()) == 2
    assert len(messages) == 4 and "log_gap off by" in messages[0]


def test_a_raising_op_is_counted_once_and_not_dropped():
    class Raising(worker.Oracle):
        def run(self, op):
            if op[0] == "w2":
                raise ZeroDivisionError("synthetic")
            return super().run(op)

    ops = [("w2", Fraction(2), 50), ("w1", Fraction(2), 50)]
    done, latencies, failed, messages = worker.timed_ops(_oracle(Raising), ops, keep_ops=True)
    assert done == ops and failed == 1
    assert len(latencies["digits50"]) == 2
    assert messages == ["('w2', Fraction(2, 1), 50): ZeroDivisionError: synthetic"]


def test_oracle_stream_is_fixed_by_the_seed():
    def take(seed, n=50):
        stream = worker.oracle_stream(seed)
        return [next(stream) for _ in range(n)]

    assert take(7) == take(7)
    assert take(7) != take(8)
    assert all(1 <= x <= 10**4 for _, x, _ in take(7, 500))


def test_each_oracle_pass_holds_every_formula_precision_and_decade_once():
    size = len(worker.FORMULA_TAGS) * len(worker.ORACLE_DIGITS) * worker.ORACLE_DECADES
    stream = worker.oracle_stream(3)
    for _ in range(2):
        batch = [next(stream) for _ in range(size)]
        cells = sorted((tag, digits, len(str(int(x)))) for tag, x, digits in batch)
        expected = sorted((tag, digits, decade) for tag in worker.FORMULA_TAGS
                          for digits in worker.ORACLE_DIGITS for decade in (1, 2, 3, 4))
        # 10^4 itself has five integer digits but belongs to the last decade
        assert [(t, d, min(n, 4)) for t, d, n in cells] == expected
    assert size == worker.Oracle.pass_ops
