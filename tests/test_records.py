"""The package's immutable records: construction, validation, equality,
hashing, ``repr`` and immutability, record by record, and the modules a
cold ``import windschitl.cli`` and its commands must not load."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from windschitl import (
    CheckStatus,
    FormulaId,
    GoldenCell,
    LogErrorValue,
    OracleConfig,
    PrecisionReal,
    RateEstimate,
    TableSpec,
    VerificationReport,
    Witness,
)
from windschitl.goldens import TABLE_ABSCISSAS, TABLE_FORMULAS

ONE, TWO = PrecisionReal(1, 64), PrecisionReal(2, 64)
W2, CHEN = FormulaId.W2, FormulaId.CHEN
BAD = Witness("d", "v", False)

# name: (class, field names, values, other values (each valid in place of
# its own), defaults of the trailing fields, repr of the values)
RECORDS = {
    "OracleConfig": (
        OracleConfig,
        ("target_decimal_digits",),
        (77,),
        (50,),
        {},
        "OracleConfig(target_decimal_digits=77)",
    ),
    "LogErrorValue": (
        LogErrorValue,
        ("x", "formula", "log_value", "log_gap", "relative_error"),
        (ONE, W2, ONE, ONE, ONE),
        (TWO, CHEN, TWO, TWO, TWO),
        {},
        "LogErrorValue(x=PrecisionReal('1.0', prec=64), formula=<FormulaId.W2: 'w2'>, "
        "log_value=PrecisionReal('1.0', prec=64), log_gap=PrecisionReal('1.0', prec=64), "
        "relative_error=PrecisionReal('1.0', prec=64))",
    ),
    "GoldenCell": (
        GoldenCell,
        ("x", "formula", "published", "corrected_relative_error"),
        (Fraction(1), W2, "2.407e-5", None),
        (Fraction(2), CHEN, "1.000e-1", Fraction(1, 5)),
        {"corrected_relative_error": None},
        "GoldenCell(x=Fraction(1, 1), formula=<FormulaId.W2: 'w2'>, "
        "published='2.407e-5', corrected_relative_error=None)",
    ),
    "TableSpec": (
        TableSpec,
        ("abscissas", "formulas", "precision_digits"),
        ((Fraction(1), Fraction(2)), (W2,), 30),
        ((Fraction(1), Fraction(3)), (W2, CHEN), 31),
        {"abscissas": TABLE_ABSCISSAS, "formulas": TABLE_FORMULAS, "precision_digits": 50},
        "TableSpec(abscissas=(Fraction(1, 1), Fraction(2, 1)), "
        "formulas=(<FormulaId.W2: 'w2'>,), precision_digits=30)",
    ),
    "Witness": (
        Witness,
        ("description", "value", "ok"),
        ("d", "v", False),
        ("e", "w", True),
        {"ok": True},
        "Witness(description='d', value='v', ok=False)",
    ),
    "VerificationReport": (
        VerificationReport,
        ("check_name", "status", "witnesses", "tolerance_used"),
        ("name", CheckStatus.PASS, (BAD,), Fraction(1, 10)),
        ("other", CheckStatus.FAIL, (BAD, Witness("e", "w")), None),
        {"witnesses": (), "tolerance_used": None},
        "VerificationReport(check_name='name', status=<CheckStatus.PASS: 'pass'>, "
        "witnesses=(Witness(description='d', value='v', ok=False),), "
        "tolerance_used=Fraction(1, 10))",
    ),
    "RateEstimate": (
        RateEstimate,
        ("formula", "xs", "at_largest", "richardson"),
        (W2, (Fraction(10),), ONE, ONE),
        (CHEN, (Fraction(20),), TWO, TWO),
        {},
        "RateEstimate(formula=<FormulaId.W2: 'w2'>, xs=(Fraction(10, 1),), "
        "at_largest=PrecisionReal('1.0', prec=64), richardson=PrecisionReal('1.0', prec=64))",
    ),
}

# name, keyword arguments over the record's values, the ValueError's message
INVALID = [
    ("OracleConfig", {"target_decimal_digits": 0}, "target_decimal_digits must be positive"),
    ("OracleConfig", {"target_decimal_digits": -1}, "target_decimal_digits must be positive"),
    ("GoldenCell", {"x": Fraction(0)}, "abscissa must be positive"),
    ("GoldenCell", {"published": "-3.333e-1"}, "published relative error must be a positive decimal string"),
    ("GoldenCell", {"published": Fraction(2407, 10**8)}, "published relative error must be a positive decimal string"),
    (
        "GoldenCell",
        {"corrected_relative_error": Fraction(0)},
        "a corrected relative error must be positive and differ from the printed one",
    ),
    (
        "GoldenCell",
        {"corrected_relative_error": Fraction(2407, 10**8)},
        "a corrected relative error must be positive and differ from the printed one",
    ),
    ("TableSpec", {"formulas": ()}, "at least one formula is required"),
    ("TableSpec", {"formulas": (W2, W2)}, "formulas must be distinct"),
    ("TableSpec", {"abscissas": ()}, "at least one abscissa is required"),
    ("TableSpec", {"abscissas": (Fraction(0), Fraction(1))}, "abscissas must be positive"),
    ("TableSpec", {"abscissas": (Fraction(2), Fraction(1))}, "abscissas must be strictly increasing"),
    ("TableSpec", {"precision_digits": 0}, "precision_digits must be positive"),
    (
        "VerificationReport",
        {"status": CheckStatus.FAIL, "witnesses": (Witness("e", "w"),)},
        "a failing report must carry a pinpointing witness",
    ),
]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", RECORDS)
def test_construction_by_position_by_keyword_and_by_default(name):
    cls, fields, values, _, defaults, _ = RECORDS[name]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, f) for f in fields) == values
    assert by_position == by_keyword
    required = fields[: len(fields) - len(defaults)]
    by_default = cls(*values[: len(required)])
    assert {f: getattr(by_default, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize(
    "name, changes, message", INVALID, ids=[f"{n}-{m}" for n, _, m in INVALID]
)
def test_validation_keeps_each_error_and_message(name, changes, message):
    cls, fields, values, _, _, _ = RECORDS[name]
    with pytest.raises(ValueError) as raised:
        cls(**{**dict(zip(fields, values)), **changes})
    assert str(raised.value) == message


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_follow_every_field(name):
    cls, fields, values, others, _, _ = RECORDS[name]
    record, twin = cls(*values), cls(*values)
    assert record == twin and not record != twin
    if _hashable(values):
        assert hash(record) == hash(twin)
        assert {record: 1}[twin] == 1
    else:  # a PrecisionReal field is unhashable, so is its record
        with pytest.raises(TypeError):
            hash(record)
    for i in range(len(fields)):
        changed = cls(*values[:i], others[i], *values[i + 1 :])
        assert record != changed and not record == changed
    # another class with the same field values is not equal
    assert record != values and record.__eq__(values) is NotImplemented


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    cls, _, values, _, _, text = RECORDS[name]
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("name", RECORDS)
def test_no_attribute_can_be_set_or_deleted(name):
    cls, fields, values, others, _, _ = RECORDS[name]
    record = cls(*values)
    for field, other in zip(fields, others):
        with pytest.raises(AttributeError):
            setattr(record, field, other)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_attribute = 1
    with pytest.raises(AttributeError):
        del record.new_attribute
    assert tuple(getattr(record, f) for f in fields) == values


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # mpmath itself stays out too: precision loads only its libmp layer
    heavy = ("mpmath", "dataclasses", "inspect", "ast", "dis", "tokenize")
    commands = (["eval", "w2", "1"], ["table"], ["verify", "--only", "monotone-convex-w2"])
    code = (
        "import contextlib, io, sys, windschitl.cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert windschitl.cli.main(argv) == 0, argv\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
