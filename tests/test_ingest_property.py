"""Property tests for log parsing: the column path against the per-line path.

``parse_logfile`` converts each record kind with one numpy call and parses a
file line by line only when that fails. The per-line path is the reference:
whatever the column path accepts, the per-line path must accept with equal
columns, and every error must name the first bad line as file iteration
numbers it. Logs mix every kind with unknown kinds, headers, blank lines,
padding, tied and out-of-order timestamps, and malformed fields.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fusetrack import ingest
from fusetrack.errors import LogParseError
from fusetrack.ingest import (
    PAYLOAD_ARITY,
    extract_landmarks,
    group_wifi_scans,
    parse_logfile,
    resample_stream,
    write_logfile,
)

# non-finite values are valid payloads; interpolating them warns
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

#: few distinct times, so that ties and out-of-order records are common
TIMES = st.sampled_from(["0", "0.0", "-0.0", "0.5", "1", "1.25", "2.0", "1e1", "3"])
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-200, 200).map(str),
    st.floats(-50, 50).map(lambda v: f"{v:.6f}"),
)
#: spellings that both float() and numpy accept
ODD = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400",
                       "-0", "+2.5", " 1 ", "1 ", "\x0c3"])
VALUES = st.one_of(FINITE, ODD)
#: spellings that float() accepts and numpy does not
FLOAT_ONLY = st.sampled_from(["1_000", "٣", "１", "2.5_5"])
#: broken fields; numpy reads \x1c-\x1f as spaces, float() rejects them
BAD_VALUES = st.sampled_from(["zz", "", "1.0.0", "1__0", "--1", "0x10"])
SEPARATORS = st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"])
BAD_TIMES = st.sampled_from(["-1", "-0.5", "nan", "inf", "-inf", "1e400"])
PADS = st.sampled_from(["", "", " ", "\t", "  ", "\x0b"])
AP_IDS = st.sampled_from(["aa:bb:cc", "ap1", "ap2", " ap3 ", "a b"])
OTHER_LINES = st.sampled_from([
    "", "   ", "% header", "  % padded header", "BLUE;1.0;1.0;aa;-50", "GNSS;1;1;2;3",
    "LIGH", "acce;1;1;0;0;9.8", ";;;", "SOUN;2;2",
])
NEWLINES = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def record_fields(draw, kind=None):
    kind = kind or draw(st.sampled_from(sorted(PAYLOAD_ARITY)))
    fields = [kind, draw(TIMES), draw(st.one_of(TIMES, VALUES))]
    if kind == ingest.WIFI:
        fields += [draw(AP_IDS), draw(VALUES)]
    elif kind == ingest.POSI:
        fields += [draw(FINITE), draw(FINITE), draw(st.integers(-2, 5).map(str))]
    else:
        fields += [draw(VALUES) for _ in range(PAYLOAD_ARITY[kind])]
    return fields


@st.composite
def irregular_fields(draw):
    """A record with one flaw: a float-only spelling, or a malformed field."""
    fields = draw(record_fields())
    numeric = [i for i in range(1, len(fields))
               if not (fields[0] == ingest.WIFI and i == 3)]
    flaw = draw(st.sampled_from(["spelling", "drop", "add", "bare", "value",
                                 "separator", "time", "ap_id"]))
    if flaw == "spelling":
        fields[draw(st.sampled_from(numeric))] = draw(FLOAT_ONLY)
    elif flaw == "drop":
        del fields[draw(st.integers(1, len(fields) - 1))]
    elif flaw == "add":
        fields.append(draw(FINITE))
    elif flaw == "bare":
        fields = fields[:draw(st.integers(1, 2))]
    elif flaw == "value":
        fields[draw(st.sampled_from(numeric))] = draw(BAD_VALUES)
    elif flaw == "separator":
        i = draw(st.sampled_from(numeric))
        fields[i] = draw(st.sampled_from(["", "1"])) + draw(SEPARATORS) + fields[i]
    elif flaw == "time":
        fields[1] = draw(BAD_TIMES)
    elif fields[0] == ingest.WIFI:
        fields[3] = draw(st.sampled_from(["", "  "]))
    return fields


@st.composite
def log_texts(draw, irregular=True):
    """Logfile text; often with enough IMU lines to resample."""
    lines = []
    if draw(st.booleans()):
        for t in ("0", "1", "2"):
            for kind in ("ACCE", "GYRO", "MAGN"):
                fields = draw(record_fields(kind))
                fields[1] = t
                lines.append(";".join(fields))
    records = draw(st.lists(record_fields(), max_size=12))
    if irregular:
        records += draw(st.lists(irregular_fields(), max_size=2))
    for fields in records:
        lines.append(";".join(draw(PADS) + f + draw(PADS) for f in fields))
    lines += draw(st.lists(OTHER_LINES, max_size=4))
    lines = draw(st.permutations(lines))
    text = "".join(line + draw(NEWLINES) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def outcome(fn, *args):
    """The result of ``fn``, or the class and message of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def stream_outcome(sensor_log):
    stream = outcome(resample_stream, sensor_log)
    if isinstance(stream, tuple):
        return stream
    return stream.t0, stream.rate, list(stream.channels), stream.channels


def same_stream(a, b):
    if isinstance(a[0], type) or isinstance(b[0], type):
        return a == b
    return a[:3] == b[:3] and all(
        np.array_equal(a[3][k], b[3][k], equal_nan=True) for k in a[2])


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("logs") / "track.log"


@SETTINGS
@given(text=log_texts())
@example(text="ACCE;1;1;0\x1c;0;9.8\nACCE;2;2;0;0;9.8\n")
@example(text="ACCE;1;1;1_000;0;9.8\nGYRO;1;1;0;0;0\n")
@example(text="ACCE\n")
@example(text="ACCE;1;1;0;0;9.8\x0bGYRO;1;1;0;0;0\u2028MAGN;1;1;0;0;0\n")
@example(text="PRES;1;1;1013\nPRES;2;2\n")
def test_column_path_agrees_with_line_path(log_path, text):
    log_path.write_text(text, encoding="utf-8", newline="")
    read = log_path.read_text(encoding="utf-8")
    by_line = outcome(ingest._parse_by_line, read)
    try:
        by_column = ingest._parse_by_column(read)
    except ValueError:
        by_column = None
    if by_column is not None:
        # whatever the column path accepts, the line path accepts equally
        assert by_column == by_line
        assert same_stream(stream_outcome(by_column[0]), stream_outcome(by_line[0]))

    got = outcome(parse_logfile, log_path)
    if isinstance(by_line[0], type):
        assert got == by_line
    elif not len(by_line[0]):
        assert got == (ingest.EmptyInputError, f"no valid records in {log_path}")
    else:
        sensor_log = by_line[0]
        assert got == outcome(lambda: (sensor_log, group_wifi_scans(sensor_log),
                                       extract_landmarks(sensor_log)))


@SETTINGS
@given(text=log_texts())
@example(text="ACCE;1;1;0;0;9.8\x0bGYRO;1;1;0;0\n")
@example(text="% header\r\nACCE;1;1;0;0;9.8 \rMAGN;1;1;0;0\n")
def test_parse_error_names_first_bad_line_as_file_iteration_numbers_it(log_path, text):
    log_path.write_text(text, encoding="utf-8", newline="")
    try:
        parse_logfile(log_path)
        return
    except ingest.EmptyInputError:
        return
    except LogParseError as exc:
        error = exc
    with open(log_path, encoding="utf-8") as fh:
        lines = list(fh)
    n = error.line_no
    # every line before it is fine, and the line alone fails the same way
    ingest._parse_by_line("".join(lines[:n - 1]))
    with pytest.raises(LogParseError) as alone:
        ingest._parse_by_line(lines[n - 1])
    assert str(alone.value) == str(error).replace(f"line {n}:", "line 1:", 1)


@SETTINGS
@given(text=log_texts(irregular=False))
def test_write_then_parse_is_identity(log_path, text):
    log_path.write_text(text, encoding="utf-8", newline="")
    try:
        parsed = parse_logfile(log_path)
    except ingest.EmptyInputError:
        return
    log_path.write_text(write_logfile(parsed[0]), encoding="utf-8")
    again = parse_logfile(log_path)
    assert again[0] == parsed[0]
    assert again[1:] == parsed[1:]
    assert same_stream(stream_outcome(again[0]), stream_outcome(parsed[0]))


@SETTINGS
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                               st.integers(-99, 99)), min_size=1, max_size=300))
def test_ties_keep_file_order(log_path, rows):
    """Records are sorted by app time stably, as Python's sort would."""
    log_path.write_text("".join(f"ACCE;{t};{t};{v};0;0\n" for t, v in rows),
                        encoding="utf-8")
    acce = parse_logfile(log_path)[0].kinds[ingest.ACCE]
    expected = sorted(rows, key=lambda r: r[0])
    assert acce.app_ts.tolist() == [t for t, _ in expected]
    assert acce.values[:, 0].tolist() == [v for _, v in expected]
