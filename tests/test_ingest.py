import csv
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swimlap import ingest
from swimlap.ingest import (
    CSV_COLUMNS,
    EARTH_RADIUS_M,
    IMU_FIELDS,
    MAG_FIELDS,
    SLOW_FIELDS,
    IngestError,
    TagSeries,
    local_to_latlon,
    master_timeline,
    moving_average,
    parse_tag_csv,
    read_table,
    resample_linear,
    write_table,
)
from swimlap.simulator import write_tag_csv

FULL_HEADER = "t,ax,ay,az,gx,gy,gz,mx,my,mz,depth,speed,temp"


def write_rows(path, rows, header=FULL_HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def reference_parse(path, schema=None):
    """The csv.DictReader parser that the single csv.reader pass replaced.

    It raises AttributeError on a row cut short of a column it reads. A
    flagged row is numbered by the file line on which it ends, as in
    ``parse_tag_csv``.
    """
    colmap = {name: name for name in CSV_COLUMNS}
    if schema:
        colmap.update(schema)

    def values(row, names):
        return [row.get(colmap[n], "").strip() for n in names]

    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for required in ("t",) + IMU_FIELDS + SLOW_FIELDS:
            if colmap[required] not in header:
                raise IngestError(f"missing column {colmap[required]!r}")
        has_mag = all(colmap[n] in header for n in MAG_FIELDS)

        t_imu, imu_rows = [], []
        t_slow, slow_rows = [], []
        flagged = []
        for row in reader:
            lineno = reader.line_num
            t_cell = row.get(colmap["t"], "").strip()
            if not t_cell:
                continue
            imu_cells = values(row, IMU_FIELDS)
            mag_cells = values(row, MAG_FIELDS) if has_mag else []
            slow_cells = values(row, SLOW_FIELDS)
            if any(imu_cells) != all(imu_cells) or \
                    any(slow_cells) != all(slow_cells) or \
                    (has_mag and any(mag_cells) != all(mag_cells)):
                flagged.append(lineno)
                continue
            try:
                t_val = float(t_cell)
                imu_vals = [float(c) for c in imu_cells] if all(imu_cells) else None
                mag_vals = ([float(c) for c in mag_cells]
                            if has_mag and all(mag_cells) else None)
                slow_vals = ([float(c) for c in slow_cells]
                             if all(slow_cells) else None)
            except ValueError:
                flagged.append(lineno)
                continue
            row_vals = [t_val] + (imu_vals or []) + (mag_vals or []) + (slow_vals or [])
            if not all(math.isfinite(v) for v in row_vals):
                flagged.append(lineno)
                continue
            if imu_vals is not None:
                t_imu.append(t_val)
                if has_mag:
                    imu_rows.append(imu_vals + (mag_vals or [math.nan] * 3))
                else:
                    imu_rows.append(imu_vals)
            if slow_vals is not None:
                t_slow.append(t_val)
                slow_rows.append(slow_vals)

    if not t_imu and not t_slow:
        raise IngestError("empty tag file")
    imu_width = 9 if has_mag else 6
    imu = (np.asarray(imu_rows, dtype=float).reshape(len(t_imu), -1)
           if t_imu else np.zeros((0, imu_width)))
    slow = (np.asarray(slow_rows, dtype=float).reshape(len(t_slow), -1)
            if t_slow else np.zeros((0, 2)))
    mag = None
    if has_mag and len(t_imu):
        mag = imu[:, 6:9]
        if np.isnan(mag).all():
            mag = None
        elif np.isnan(mag).any():
            raise IngestError("magnetometer present on only some IMU rows")
    return TagSeries(t_imu=np.asarray(t_imu, dtype=float), accel=imu[:, 0:3],
                     gyro=imu[:, 3:6], mag=mag,
                     t_slow=np.asarray(t_slow, dtype=float),
                     depth=slow[:, 0], speed=slow[:, 1], flagged_rows=flagged)


def parse_outcome(parse, path):
    """The arrays and flagged rows a parser returns, or its IngestError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            tag = parse(path)
        except IngestError as exc:
            return str(exc).split(":")[0]
    return {name: getattr(tag, name) for name in
            ("t_imu", "accel", "gyro", "mag", "t_slow", "depth", "speed",
             "flagged_rows")}


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got["flagged_rows"] == want["flagged_rows"]
    for name, value in want.items():
        if name == "flagged_rows":
            continue
        if value is None:
            assert got[name] is None, name
        else:
            assert got[name].shape == value.shape, name
            assert got[name].tobytes() == value.tobytes(), name


# Cells of the Hypothesis rows: numbers, or a mix of numbers with empty
# and blank cells, partial numbers, text and non-finite values.
NUMBER = st.floats(0.0, 1e3).map(repr)
CELL = st.one_of(NUMBER, st.sampled_from(
    ["", " ", "1.", "-0", "1e", "--1", "x", "n/a", "nan", "inf", "-inf",
     " 2.5 ", "1e400"]))
ROW_CELLS = st.one_of(st.lists(NUMBER, min_size=13, max_size=15),
                      st.lists(CELL, min_size=13, max_size=15))


class TestParse:
    def test_three_row_file(self, tmp_path):
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0,21" for t in (0.0, 0.2, 0.4)]
        tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 3
        assert tag.n_slow == 3
        assert tag.mag is not None

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0," for t in (0.0, 0.2, 0.2)]
        with pytest.raises(IngestError, match="non-monotone time"):
            parse_tag_csv(write_rows(tmp_path / "a.csv", rows))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,ax,ay\n0,0,0\n")
        with pytest.raises(IngestError, match="missing column"):
            parse_tag_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(FULL_HEADER + "\n")
        with pytest.raises(IngestError, match="empty"):
            parse_tag_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_tag_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("with_mag", [True, False],
                             ids=["mag", "no_mag"])
    def test_two_rates_preserved(self, tmp_path, with_mag):
        from dataclasses import replace

        from swimlap import LapScenario, get_animal, simulate
        from swimlap.simulator import write_tag_csv

        scenario = LapScenario(animal=get_animal("TT01"), n_laps=1)
        _, tag = simulate(scenario)
        if not with_mag:
            tag = replace(tag, mag=None)
        path = tmp_path / "sim.csv"
        write_tag_csv(tag, path)
        parsed = parse_tag_csv(path)
        assert parsed.n_imu == tag.n_imu
        assert parsed.n_slow == tag.n_slow
        assert np.allclose(np.diff(parsed.t_imu), 0.02, atol=1e-9)
        assert np.allclose(np.diff(parsed.t_slow), 0.2, atol=1e-9)
        # 9 significant digits recover every channel to a relative 5e-9.
        for name in ("t_imu", "accel", "gyro", "t_slow", "depth", "speed"):
            np.testing.assert_allclose(getattr(parsed, name),
                                       getattr(tag, name), rtol=1e-8,
                                       err_msg=name)
        if with_mag:
            np.testing.assert_allclose(parsed.mag, tag.mag, rtol=1e-8)
        else:
            assert parsed.mag is None
            cells = read_table(path)
            assert all(c == "" for n in ("mx", "my", "mz") for c in cells[n])

    def test_non_finite_rows_flagged(self, tmp_path):
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "0.2,0,0,nan,0,0,0,1,0,0,1.0,2.0,",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"]
        with pytest.warns(UserWarning, match="flagged"):
            tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 2
        assert tag.flagged_rows == [3]

    def test_flagged_rows_are_file_lines(self, tmp_path):
        # A blank line is skipped but still counts as a line of the file.
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "",
                "0.2,0,0,nan,0,0,0,1,0,0,1.0,2.0,",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "0.6,x,0,9.81,0,0,0,1,0,0,1.0,2.0,"]
        with pytest.warns(UserWarning, match="flagged 2 malformed"):
            tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 2
        assert tag.flagged_rows == [4, 6]

    def test_short_row_flagged(self, tmp_path):
        # Rows cut off, as at the end of a truncated file, are flagged:
        # also the one cut at a cell boundary, whose IMU and magnetometer
        # cells are complete, since its last cell may be cut too.
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0",
                "0.6,0,0,9.81,0,0,0,1,0,0",
                "0.8,0,0,9.8"]
        with pytest.warns(UserWarning, match="flagged 3 malformed"):
            tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 2
        assert tag.n_slow == 2
        assert tag.flagged_rows == [4, 5, 6]

    def test_matches_reference_on_written_tag(self, tmp_path, trial_16lap):
        path = tmp_path / "t16.csv"
        write_tag_csv(trial_16lap, path)
        assert_same_outcome(parse_outcome(parse_tag_csv, path),
                            parse_outcome(reference_parse, path))

    @given(with_mag=st.booleans(),
           rows=st.lists(st.tuples(
               ROW_CELLS,
               st.sampled_from(["imu", "imu_no_mag", "slow", "both", "t"]),
               st.one_of(st.none(), st.sampled_from(["", " ", "x", "nan"])),
               st.integers(0, 14)), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, with_mag, rows):
        # Row i has time stamp 0.02 * i, or a drawn time cell, and the
        # drawn cells of its kind's columns; the other read columns are
        # empty. So groups come out full, empty or partial, and cells
        # drawn past the header are extra cells. A row cut short of a read
        # column (``cut``) makes the reference raise; the reference reads
        # in its place a row with the same time cell and a garbled ``ax``,
        # which it flags, or skips when the time cell is blank.
        header = FULL_HEADER.split(",")
        if not with_mag:
            header = [c for c in header if c not in MAG_FIELDS]
        width = header.index("speed") + 1
        kinds = {"imu": IMU_FIELDS + MAG_FIELDS, "imu_no_mag": IMU_FIELDS,
                 "slow": SLOW_FIELDS, "t": (),
                 "both": IMU_FIELDS + MAG_FIELDS + SLOW_FIELDS}
        lines, ref_lines = [], []
        for i, (cells, kind, t_cell, cut) in enumerate(rows):
            row = [f"{0.02 * i:.2f}" if t_cell is None else t_cell]
            row += [cell if name in kinds[kind] + ("temp",) else ""
                    for name, cell in zip(header[1:], cells)]
            row += cells[len(header):]
            ref_row = row
            if cut and cut < width:
                row = ref_row = row[:cut]
                if row != [""]:  # a blank line, which both skip
                    ref_row = row[:1] + ["x"] + [""] * (len(header) - 2)
            lines.append(",".join(row))
            ref_lines.append(",".join(ref_row))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_rows(Path(tmp) / "a.csv", lines, ",".join(header))
            ref_path = write_rows(Path(tmp) / "ref.csv", ref_lines,
                                  ",".join(header))
            assert_same_outcome(parse_outcome(parse_tag_csv, path),
                                parse_outcome(reference_parse, ref_path))

    def test_memory_peak(self, tmp_path, trial_16lap):
        # Values go to flat buffers as they are parsed; holding every row
        # as a list of floats peaked near 6x the file size.
        path = tmp_path / "t16.csv"
        write_tag_csv(trial_16lap, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            parse_tag_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 3 * size, peak / size

    def test_temp_cells_never_parsed(self, tmp_path):
        # The temperature column is accepted but unused, so a garbled
        # cell there must not drop an otherwise valid row.
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,21",
                "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,n/a",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"]
        tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 3
        assert tag.n_slow == 3
        assert tag.flagged_rows == []

    def test_schema_mapping(self, tmp_path):
        header = "time,AX,ay,az,gx,gy,gz,mx,my,mz,depth,speed,temp"
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0," for t in (0.0, 0.2)]
        path = write_rows(tmp_path / "a.csv", rows, header=header)
        tag = parse_tag_csv(path, schema={"t": "time", "ax": "AX"})
        assert tag.n_imu == 2

    def test_negative_speed_rejected(self, tmp_path):
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,-2.0,"]
        with pytest.raises(IngestError, match="speed"):
            parse_tag_csv(write_rows(tmp_path / "a.csv", rows))


def loop_parse(path, schema=None):
    """``parse_tag_csv`` with every file sent to the row loop."""
    with mock.patch.object(ingest, "_parse_clean", return_value=None):
        return parse_tag_csv(path, schema)


def fast_parse(path, schema=None):
    """``parse_tag_csv`` that fails if the file reaches the row loop."""
    with mock.patch.object(ingest, "_parse_rows",
                           side_effect=AssertionError("row loop reached")):
        return parse_tag_csv(path, schema)


# Cells of a clean file: numbers, some space-padded, empty and blank cells
# and numbers that overflow to inf.
CLEAN_CELL = st.one_of(NUMBER, NUMBER, NUMBER, st.sampled_from(
    ["", "", " ", "1e400", "-1e400", " 2.5", "-0"]))


class TestCleanFiles:
    """The numpy reader of clean files against the row loop."""

    @given(with_mag=st.booleans(), crlf=st.booleans(),
           layout=st.sampled_from(["plain", "schema", "repeat", "extra"]),
           chunk=st.sampled_from([1, 200, 1 << 16]),
           rows=st.lists(st.tuples(
               st.lists(CLEAN_CELL, min_size=15, max_size=15),
               st.sampled_from(["imu", "slow", "both", "none"]),
               st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop(self, with_mag, crlf, layout, chunk, rows):
        # Row i has time stamp 0.02 * i or an empty time cell, and drawn
        # cells in its kind's groups, ``temp`` and the extra columns; the
        # other groups are empty. So groups come out full, empty or
        # partial.
        header = FULL_HEADER.split(",")
        if not with_mag:
            header = [c for c in header if c not in MAG_FIELDS]
        schema = None
        if layout == "schema":
            header[header.index("t")] = "time"
            schema = {"t": "time"}
        elif layout == "repeat":  # the last column of a name is read
            header.insert(1, "speed")
        elif layout == "extra":
            header.append("extra")
        groups = {"imu": IMU_FIELDS + MAG_FIELDS, "slow": SLOW_FIELDS,
                  "both": IMU_FIELDS + MAG_FIELDS + SLOW_FIELDS, "none": ()}
        lines = []
        for i, (cells, kind, timed) in enumerate(rows):
            drawn = groups[kind] + ("temp", "extra")
            row = [cell if name in drawn else "" for name, cell
                   in zip(header, cells)]
            row[0] = f"{0.02 * i:.2f}" if timed else ""
            if layout == "repeat":
                row[1] = cells[1]
            lines.append(",".join(row))
        end = "\r\n" if crlf else "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.csv"
            path.write_text(end.join([",".join(header), *lines]) + end,
                            newline="")
            with mock.patch.object(ingest, "_CHUNK", chunk):
                got = parse_outcome(lambda p: fast_parse(p, schema), path)
            assert_same_outcome(
                got, parse_outcome(lambda p: loop_parse(p, schema), path))

    @pytest.mark.parametrize("with_mag", [True, False],
                             ids=["mag", "no_mag"])
    def test_simulated_tag_takes_numpy_path(self, tmp_path, trial_16lap,
                                            with_mag):
        tag = trial_16lap if with_mag else replace(trial_16lap, mag=None)
        path = tmp_path / "t16.csv"
        write_tag_csv(tag, path)
        assert_same_outcome(parse_outcome(fast_parse, path),
                            parse_outcome(loop_parse, path))

    @pytest.mark.parametrize("rows, flagged", [
        # A literal nan is no empty cell: the rows are flagged.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
          "nan,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
          "0.4,nan,nan,nan,nan,nan,nan,nan,nan,nan,1.0,2.0,"], [3, 4]),
        # A quoted number is a number.
        (['0.0,0,0,"9.81",0,0,0,1,0,0,1.0,2.0,',
          '0.2,0,0,9.81,0,0,0,1,0,0,"1.0",2.0,""'], []),
        # A '#' is no comment: the cell is not a number.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
          "0.2,0,0,9.81#,0,0,0,1,0,0,1.0,2.0,"], [3]),
        # A number padded with spaces is a number.
        (["0.0, 0 ,0,9.81,0,0,0,1,0,0, 1.0,2.0 ,",
          "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"], []),
        # A blank line is skipped but counts as a line of the file.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,", "",
          "0.2,0,0,9.81,0,0,0,1,0,,1.0,2.0,",
          "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"], [4]),
        # A bare \r ends a line.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,\r"
          "0.2,0,0,9.81,0,,0,1,0,0,1.0,2.0,",
          "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"], [3]),
        # The temperature is never read, also when it is no number.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,21..5",
          "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,-"], []),
        # A control byte that is no white space is no empty cell.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
          "\x01,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"], [3])],
        ids=["literal_nan", "quoted_cell", "hash_in_cell", "space_padded",
             "blank_line", "bare_cr", "garbled_temp", "control_byte"])
    def test_irregular_cells(self, tmp_path, rows, flagged):
        path = write_rows(tmp_path / "a.csv", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tag = parse_tag_csv(path)
        assert tag.flagged_rows == flagged
        lines = "\n".join(rows).replace("\r", "\n").splitlines()
        assert tag.n_slow == sum(map(bool, lines)) - len(flagged)
        assert_same_outcome(parse_outcome(parse_tag_csv, path),
                            parse_outcome(loop_parse, path))

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    @pytest.mark.parametrize("body, numpy_path", [
        # The file's last row has no line end and ends in an empty cell.
        ("0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,\n"
         "0.2,0,0,9.81,0,0,0,1,0,0,,,", True),
        # The first data row opens with an empty cell: it has no time.
        (",0,0,9.81,0,0,0,1,0,0,1.0,2.0,3\n"
         "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,3\n", True),
        # A row of commas only.
        ("0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,3\n,,,,,,,,,,,,\n"
         "0.4,,,,,,,,,,1.0,2.0,\n", True),
        # CRLF line ends after an empty cell.
        ("0.0,0,0,9.81,0,0,0,,,,1.0,2.0,\r\n"
         "0.2,0,0,9.81,0,0,0,,,,,,\r\n0.4,,,,,,,,,,1.0,2.0,\r\n", True),
        # A chunk outside ASCII goes to the row loop, also where loadtxt
        # would read it (a no-break space); the temperature is never read.
        ("0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,\u00a021.5\n"
         "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,\u00a021.5\n", False)],
        ids=["no_final_line_end", "leading_empty_cell", "only_commas",
             "crlf_empty_last_cell", "non_ascii_temp"])
    def test_empty_cell_edges(self, tmp_path, chunk, body, numpy_path):
        path = tmp_path / "a.csv"
        path.write_bytes((FULL_HEADER + "\n" + body).encode())
        with mock.patch.object(ingest, "_CHUNK", chunk):
            with mock.patch.object(ingest, "_parse_rows",
                                   wraps=ingest._parse_rows) as loop:
                got = parse_outcome(
                    fast_parse if numpy_path else parse_tag_csv, path)
            want = parse_outcome(loop_parse, path)
        assert loop.called != numpy_path
        assert want["flagged_rows"] == []
        assert_same_outcome(got, want)

    @pytest.mark.parametrize("blank_line", [False, True],
                             ids=["numpy_path", "row_loop"])
    def test_byte_order_mark(self, tmp_path, trial_16lap, blank_line):
        # A UTF-8 byte-order mark, as spreadsheet exports write, is not part
        # of the first column's name.
        path = tmp_path / "t16.csv"
        write_tag_csv(trial_16lap, path)
        lines = path.read_bytes().splitlines(keepends=True)
        if blank_line:  # the row loop reads the file again from its start
            lines.insert(1000, b"\r\n")
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"".join(lines))
        bom.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
        with mock.patch.object(ingest, "_parse_rows",
                               wraps=ingest._parse_rows) as loop:
            got = parse_outcome(parse_tag_csv, bom)
        assert loop.called == blank_line
        assert_same_outcome(got, parse_outcome(parse_tag_csv, plain))

    @pytest.mark.parametrize("temp", [True, False], ids=["temp", "no_temp"])
    @pytest.mark.parametrize("final_end", [True, False],
                             ids=["final_line_end", "no_final_line_end"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_mixed_rows_in_one_chunk(self, tmp_path, end, final_end, temp):
        # IMU-only, slow-only, both, untimed and partial rows in one chunk.
        # Without a temp column the last column read is speed, so the
        # line end follows a read cell.
        rows = ["0.0,0,0,9.81,0,0,0,,,,1.0,2.0,",    # both
                "0.02,0,0,9.81,0,0,0,,,,,,",         # IMU only
                "0.04,,,,,,,,,,1.0,2.0,",            # slow only
                ",0,0,9.81,0,0,0,,,,1.0,2.0,",       # untimed
                "0.06,0,0,9.81,0,0,0,,,,,2.0,",      # partial slow
                "0.08,0,0,9.81,,0,0,,,,,,",          # partial IMU
                "0.1,,,,,,,,,,,,",                   # timed, no data
                "0.12,0,0,9.81,0,0,0,,,,3.0,4.0,"]   # both
        header = FULL_HEADER
        if not temp:
            header = header.removesuffix(",temp")
            rows = [row.removesuffix(",") for row in rows]
        body = end.join([header, *rows]) + (end if final_end else "")
        path = tmp_path / "a.csv"
        path.write_bytes(body.encode())
        got = parse_outcome(fast_parse, path)
        assert_same_outcome(got, parse_outcome(loop_parse, path))
        assert got["flagged_rows"] == [6, 7]
        assert got["t_imu"].tolist() == [0.0, 0.02, 0.12]
        assert got["t_slow"].tolist() == [0.0, 0.04, 0.12]
        assert got["speed"].tolist() == [2.0, 2.0, 4.0]

    @pytest.mark.parametrize("rows, flagged", [
        # Text in the temperature or an extra column, which are not read.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,n/a,x",
          "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,21..5,-"], []),
        # Text in a row that is flagged for a partly filled channel group.
        (["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,,",
          "0.2,0,x,9.81,,0,0,1,0,0,1.0,2.0,,",
          "0.4,0,0,9.81,0,0,0,1,0,0,n/a,,,"], [3, 4]),
        # Blank cells are empty cells: the IMU group is absent, not partial.
        (["0.0, ,\t, , , , , , , ,1.0,2.0,,",
          "0.2,0,0,9.81,0,0,0,1,0,0, , ,,"], [])],
        ids=["unread_columns", "flagged_row", "blank_cells"])
    def test_cells_never_converted_stay_on_numpy_path(self, tmp_path, rows,
                                                      flagged):
        path = write_rows(tmp_path / "a.csv", rows, FULL_HEADER + ",extra")
        got = parse_outcome(fast_parse, path)
        assert_same_outcome(got, parse_outcome(loop_parse, path))
        assert got["flagged_rows"] == flagged

    @pytest.mark.parametrize("bom", [False, True], ids=["no_bom", "bom"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    def test_body_starts_after_header_bytes(self, tmp_path, end, bom):
        # The header ends in any line end and names a column outside
        # ASCII, so its bytes outnumber its characters.
        header = FULL_HEADER + ",température"
        rows = [f"{0.02 * i:.2f},0,0,9.81,0,0,0,1,0,0,1.0,2.0,21,"
                for i in range(3)]
        path = tmp_path / "a.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + (header + end).encode()
                         + "".join(row + "\n" for row in rows).encode())
        got = parse_outcome(fast_parse, path)
        assert_same_outcome(got, parse_outcome(loop_parse, path))
        assert got["t_imu"].tolist() == [0.0, 0.02, 0.04]

    @mock.patch.object(ingest, "_CHUNK", 1 << 16)
    def test_bad_row_in_last_chunk(self, tmp_path):
        # The numpy reader has read every chunk but the last when it
        # meets the text cell; the row loop then reads the whole file.
        rows = [f"{0.02 * i:.2f},0,0,9.81,0,0,0,1,0,0,1.0,2.0,"
                for i in range(5000)]
        rows[-2] = rows[-2].replace("9.81", "x")
        path = write_rows(tmp_path / "a.csv", rows)
        assert path.stat().st_size > 2 * ingest._CHUNK
        with pytest.warns(UserWarning, match="flagged 1 malformed"):
            tag = parse_tag_csv(path)
        assert tag.flagged_rows == [5000]
        assert tag.n_imu == 4999
        assert_same_outcome(parse_outcome(parse_tag_csv, path),
                            parse_outcome(loop_parse, path))


class TestResample:
    def timeline(self, t0=0.0, dt=0.2, n=11):
        return t0 + dt * np.arange(n)

    def test_constant(self):
        t = np.arange(0, 3, 0.02)
        out = resample_linear(t, np.full_like(t, 5.0), self.timeline())
        assert np.allclose(out, 5.0, atol=0, rtol=0)

    def test_ramp_exact(self):
        t = np.arange(0, 3, 0.02)
        out = resample_linear(t, t.copy(), self.timeline())
        assert np.allclose(out, self.timeline(), atol=1e-12)

    def test_sine_within_2e4(self):
        t = np.arange(0, 3, 0.02)
        tl = self.timeline(t0=0.01, n=10)
        out = resample_linear(t, np.sin(t), tl)
        assert np.max(np.abs(out - np.sin(tl))) < 2e-4

    def test_idempotent_on_grid(self):
        tl = self.timeline()
        values = np.sin(tl * 2.0)
        out = resample_linear(tl, values, tl)
        assert np.array_equal(out, values)

    def test_no_extrapolation(self):
        t = np.arange(0, 1.0, 0.02)
        with pytest.raises(IngestError, match="extends beyond"):
            resample_linear(t, t, self.timeline(n=20))


class TestMovingAverage:
    def test_constant_unchanged(self):
        out = moving_average(np.full(20, 3.3), 1.0, 0.2)
        assert np.allclose(out, 3.3, rtol=1e-12)

    def test_ramp_unchanged(self):
        x = np.arange(30) * 0.7
        out = moving_average(x, 1.0, 0.2)
        assert np.allclose(out, x, atol=1e-12)

    def test_impulse_spread(self):
        x = np.zeros(11)
        x[5] = 1.0
        out = moving_average(x, 1.0, 0.2)
        expected = np.zeros(11)
        expected[3:8] = 0.2
        assert np.allclose(out, expected, atol=1e-15)

    def test_even_window_forced_odd(self):
        x = np.zeros(11)
        x[5] = 1.0
        assert np.array_equal(moving_average(x, 0.8, 0.2),
                              moving_average(x, 1.0, 0.2))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            moving_average(np.array([]), 1.0, 0.2)

    @given(st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_constant_shift(self, c):
        x = np.sin(np.arange(40) * 0.3)
        lhs = moving_average(x + c, 1.0, 0.2)
        rhs = moving_average(x, 1.0, 0.2) + c
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_periodic_mean_preserved(self):
        # 4 whole periods sampled on-grid; trim edge half-windows.
        t = np.arange(0, 8, 0.2)
        x = np.sin(2 * np.pi * t / 2.0)
        out = moving_average(x, 1.0, 0.2)
        assert abs(np.mean(out[5:-5]) - np.mean(x[5:-5])) < 1e-2


class TestProjection:
    def test_origin_maps_to_zero(self):
        lat, lon = local_to_latlon(0.0, 0.0, origin=(21.27, -157.77))
        assert lat == 21.27 and lon == -157.77

    def test_lat_step(self):
        # 1e-4 degree of latitude is 11.12 m north.
        y = EARTH_RADIUS_M * math.radians(1e-4)
        assert abs(y - 11.12) < 0.01
        lat, lon = local_to_latlon(0.0, y, origin=(10.0, 20.0))
        assert lon == 20.0
        assert abs(lat - (10.0 + 1e-4)) < 1e-12

    def test_lon_step_at_equator(self):
        lat, lon = local_to_latlon(11.12, 0.0, origin=(0.0, 0.0))
        assert lat == 0.0
        assert abs(lon - 1e-4) < 1e-7

    @given(st.floats(-500, 500), st.floats(-500, 500),
           st.floats(-60, 60), st.floats(-179, 179))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_lagoon_scale(self, dx, dy, lat0, lon0):
        # The equirectangular forward projection, by hand, undoes it.
        lat, lon = local_to_latlon(dx, dy, (lat0, lon0))
        x = EARTH_RADIUS_M * math.cos(math.radians(lat0)) * math.radians(
            lon - lon0)
        y = EARTH_RADIUS_M * math.radians(lat - lat0)
        assert abs(x - dx) < 1e-6
        assert abs(y - dy) < 1e-6


def reference_fmt(value):
    return f"{float(value):.9g}"


def reference_cell(cell):
    """A cell of the reference codec, as text before quoting."""
    if isinstance(cell, str):
        return cell
    return str(cell) if isinstance(cell, int) else reference_fmt(cell)


def reference_write_table(path, columns):
    """The csv.writer codec that the row template replaced."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(
            [cell if isinstance(cell, (str, int)) else reference_fmt(cell)
             for cell in row]
            for row in zip(*columns.values()))


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0]
# Text without NUL, which csv.writer refuses before Python 3.11.
TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=6),
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"',
                     "é", "%s", " "]))


@st.composite
def table_column(draw, n):
    """A column of ``n`` cells of one of the kinds the tables hold."""

    def cells(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    kind = draw(st.sampled_from(["f64", "f32", "py", "int_array",
                                 "np_float_list", "text"]))
    if kind == "f64":
        return np.array(cells(st.one_of(
            st.floats(), st.sampled_from(
                SPECIAL_FLOATS + [5e-324, 1e-310, 1e300, -1e300]))),
            dtype=np.float64)
    if kind == "f32":
        return np.array(cells(st.one_of(
            st.floats(width=32), st.sampled_from(
                SPECIAL_FLOATS + [1e-45, 1e-40, 3e38]))), dtype=np.float32)
    if kind == "py":
        return cells(st.one_of(st.integers(), st.booleans(), st.floats()))
    if kind == "int_array":
        return np.array(cells(st.integers(-2**31, 2**31 - 1)),
                        dtype=draw(st.sampled_from([np.int64, np.int32])))
    if kind == "np_float_list":
        return [np.float64(x) for x in cells(st.floats())]
    return cells(TEXT)


@st.composite
def tables(draw):
    """One to four named columns of zero to six rows."""
    n = draw(st.integers(0, 6))
    names = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    return {name: draw(table_column(n)) for name in names}


class TestTable:
    def test_write_table_bytes(self, tmp_path):
        # Integers and text pass through; every other number is written
        # with 9 significant digits, non-finite values included.
        path = tmp_path / "table.csv"
        write_table(path, {
            "lap": [0, 1, 2, 3, 4, 12345678901],
            "trial": ["TT01"] * 6,
            "value": np.array([math.nan, math.inf, -math.inf, -0.0, 1e-10,
                               123456789012.5])})
        assert path.read_bytes() == (b"lap,trial,value\r\n"
                                     b"0,TT01,nan\r\n"
                                     b"1,TT01,inf\r\n"
                                     b"2,TT01,-inf\r\n"
                                     b"3,TT01,-0\r\n"
                                     b"4,TT01,1e-10\r\n"
                                     b"12345678901,TT01,1.23456789e+11\r\n")
        assert read_table(path) == {
            "lap": ["0", "1", "2", "3", "4", "12345678901"],
            "trial": ["TT01"] * 6,
            "value": ["nan", "inf", "-inf", "-0", "1e-10", "1.23456789e+11"]}

    @given(columns=tables())
    # csv.writer writes a row of one empty cell as "", so that the row is
    # not blank; a wider row of empty cells is only commas.
    @example(columns={"": ["", "a,b"]})
    @example(columns={"a": [""], "b": [""]})
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, columns):
        # Blocks of one to three rows put block edges inside the table.
        with tempfile.TemporaryDirectory() as tmp:
            path, ref_path = Path(tmp) / "a.csv", Path(tmp) / "ref.csv"
            reference_write_table(ref_path, columns)
            for block in (1, 2, 3, ingest._BLOCK):
                with mock.patch.object(ingest, "_BLOCK", block):
                    write_table(path, columns)
                assert path.read_bytes() == ref_path.read_bytes(), block
            assert read_table(path) == {
                name: [reference_cell(cell) for cell in cells]
                for name, cells in columns.items()}

    def test_rows_across_blocks(self, tmp_path):
        # Two full blocks and one row, from arrays, lists and a generator.
        n = 2 * ingest._BLOCK + 1
        rng = np.random.default_rng(1)
        value = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
        value[::97] = math.nan
        text = [["TT01", "a,b", 'say "hi"', ""][i % 4] for i in range(n)]

        def columns():
            return {"lap": list(range(n)),
                    "count": np.arange(n, dtype=np.int64) * 1000,
                    "value": value,
                    "single": value.astype(np.float32),
                    "trial": text,
                    "spread": (str(i) if i % 3 else "" for i in range(n))}

        write_table(tmp_path / "a.csv", columns())
        reference_write_table(tmp_path / "ref.csv", columns())
        got = (tmp_path / "a.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == n + 1

    def test_memory_peak(self, tmp_path):
        # Float columns are converted to Python floats a block at a time;
        # converting whole columns peaked at 4x the array bytes.
        rng = np.random.default_rng(0)
        columns = {name: rng.normal(size=200_000) for name in "abcd"}
        array_bytes = sum(c.nbytes for c in columns.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_table(tmp_path / "table.csv", columns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * array_bytes, peak / array_bytes


class TestMasterTimeline:
    def test_from_simulated_tag(self, default_lap):
        _, _, tag, _ = default_lap
        t = master_timeline(tag)
        assert np.allclose(np.diff(t), 0.2, rtol=0, atol=1e-12)
        assert t[0] == tag.t_slow[0]
        assert t[-1] <= min(tag.t_slow[-1], tag.t_imu[-1]) + 1e-9

    def test_too_short(self):
        from swimlap.ingest import TagSeries

        tag = TagSeries(t_imu=np.array([0.0, 0.02]),
                        accel=np.zeros((2, 3)), gyro=np.zeros((2, 3)),
                        mag=None, t_slow=np.array([0.0]),
                        depth=np.zeros(1), speed=np.zeros(1))
        with pytest.raises(IngestError):
            master_timeline(tag)

    def test_time_stamps_at_limit(self, default_lap):
        # From 1e6 * dt on, 9 significant digits no longer resolve dt / 100.
        _, _, tag, _ = default_lap

        def shifted(by):
            return replace(tag, t_imu=tag.t_imu + by, t_slow=tag.t_slow + by)

        end = min(tag.t_slow[-1], tag.t_imu[-1])
        assert master_timeline(shifted(2e5 - 0.1 - end))[-1] < 2e5
        with pytest.raises(IngestError, match=r"limit 1e6 \* dt = 200000 s"):
            master_timeline(shifted(2e5))
