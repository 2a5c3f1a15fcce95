"""Raw tag-channel ingestion: CSV parsing, resampling, smoothing, geodesy.

This module also holds the one CSV table codec (:func:`write_table`,
:func:`read_table`, :func:`read_numbers`) and number format
(:data:`NUMBER_FORMAT`, :func:`fmt`) of every artifact. A table is written
with the bytes of ``csv.writer`` (minimal quoting, ``\\r\\n`` line ends),
4096 rows at a time, each block with one ``%`` on the row template repeated
once per row: 1-D float array columns are formatted with
:data:`NUMBER_FORMAT`; any other cell is text, quoted if it holds ``,``,
``"``, ``\\r`` or ``\\n``, an ``int`` written with ``str``, or another
number written with :func:`fmt`.

The tag records two native rates: inertial channels (accelerometer,
gyroscope, magnetometer) at nominally 50 Hz and environmental channels
(depth, speed) at nominally 5 Hz. Parsing keeps both rates; all
downstream analysis runs on a uniform 5 Hz master timeline, an array of
instants (:func:`master_timeline`) whose sample period is
:data:`MASTER_DT`.

A clean tag file is read as bytes, in 256 KB chunks of whole lines. The rows
of a chunk are grouped by which of their read cells are empty, and numpy's
C reader converts each group's filled read cells in one call; it never sees
an empty cell, and columns that are not read are never converted. Any other
file (a blank line, a bare ``\\r``, a quote, a byte outside ASCII, a row of
another length, or a read cell that is no number) goes, whole, through the
row loop that defines the parse rules. The result is the same either way.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
MASTER_DT = 0.2  # s, the sample period of the 5 Hz master timeline

# Canonical CSV column names; a schema map may rename any of them. The
# tag's temperature column is accepted and ignored.
CSV_COLUMNS = ("t", "ax", "ay", "az", "gx", "gy", "gz",
               "mx", "my", "mz", "depth", "speed", "temp")

IMU_FIELDS = ("ax", "ay", "az", "gx", "gy", "gz")
MAG_FIELDS = ("mx", "my", "mz")
SLOW_FIELDS = ("depth", "speed")


class IngestError(ValueError):
    """Raised for malformed tag input files."""


@dataclass
class TagSeries:
    """Validated raw tag channels at their native rates.

    ``t_imu`` indexes the inertial arrays, ``t_slow`` the depth/speed
    arrays. ``mag`` is None when the file carries no magnetometer columns.
    Rows containing non-finite values are excluded from the channels but
    their file line numbers (the line on which each row ends) are kept in
    ``flagged_rows``.
    """

    t_imu: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    mag: np.ndarray | None
    t_slow: np.ndarray
    depth: np.ndarray
    speed: np.ndarray
    flagged_rows: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name, t in (("IMU", self.t_imu), ("depth/speed", self.t_slow)):
            if len(t) and np.any(np.diff(t) <= 0.0):
                raise IngestError(f"non-monotone time in {name} channel")
        if np.any(self.speed < 0.0):
            raise IngestError("speed_meas must be non-negative")
        if np.any(self.depth < 0.0):
            raise IngestError("depth must be non-negative")

    @property
    def n_imu(self) -> int:
        return len(self.t_imu)

    @property
    def n_slow(self) -> int:
        return len(self.t_slow)


def parse_tag_csv(path: str | Path,
                  schema: dict[str, str] | None = None) -> TagSeries:
    """Parse a tag export CSV into a :class:`TagSeries`.

    ``schema`` maps canonical names (``t, ax..az, gx..gz, mx..mz, depth,
    speed``) to the file's column names; canonical names are used
    directly when omitted. A row is an IMU sample when all six
    accelerometer/gyroscope cells are present, and a slow sample when both
    depth and speed cells are present; one row may be both. Malformed
    rows are flagged and excluded: a partly filled channel group, a cell
    that is not a number, a non-finite value, or a row cut short of a
    column that is read. Other columns, such as ``temp``, are never read.
    A clean file is read by :func:`_parse_clean`, any other, whole, by
    :func:`_parse_rows`, with the same result.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"tag file not found: {path}")
    colmap = {name: name for name in CSV_COLUMNS}
    if schema:
        colmap.update(schema)

    # utf-8-sig skips a byte-order mark, also again after fh.seek(0).
    with path.open(newline="", encoding="utf-8-sig") as fh:
        bom = fh.buffer.peek(3).startswith(codecs.BOM_UTF8)
        head: list[str] = []  # the lines the header is read from
        reader = csv.reader(head.append(line) or line for line in fh)
        header = next(reader, [])
        for required in ("t",) + IMU_FIELDS + SLOW_FIELDS:
            if colmap[required] not in header:
                raise IngestError(
                    f"missing column {colmap[required]!r} in {path}")
        has_mag = all(colmap[n] in header for n in MAG_FIELDS)
        # A repeated column name reads its last column.
        index = {name: i for i, name in enumerate(header)}
        read = [index[colmap[n]] for n in ("t",) + IMU_FIELDS
                + (MAG_FIELDS if has_mag else ()) + SLOW_FIELDS]
        # The body follows the header's bytes.
        fh.buffer.seek(len(codecs.BOM_UTF8) * bom
                       + len("".join(head).encode()))
        parsed = _parse_clean(fh.buffer, read, len(header), reader.line_num)
        if parsed is None:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            parsed = _parse_rows(reader, read)
    t_imu, imu_buf, t_slow, slow_buf, flagged = parsed

    if not t_imu and not t_slow:
        raise IngestError(f"empty tag file: {path}")
    if flagged:
        warnings.warn(
            f"{path}: flagged {len(flagged)} malformed or non-finite row(s)",
            stacklevel=2)

    imu = np.frombuffer(imu_buf).reshape(len(t_imu), 9 if has_mag else 6)
    slow = np.frombuffer(slow_buf).reshape(len(t_slow), 2)
    mag = None
    if has_mag and len(t_imu):
        mag = imu[:, 6:9]
        if np.isnan(mag).all():
            mag = None
        elif np.isnan(mag).any():
            raise IngestError("magnetometer present on only some IMU rows")
    return TagSeries(
        t_imu=np.frombuffer(t_imu),
        accel=imu[:, 0:3],
        gyro=imu[:, 3:6],
        mag=mag,
        t_slow=np.frombuffer(t_slow),
        depth=slow[:, 0],
        speed=slow[:, 1],
        flagged_rows=flagged,
    )


# The parse of a file body: the IMU times and rows (t, accelerometer,
# gyroscope, then magnetometer or nan when the file has its columns), the
# depth/speed times and rows, and the file lines of the flagged rows.
_Parsed = tuple[array, array, array, array, list[int]]


def _parse_rows(reader, read: list[int]) -> _Parsed:
    """Parse the rows of ``reader`` one by one: the rules of every file.

    ``read`` holds the column indices of ``t``, the IMU group, the
    magnetometer group if the file has one, and depth and speed.
    """
    get_cells = itemgetter(*read)
    t_idx, width = read[0], 1 + max(read)
    m = len(read) - 2  # cells[1:7] IMU, cells[7:m] mag, cells[m:] slow

    # Flat buffers, reshaped once at the end: no Python list per row.
    t_imu, imu_buf = array("d"), array("d")
    t_slow, slow_buf = array("d"), array("d")
    no_mag = [math.nan] * (m - 7)
    flagged: list[int] = []
    # Blank lines are skipped; a flagged row is numbered by the file
    # line on which it ends.
    for row in filter(None, reader):
        if len(row) < width:
            # Cut short of a column that is read; a row without a
            # time stamp carries nothing, as below.
            if t_idx >= len(row) or row[t_idx].strip():
                flagged.append(reader.line_num)
            continue
        cells = list(map(str.strip, get_cells(row)))
        if not cells[0]:
            continue
        imu_cells, mag_cells, slow_cells = cells[1:7], cells[7:m], cells[m:]
        # Partially filled channel groups are malformed, not usable data.
        if 0 < imu_cells.count("") < 6 or 0 < slow_cells.count("") < 2 \
                or 0 < mag_cells.count("") < len(mag_cells):
            flagged.append(reader.line_num)
            continue
        try:
            vals = list(map(float, filter(None, cells)))
        except ValueError:
            flagged.append(reader.line_num)
            continue
        if not all(map(math.isfinite, vals)):
            flagged.append(reader.line_num)
            continue
        # vals: t, then the IMU, mag and slow groups that are present.
        if imu_cells[0]:
            t_imu.append(vals[0])
            imu_buf.extend(vals[1:7])
            imu_buf.extend(vals[7:10] if mag_cells and mag_cells[0]
                           else no_mag)
        if slow_cells[0]:
            t_slow.append(vals[0])
            slow_buf.extend(vals[-2:])
    return t_imu, imu_buf, t_slow, slow_buf, flagged


# Bytes of the body to read at a time. Each chunk pays about 0.1 ms of
# fixed numpy calls, and the memory the C reader takes grows with it. On
# the 64-lap benchmark tag (8.9 MB; 2 vCPUs, Python 3.11.7, numpy 2.4.6),
# best of 9 parses and tracemalloc peak by chunk size: 16 KB 166-179 ms,
# 9.4 MB; 64 KB 132-142 ms, 9.6 MB; 256 KB 122-130 ms, 11.1 MB; 1 MB
# 112-138 ms, 18.5 MB. At 1 MB a 2.3 MB tag peaks at 5x its size.
_CHUNK = 1 << 18
# The bytes that str.strip removes from a cell.
_BLANK = np.array([chr(b).isspace() for b in range(256)])


def _parse_clean(fh, read: list[int], ncols: int, line: int) -> _Parsed | None:
    """Parse the rest of binary ``fh`` as :func:`_parse_rows` would.

    Reads ``_CHUNK`` bytes of whole lines at a time, each line after file
    line ``line``. The rows of a chunk are grouped by which of their read
    cells are empty (of white space alone, which the row loop strips),
    and the rules of the row loop are applied once per group: a row
    without a time stamp carries nothing, and a partly filled channel
    group flags the row. The C reader converts the read cells of
    every other group, never an empty cell; a row with a non-finite value
    is flagged. Cells that are not read are never converted.

    Returns None, having read part of the file, when a chunk is not rows of
    ``ncols`` cells that ``csv.reader`` would split at the same commas (a
    blank line, a bare ``\\r``, a quote, a NUL or a byte outside ASCII), or
    when a read cell that is not empty is no number to the C reader.
    """
    m = len(read) - 2
    t_imu, imu_buf = array("d"), array("d")
    t_slow, slow_buf = array("d"), array("d")
    flagged: list[int] = []
    bits = 1 << np.arange(len(read))
    while lines := fh.readlines(_CHUNK):
        body = b"".join(lines)
        if not body.isascii() or b'"' in body or b"\0" in body:
            return None
        raw = np.frombuffer(body, np.uint8)
        n = len(lines)
        # Each cell ends at a ',' or at its line's end; a last line may
        # have no line end.
        lf = raw == ord("\n")
        ends = np.flatnonzero(lf | (raw == ord(",")))
        line_ends = np.flatnonzero(lf)
        if len(line_ends) < n:
            ends = np.append(ends, len(raw))
            line_ends = np.append(line_ends, len(raw))
        if len(ends) != n * ncols \
                or not np.array_equal(ends[ncols - 1::ncols], line_ends):
            return None
        low = np.flatnonzero((raw <= ord(" ")) & ~lf)
        blank = low[_BLANK[raw[low]]]
        if np.count_nonzero(raw[blank] == ord("\r")) \
                != np.count_nonzero(raw[line_ends - 1] == ord("\r")):
            return None  # a bare \r ends a line to csv.reader
        # The row loop strips each cell, so a cell is empty when its bytes
        # between two separators are all white space (such as the \r of a
        # CRLF line end): count each cell's white-space bytes.
        size = np.diff(ends, prepend=-1) - 1
        size -= np.bincount(np.searchsorted(ends, blank), minlength=len(ends))
        empty = size.reshape(n, ncols)[:, read] == 0

        values = np.full(empty.shape, np.nan)
        bad = np.zeros(n, bool)
        keys = empty @ bits
        kinds = np.unique(keys)
        for kind in kinds:
            e = (kind & bits) != 0  # which read cells of the group are empty
            if e[0]:
                continue  # a row without a time stamp carries nothing
            rows = keys == kind
            if any(0 < np.count_nonzero(e[a:b]) < b - a
                   for a, b in ((1, 7), (7, m), (m, m + 2))):
                bad |= rows  # a partly filled channel group
                continue
            cells = np.flatnonzero(~e)
            try:
                vals = np.loadtxt(
                    lines if len(kinds) == 1
                    else list(compress(lines, rows.tolist())),
                    delimiter=",", comments=None, ndmin=2,
                    usecols=[read[c] for c in cells])
            except ValueError:  # a read cell that is no number
                return None
            rows = np.flatnonzero(rows)
            bad[rows] = ~np.isfinite(vals).all(axis=1)
            values[np.ix_(rows, cells)] = vals
        timed = ~empty[:, 0]
        flagged += (line + 1 + np.flatnonzero(timed & bad)).tolist()
        ok = timed & ~bad
        imu, slow = ok & ~empty[:, 1], ok & ~empty[:, m]
        t_imu.frombytes(values[imu, 0].tobytes())
        imu_buf.frombytes(values[imu, 1:m].tobytes())
        t_slow.frombytes(values[slow, 0].tobytes())
        slow_buf.frombytes(values[slow, m:].tobytes())
        line += n
    return t_imu, imu_buf, t_slow, slow_buf, flagged


# The number format of every artifact: 9 significant digits.
NUMBER_FORMAT = "%.9g"
# Rows of a table formatted with one ``%`` at a time: formatting a whole
# table at once would hold all its cells as Python objects, 4x the bytes of
# its float arrays.
_BLOCK = 4096


def fmt(value: float) -> str:
    """Format one number with :data:`NUMBER_FORMAT`."""
    return NUMBER_FORMAT % float(value)


def _cell(cell, alone: bool = False) -> str:
    """One cell as ``csv.writer`` writes it with minimal quoting.

    Text is quoted when it holds ``,``, ``"``, ``\\r`` or ``\\n``, and an
    empty text cell when it is ``alone`` in its row, so that the row is
    not blank. Integers are written with ``str``, other numbers with
    :func:`fmt`.
    """
    if not isinstance(cell, str):
        return str(cell) if isinstance(cell, int) else fmt(cell)
    if '"' in cell:
        return '"%s"' % cell.replace('"', '""')
    if "," in cell or "\r" in cell or "\n" in cell or (alone and not cell):
        return '"%s"' % cell
    return cell


def write_table(path: str | Path, columns: dict[str, Iterable]) -> None:
    """Write ``columns`` (name -> cells, one per row) as a CSV table.

    The bytes are those of ``csv.writer`` with minimal quoting and
    ``\\r\\n`` line ends. The rows are written :data:`_BLOCK` at a time:
    the block's cells, in row order, fill one object array, and one ``%``
    applies the row template, repeated once per row, to all of them. A
    column that is a 1-D float array gets :data:`NUMBER_FORMAT` in the
    template, and its block is assigned as one slice. Every other cell,
    and the header, goes through one rule per cell (:func:`_cell`): text
    as it is (quoted if it holds ``,``, ``"``, ``\\r`` or ``\\n``),
    ``int`` with ``str``, every other number with :func:`fmt`. As with
    ``zip``, the table ends with its shortest column.
    """
    alone = len(columns) == 1
    floats, texts, template = [], [], []
    for j, values in enumerate(columns.values()):
        if isinstance(values, np.ndarray) and values.ndim == 1 \
                and values.dtype.kind == "f":
            floats.append((j, values))
            template.append(NUMBER_FORMAT)
        else:
            texts.append((j, map(_cell, values, repeat(alone))))
            template.append("%s")
    row = ",".join(template) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(_cell(name, alone) for name in columns) + "\r\n")
        for start in count(0, _BLOCK):
            block = [(j, values[start:start + _BLOCK]) for j, values in floats]
            block += [(j, list(islice(cells, _BLOCK))) for j, cells in texts]
            k = min((len(part) for _, part in block), default=0)
            if k == 0:
                break
            table = np.empty((len(columns), k), object)
            for j, part in block:
                table[j] = part[:k]
            fh.write(row * k % tuple(table.T.ravel().tolist()))
            if k < _BLOCK:
                break


def read_table(path: str | Path) -> dict[str, list[str]]:
    """Read a table written by :func:`write_table`: name -> text cells."""
    with Path(path).open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def read_numbers(path: str | Path,
                 names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Read the number columns ``names``, by default every column, of a
    table written by :func:`write_table` with numpy's C reader: name ->
    values."""
    with Path(path).open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty table")
        names = header if names is None else list(names)
        for name in names:
            if name not in header:
                raise ValueError(f"{path}: missing column {name!r}")
        values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                            usecols=[header.index(name) for name in names])
    return dict(zip(names, values.T))


def master_timeline(tag: TagSeries) -> np.ndarray:
    """The analysis instants ``t0 + dt * [0..n)`` of ``tag``, with ``dt``
    the master period :data:`MASTER_DT`.

    The timeline starts at the first slow sample and is trimmed so that
    both the slow and IMU channels span every instant (no extrapolation
    downstream). Its time stamps must stay below ``1e6 * dt`` in
    magnitude: at that size the 9 significant digits of the artifacts no
    longer resolve ``dt / 100``.
    """
    dt = MASTER_DT
    if tag.n_slow < 2:
        raise IngestError("need at least 2 depth/speed samples")
    t0 = float(tag.t_slow[0])
    t_hi = float(tag.t_slow[-1])
    if tag.n_imu:
        t0 = max(t0, float(tag.t_imu[0]))
        t_hi = min(t_hi, float(tag.t_imu[-1]))
    t_max = max(abs(t0), abs(t_hi))
    if t_max >= 1e6 * dt:
        raise IngestError(
            f"time stamp {t_max:g} s is at or above the limit 1e6 * dt = "
            f"{1e6 * dt:g} s; t must count seconds from the start of the "
            f"recording")
    # Nudge t0 onto the slow grid so simulator fixtures resample exactly.
    k0 = math.ceil(round((t0 - tag.t_slow[0]) / dt, 9))
    t0 = float(tag.t_slow[0]) + k0 * dt
    n = int(math.floor(round((t_hi - t0) / dt, 9))) + 1
    if n < 3:
        raise IngestError("channel overlap too short for analysis")
    return t0 + dt * np.arange(n)


def resample_linear(t_src: np.ndarray, values: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
    """Linearly interpolate ``values`` onto the instants ``t``.

    Raises if ``t`` extends beyond the channel support; this module never
    extrapolates.
    """
    t_src = np.asarray(t_src, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(t_src) < 2:
        raise IngestError("resample needs at least 2 samples")
    eps = 1e-9
    if t[0] < t_src[0] - eps or t[-1] > t_src[-1] + eps:
        raise IngestError(
            f"timeline [{t[0]:g}, {t[-1]:g}] extends beyond channel "
            f"support [{t_src[0]:g}, {t_src[-1]:g}]")
    return np.interp(t, t_src, values)


def moving_average(values: np.ndarray, window_s: float, dt: float) -> np.ndarray:
    """Centered moving average with an odd window of ``round(window_s/dt)``.

    Near the edges the window shrinks symmetrically, so a linear ramp is a
    fixed point everywhere and the output always has the input's length.
    """
    if window_s <= 0.0:
        raise ValueError("window_s must be positive")
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        raise ValueError("empty channel")
    w = int(round(window_s / dt))
    if w % 2 == 0:
        w += 1
    half = w // 2
    if half == 0 or n == 1:
        return values.copy()
    csum = np.concatenate(([0.0], np.cumsum(values)))
    out = np.empty(n)
    out[half:n - half] = (csum[w:] - csum[:-w]) / w
    # The edges, where the window shrinks to 2 * k + 1 samples.
    idx = np.r_[:min(half, n), max(half, n - half):n]
    k = np.minimum(idx, n - 1 - idx)
    out[idx] = (csum[idx + k + 1] - csum[idx - k]) / (2 * k + 1)
    return out


def local_to_latlon(x: float | np.ndarray, y: float | np.ndarray,
                    origin: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Local tangent-plane meters (x east, y north) to WGS-84 degrees.

    Equirectangular projection about ``origin`` = (lat, lon): adequate at
    lagoon scale (sub-kilometer extents).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lat0, lon0 = origin
    lat = lat0 + np.degrees(y / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon
