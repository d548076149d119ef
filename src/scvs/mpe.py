"""Molecular pairing-energy descriptors.

For every atom pair of a molecule the pairing energy is E_ij = K q_i q_j /
r_ij from the partial charges and the interatomic distance; a compound is
described by its six highest positive and six lowest negative energies
(zero-padded when fewer exist): a (12,) float64 row, positives then
negatives.  Two such rows, crystal ligand first, feed the similarity
network after per-feature scaling into the bipolar range.

Inputs are mol2 atom blocks (charges precomputed upstream, e.g. by a force
field) or a flat csv-atoms table; no charge assignment happens here.
"""

from __future__ import annotations

import csv
import io
import math
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .ref_nn import json_array, placed, read_json, require_fields, write_csv, write_json

# Coulomb constant in kcal*Angstrom/(mol*e^2); only consistency matters here
# because features are rescaled before they reach a network.
DEFAULT_K = 332.0637

CACHE_COLUMNS = ["molecule_id"] + [f"p{i}" for i in range(1, 7)] + [f"n{i}" for i in range(1, 7)]
CSV_ATOM_COLUMNS = ["molecule_id", "element", "x", "y", "z", "charge"]


class MoleculeParseError(ValueError):
    """Malformed molecule input; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class MoleculeTable:
    """Molecules as one set of columns: ``ids``, one per molecule, and the
    ``offsets`` array, molecule i's atoms being rows ``offsets[i]:offsets[i +
    1]`` of the ``positions`` (n_atoms, 3) and ``charges`` (n_atoms,) float64
    arrays and of the ``elements`` list.  ``len()`` is the number of
    molecules.  Every molecule holds at least one atom and every value is
    finite: the parsers check each file's columns once, here nothing is
    checked."""

    __slots__ = ("ids", "offsets", "positions", "charges", "elements")

    def __init__(self, ids, offsets, positions, charges, elements):
        self.ids, self.offsets, self.positions = ids, offsets, positions
        self.charges, self.elements = charges, elements

    def __len__(self) -> int:
        return len(self.ids)


def descriptor_fault(values) -> str | None:
    """Why the 12 values, positives then negatives, are not a descriptor, or
    None if they are one: every value finite, the positives nonnegative and
    non-increasing, the negatives nonpositive and non-decreasing."""
    v = list(map(float, values))
    p, n = v[:6], v[6:]
    if not all(map(math.isfinite, v)):
        return "descriptor values must be finite"
    if p[5] < 0 or p != sorted(p, reverse=True):
        return "positives must be nonnegative and sorted descending"
    if n[5] > 0 or n != sorted(n):
        return "negatives must be nonpositive and sorted ascending"
    return None


def pairing_energy(m: MoleculeTable, i: int, j: int, k: float = DEFAULT_K) -> float:
    """E = K q_i q_j / r_ij for atoms i and j of the one-molecule table
    ``m``, one pair at a time."""
    (xi, yi, zi), (xj, yj, zj) = m.positions[i], m.positions[j]
    r = np.sqrt((xi - xj) ** 2 + (yi - yj) ** 2 + (zi - zj) ** 2)
    if r == 0.0:
        raise ValueError(f"atoms {i} and {j} are coincident; pairing energy undefined")
    return k * m.charges[i] * m.charges[j] / r


def mpe_vector(m: MoleculeTable, k: float = DEFAULT_K) -> np.ndarray:
    """Descriptor row of the one-molecule table ``m`` from all C(n,2)
    pairing energies.

    Strictly positive energies compete for the positive half, strictly
    negative for the negative half; exact zeros belong to neither.  Only
    values are kept, so the output depends only on the multiset of pair
    energies.  Coincident atoms, or a pair whose energy overflows to a
    non-finite value, raise ValueError naming the molecule and the atoms.
    """
    (v,) = mpe_vectors(m, k)
    if isinstance(v, ValueError):
        raise v
    return v


# Molecules of one atom count are described together, in chunks of about
# this many atom pairs: 64 molecules of 24 atoms, whose (3, chunk, pairs)
# temporaries stay near 2 MB, and never fewer than one molecule.
DESCRIPTOR_CHUNK_PAIRS = 64 * 276


def mpe_vectors(table: MoleculeTable, k: float = DEFAULT_K, index=None) -> list:
    """``mpe_vector`` of each molecule of the table, or of those at
    ``index``, in order; a molecule that fails gets the ValueError
    ``mpe_vector`` would raise in its slot instead."""
    index = np.arange(len(table)) if index is None else np.asarray(index, dtype=np.intp)
    out = [None] * len(index)
    sizes = np.diff(table.offsets)[index]
    for n in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == n)
        step = max(1, DESCRIPTOR_CHUNK_PAIRS // max(1, n * (n - 1) // 2))
        for s in range(0, len(members), step):
            chunk = members[s:s + step]
            for i, v in zip(chunk.tolist(), _describe(table, index[chunk], n, k)):
                out[i] = v
    return out


def _describe(table, members, n, k) -> list:
    """Descriptors (or ValueErrors) of the table's molecules ``members``,
    which hold n atoms each."""
    ii, jj = np.triu_indices(n, 1)
    rows = table.offsets[members][:, None] + np.arange(n)
    # Coordinate-major (3, m, n), so each pair gather is one take along
    # the last axis.
    pos = table.positions.T[:, rows]
    q = table.charges[rows]
    # Huge coordinates or charges overflow (inf, or inf/inf = nan), and
    # coincident atoms divide by zero; both are reported below instead of
    # as a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sq = np.take(pos, ii, axis=-1)
        sq -= np.take(pos, jj, axis=-1)
        sq *= sq
        # (dx² + dy²) + dz²: the order np.linalg.norm sums three values in
        d = np.sqrt((sq[0] + sq[1]) + sq[2])
        e = k * np.take(q, ii, axis=1) * np.take(q, jj, axis=1) / d
    coincident = d == 0.0
    bad = ~np.isfinite(e)
    positives, negatives = np.where(e > 0, e, 0.0), np.where(e < 0, e, 0.0)
    if len(ii) < 6:
        # Zero-pad to six pairs: unused slots are exactly +0.0.
        pad = np.zeros((len(members), 6 - len(ii)))
        positives, negatives = np.hstack([positives, pad]), np.hstack([negatives, pad])
    any_coincident = coincident.any(axis=1)
    failed = any_coincident | bad.any(axis=1)
    # Finite energies always give rows that pass ``_rows_valid``.
    out = list(np.hstack([_extremes(positives, largest=True),
                          _extremes(negatives, largest=False)])[~failed])
    for r in np.flatnonzero(failed).tolist():
        c = np.argmax(coincident[r] if any_coincident[r] else bad[r])
        why = ("are coincident; pairing energy undefined" if any_coincident[r]
               else "give a non-finite pairing energy")
        # ascending r: every earlier slot is already filled
        out.insert(r, ValueError(f"molecule {table.ids[members[r]]!r}: "
                                 f"atoms {ii[c]} and {jj[c]} {why}"))
    return out


def _rows_valid(values) -> bool:
    """Whether every row of an (n, 12) array is a descriptor by
    ``descriptor_fault``'s rule, tested on the whole array at once."""
    p, n = values[:, :6], values[:, 6:]
    return bool(np.isfinite(values).all() and (p[:, 5] >= 0).all() and (n[:, 5] <= 0).all()
                and (p[:, :-1] >= p[:, 1:]).all() and (n[:, :-1] <= n[:, 1:]).all())


def _extremes(x, largest: bool) -> np.ndarray:
    """The six largest values of each row of x, descending, or the six
    smallest, ascending."""
    w = x.shape[1]
    if w > 6:
        x = np.partition(x, w - 6 if largest else 5, axis=1)
        x = x[:, w - 6:] if largest else x[:, :6]
    x = np.sort(x, axis=1)
    return np.ascontiguousarray(x[:, ::-1]) if largest else x


def write_scatter_csv(path, entries) -> None:
    """(id, most positive, most negative) rows for external plotting, from
    (molecule_id, descriptor row) entries; 9 significant digits."""
    write_csv(path, chain([["molecule_id", "most_positive", "most_negative"]],
                          ([mol_id, format(v[0], ".9g"), format(v[6], ".9g")]
                           for mol_id, v in entries)))


def write_csv_atoms(path, tables) -> None:
    """The molecules of the tables, in order, as a csv-atoms file; 9
    significant digits."""
    tables = list(tables)
    atoms = [n for t in tables for n in np.diff(t.offsets).tolist()]
    ids = chain.from_iterable(map(repeat, chain.from_iterable(t.ids for t in tables), atoms))
    values = np.concatenate([np.empty((0, 4)),  # x, y, z, charge; also for no tables
                             *(np.column_stack([t.positions, t.charges]) for t in tables)])
    write_csv(path, chain([CSV_ATOM_COLUMNS], zip(
        ids, chain.from_iterable(t.elements for t in tables), *map(_format_column, values.T))))


def _format_column(values: np.ndarray) -> list:
    """``format(v, ".9g")`` of each value, computed once per distinct value;
    values are told apart by bit pattern, so -0.0 still writes -0."""
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([format(v, ".9g") for v in distinct.view(np.float64).tolist()], dtype=object)
    return texts[where].tolist()


# ---------------------------------------------------------------------------
# Parsers
#
# A csv-atoms file or descriptor cache that the csv module would read line
# by line as ``line.split(",")`` is read in one ``np.loadtxt`` pass
# (``_load_plain``), ids and elements as Python strings.  When loadtxt
# rejects such a file (a line of another field count, or a field it cannot
# convert) or the conversion does, it is split on commas line by line, an
# empty line holding no field, and every other file is read by the csv
# module; those rows, and a mol2 file's, are converted and finiteness-checked
# column by column (``_float_columns``).  Only when that finds a fault are
# the rows re-scanned one at a time (``_check_rows``), to raise the first
# fault in file order with its line, as a row-at-a-time reader would.
# Results and errors are the same on every path.


def parse_molecules(path) -> MoleculeTable:
    """Read molecules with charges as one table: a mol2 atom-block subset
    from a file whose name ends in ``.mol2``, in any case, and a csv-atoms
    table from any other file.  An empty file is an empty table, not an
    error."""
    if Path(path).suffix.lower() == ".mol2":
        return _parse_mol2(path)
    return _parse_csv_atoms(path)


_ATOM_FIELDS = ("x coordinate", "y coordinate", "z coordinate", "charge")


def _finite(value: str, what: str, path, line_no: int) -> float:
    try:
        v = float(value)
    except ValueError:
        raise MoleculeParseError(path, line_no, f"unparseable {what} {value!r}") from None
    if not math.isfinite(v):
        raise MoleculeParseError(path, line_no, f"non-finite {what} {value!r}")
    return v


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decoded(path, data: bytes, newline):
    """A text stream over the file's lines before its first undecodable
    one, and the MoleculeParseError for that line (else None).  The caller
    raises that error only after checking the rows read from the stream, so
    an earlier malformed row still wins."""
    fault = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:data.rfind(b"\n", 0, exc.start) + 1]
        fault = MoleculeParseError(path, data.count(b"\n") + 1,
                                   f"cannot decode as {exc.encoding}: {exc.reason}")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline), fault


def _plain(data: bytes) -> bool:
    """Whether the csv module reads each line of the file, if it decodes as
    UTF-8, as ``line.split(",")``: the file is not empty and holds no quote,
    NUL, byte in 0x1C-0x1F or CR outside a CRLF, and no line longer than
    ``csv.field_size_limit()`` bytes."""
    # A quote or NUL the csv module reads otherwise; numpy's float parser
    # strips 0x1C-0x1F as whitespace, where float() rejects them.
    if not data or any(map(data.__contains__, (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f"))):
        return False
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    crlf = np.count_nonzero(buf[ends[ends > 0] - 1] == ord("\r"))
    # a line runs from the byte after the previous line end to its own end,
    # or to the file's end
    return np.count_nonzero(buf == ord("\r")) == crlf \
        and np.diff(ends, prepend=-1, append=len(data)).max() - 1 <= csv.field_size_limit()


def _load_plain(data: bytes, width: int, n_text: int):
    """(lines, rows) of a plain file (``_plain``) that decodes as UTF-8,
    else None: its lines (a CRLF's CR kept) and one ``np.loadtxt`` pass over
    its data lines, fields "0" to n_text - 1 Python strings and "v" the rest
    float64.  ``rows`` is None without a data line, when loadtxt rejects a
    line (one of another field count) or a field, or for a non-finite
    value."""
    if not _plain(data):
        return None
    try:
        lines = data.decode("utf-8").removesuffix("\n").split("\n")
    except UnicodeDecodeError:
        return None
    # loadtxt skips empty lines, and warns of a file without data lines
    if not any(map(str.strip, islice(lines, 1, None))):
        return lines, None
    try:
        rows = np.loadtxt(lines, np.dtype([(str(j), object) for j in range(n_text)]
                                          + [("v", np.float64, width - n_text)]),
                          delimiter=",", comments=None, quotechar=None, skiprows=1, ndmin=1)
    except ValueError:
        return lines, None
    return lines, (rows if np.isfinite(rows["v"]).all() else None)


def _read_table(path, data: bytes, lines):
    """(header, rows, line_nos, stopped) of a csv file: header None if it is
    empty, the data rows with the line each starts on, and a
    MoleculeParseError for the decoding or csv error that ended them early
    (else None; see ``_decoded``).  A plain file's ``lines`` are split on
    commas; any other file is read by the csv module."""
    if lines is not None:
        # an empty line holds no field, as the csv module reads it
        rows = [line.removesuffix("\r").split(",") if line not in ("", "\r") else []
                for line in lines]
        return rows[0], rows[1:], range(2, len(rows) + 1), None
    text, stopped = _decoded(path, data, newline="")
    reader = csv.reader(text)
    rows, ends = [], []  # ends: the last line of each row
    try:
        for row in reader:
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:
        stopped = MoleculeParseError(path, reader.line_num, str(exc))
    return (rows.pop(0) if rows else None), rows, [e + 1 for e in ends[:-1]], stopped


def _row_columns(rows, width: int) -> list:
    """The fields of rows that all hold ``width`` of them, column by column;
    None if any row holds another number."""
    if list(map(len, rows)).count(width) != len(rows):
        return None
    return [list(map(itemgetter(c), rows)) for c in range(width)]


def _float_columns(columns, n: int):
    """(n, len(columns)) float64 array of the n fields of each column, each
    converted with float(); None if any is unparseable or not finite."""
    out = np.empty((n, len(columns)))
    try:
        for j, col in enumerate(columns):
            out[:, j] = np.fromiter(map(float, col), np.float64, n)
    except ValueError:
        return None
    return out if np.isfinite(out).all() else None


def _check_rows(path, line_nos, rows, cols, width=None) -> None:
    """Raise the first fault of the atom rows in file order: a column count
    other than ``width`` (when given), then an unparseable or non-finite
    x, y, z or charge field (``cols``)."""
    for line_no, row in zip(line_nos, rows):
        if width is not None and len(row) != width:
            raise MoleculeParseError(path, line_no, f"expected {width} columns, got {len(row)}")
        for c, what in zip(cols, _ATOM_FIELDS):
            _finite(row[c], what, path, line_no)


def _table(ids, offsets, values, elements) -> MoleculeTable:
    """The molecules ``ids`` over the (n, 4) x, y, z, charge array and the
    element list, molecule i on rows [offsets[i], offsets[i + 1]); rows
    before offsets[0] are dropped."""
    first = offsets[0]
    return MoleculeTable(ids, np.subtract(offsets, first), np.ascontiguousarray(values[first:, :3]),
                         values[first:, 3].copy(), elements[first:])


def _parse_mol2(path) -> MoleculeTable:
    blocks = []  # (name, index of the block's first atom row)
    line_nos, rows = [], []
    section = None
    expect_name = False
    fault = None

    def empty_block(line_no):
        # A block that already closed held atoms (else it failed), so an
        # empty last block is the open one.
        if blocks and blocks[-1][1] == len(rows):
            return MoleculeParseError(path, line_no, f"molecule {blocks[-1][0]!r} has no atoms")
        return None

    line_no = 0
    text, undecodable = _decoded(path, _read_bytes(path), newline=None)
    for line_no, raw in enumerate(text, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@<TRIPOS>"):
            section = line[len("@<TRIPOS>"):].upper()
            if section == "MOLECULE":
                fault = empty_block(line_no)
                if fault:
                    break
                expect_name = True
            continue
        if expect_name:
            blocks.append((line.split()[0], len(rows)))
            expect_name = False
            continue
        if section == "ATOM":
            fields = line.split()
            if len(fields) < 9:
                fault = MoleculeParseError(
                    path, line_no, f"atom record needs 9 fields, got {len(fields)}")
                break
            line_nos.append(line_no)
            rows.append(fields)
    else:
        # Past the decoded lines a block may still gain atoms.
        fault = undecodable or empty_block(line_no)
    cols = (2, 3, 4, 8)
    values = _float_columns([map(itemgetter(c), rows) for c in cols], len(rows))
    if values is None:
        _check_rows(path, line_nos, rows, cols)
    if fault is not None:
        raise fault
    # Atom records before the first named block belong to no molecule.
    return _table([name for name, _ in blocks], [s for _, s in blocks] + [len(rows)],
                  values, [f[5].split(".")[0] for f in rows])


def _read_csv(path, width: int, n_text: int, check_header, convert, keep, rescan):
    """``convert(*text, values)`` of a csv file's data rows: their first
    ``n_text`` columns as arrays, the rest as a checked float64 array.
    ``check_header(header)`` raises for a bad header.  A plain file is read
    in one pass (``_load_plain``).  Any other file, or one whose rows
    ``convert`` rejects with None, is read as the csv module reads it, blank
    rows (``keep(row)`` false) dropped, and converted again; if that fails
    too, ``rescan(path, line_nos, rows)`` raises the first fault in file
    order.  A decoding or csv error that ended the rows early comes last."""
    data = _read_bytes(path)
    lines, rows = _load_plain(data, width, n_text) or (None, None)
    if rows is not None:
        check_header(lines[0].removesuffix("\r").split(","))  # as the csv module reads it
        out = convert(*(rows[str(j)] for j in range(n_text)), rows["v"])
        if out is not None:
            return out
    header, rows, line_nos, stopped = _read_table(path, data, lines)
    if header is not None:
        check_header(header)
    kept = list(map(keep, rows))
    line_nos, rows = list(compress(line_nos, kept)), list(compress(rows, kept))
    columns = _row_columns(rows, width)
    values = columns and _float_columns(columns[n_text:], len(rows))
    out = None if values is None else convert(
        *(np.array(c, dtype=object) for c in columns[:n_text]), values)
    if out is None:
        rescan(path, line_nos, rows)
    if stopped is not None:
        raise stopped
    return out


def _parse_csv_atoms(path) -> MoleculeTable:
    def check_header(header):
        if [h.strip() for h in header] != CSV_ATOM_COLUMNS:
            raise MoleculeParseError(path, 1, f"header must be {','.join(CSV_ATOM_COLUMNS)}")

    width = len(CSV_ATOM_COLUMNS)
    return _read_csv(path, width, 2, check_header, _atom_table,
                     lambda row: "".join(row).strip(),
                     partial(_check_rows, cols=(2, 3, 4, 5), width=width))


def _atom_table(raw, elements, values) -> MoleculeTable:
    """The molecules of the csv-atoms rows, from their id and element
    columns and their x, y, z and charge values.  Rows group by id in order
    of first appearance, each molecule's rows in file order, so they need
    not be contiguous."""
    # Runs of one id: in the usual file each molecule is one run, and
    # comparing every id with its neighbour is the whole grouping.  Runs
    # split on the ids as written and join on the ids stripped.
    starts = np.flatnonzero(np.insert(raw[1:] != raw[:-1], 0, len(raw) > 0))
    offsets = starts.tolist() + [len(raw)]
    firsts = [mol_id.strip() for mol_id in raw[starts].tolist()]
    elements = list(map(str.strip, elements.tolist()))
    ids = list(dict.fromkeys(firsts))
    if len(ids) < len(firsts):
        group_of = {mol_id: g for g, mol_id in enumerate(ids)}
        group = np.repeat([group_of[mol_id] for mol_id in firsts], np.diff(offsets))
        order = np.argsort(group, kind="stable")
        values, elements = values[order], list(map(elements.__getitem__, order.tolist()))
        offsets = [0] + np.cumsum(np.bincount(group)).tolist()
    return _table(ids, offsets, values, elements)


# ---------------------------------------------------------------------------
# Descriptor cache


def write_descriptor_cache(path, entries) -> None:
    """entries: iterable of (molecule_id, descriptor row); 9 significant
    digits."""
    write_csv(path, chain([CACHE_COLUMNS], ([mol_id, *(format(v, ".9g") for v in row.tolist())]
                                            for mol_id, row in entries)))


def read_descriptor_cache(path) -> dict:
    """Descriptor rows by molecule id.  Every row must hold 13 fields that
    form a valid descriptor, and ids must be unique within the file; a
    malformed row raises MoleculeParseError naming the file and line."""
    def check_header(header):
        if header != CACHE_COLUMNS:
            raise MoleculeParseError(path, 1, "not a descriptor cache (bad header)")

    return _read_csv(path, len(CACHE_COLUMNS), 1, check_header, _cache_entries, len,
                     _check_cache_rows)


def _cache_entries(ids, values):
    """Descriptor rows by id, views of one (n, 12) array; None if an id
    repeats or a row is not a descriptor."""
    entries = dict(zip(ids.tolist(), np.ascontiguousarray(values)))
    return entries if len(entries) == len(values) and _rows_valid(values) else None


def _check_cache_rows(path, line_nos, rows) -> None:
    """Raise the first fault of the cache rows in file order; within a row:
    a repeated id, then an unparseable or non-finite value, then a field
    count other than 13, then a descriptor out of sign or order."""
    seen = set()
    for line_no, row in zip(line_nos, rows):
        if row[0] in seen:
            raise MoleculeParseError(path, line_no, f"duplicate molecule id {row[0]!r}")
        seen.add(row[0])
        vals = [_finite(v, "descriptor", path, line_no) for v in row[1:13]]
        if len(row) != len(CACHE_COLUMNS):
            raise MoleculeParseError(
                path, line_no,
                f"molecule {row[0]!r}: expected {len(CACHE_COLUMNS)} fields, got {len(row)}")
        fault = descriptor_fault(vals)
        if fault:
            raise MoleculeParseError(path, line_no, f"molecule {row[0]!r}: {fault}")


# ---------------------------------------------------------------------------
# Feature scaling into the bipolar input range


class FeatureScaler:
    """Per-feature affine map of the 24 paired descriptors onto [-1, 1],
    fitted on training rows; out-of-range inference values are clipped."""

    def __init__(self, mins, maxs):
        self.mins = np.asarray(mins, dtype=np.float64)
        self.maxs = np.asarray(maxs, dtype=np.float64)
        if self.mins.shape != (24,) or self.maxs.shape != (24,):
            raise ValueError("scaler expects 24 features")
        for name in ("mins", "maxs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"scaler {name} must be finite")
        with np.errstate(over="ignore"):  # an infinite span would scale rows to NaN
            if not np.isfinite(self.maxs - self.mins).all():
                raise ValueError("scaler span maxs - mins overflows")
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min in scaler parameters")

    @classmethod
    def fit(cls, rows: np.ndarray) -> "FeatureScaler":
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return cls(rows.min(axis=0), rows.max(axis=0))

    def transform(self, row: np.ndarray) -> np.ndarray:
        row = np.asarray(row, dtype=np.float64)
        span = self.maxs - self.mins
        safe = np.where(span == 0, 1.0, span)
        scaled = 2.0 * (row - self.mins) / safe - 1.0
        scaled = np.where(span == 0, 0.0, scaled)
        return np.clip(scaled, -1.0, 1.0)

    def save(self, path) -> None:
        write_json({"mins": list(self.mins), "maxs": list(self.maxs)}, path)

    @classmethod
    def load(cls, path) -> "FeatureScaler":
        doc = require_fields(read_json(path), {"mins": list, "maxs": list}, path)
        mins, maxs = (json_array(doc, name, np.float64, path) for name in ("mins", "maxs"))
        return placed(path, "", cls, mins, maxs)


def pair_features(ligand: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Raw 24-value network input: crystal ligand descriptors then candidate."""
    return np.concatenate([ligand, candidate])

