"""Molecular pairing-energy descriptors.

For every atom pair of a molecule the pairing energy is E_ij = K q_i q_j /
r_ij from the partial charges and the interatomic distance; a compound is
described by its six highest positive and six lowest negative energies
(zero-padded when fewer exist), a 12-value vector.  Two such vectors,
crystal ligand first, feed the similarity network after per-feature scaling
into the bipolar range.

Inputs are mol2 atom blocks (charges precomputed upstream, e.g. by a force
field) or a flat csv-atoms table; no charge assignment happens here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from .ref_nn import json_array, read_json, require_fields

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


@dataclass(frozen=True)
class Atom:
    charge: float
    x: float
    y: float
    z: float
    element: str = ""

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.charge, self.x, self.y, self.z)):
            raise ValueError("atom charge and coordinates must be finite")


class Molecule:
    """One molecule as columns in atom order: ``positions`` (n, 3) and
    ``charges`` (n,) float64 arrays, and an n-tuple of ``elements``.

    ``Molecule(id, atoms)`` builds one from ``Atom`` records; the parsers
    build from columns with ``from_arrays`` and create no per-atom objects.
    """

    __slots__ = ("id", "positions", "charges", "elements", "_atoms")

    def __init__(self, id: str, atoms):
        atoms = list(atoms)
        self._set(id, np.array([[a.x, a.y, a.z] for a in atoms], dtype=np.float64)
                  .reshape(len(atoms), 3),
                  np.array([a.charge for a in atoms], dtype=np.float64),
                  tuple(a.element for a in atoms))
        self._atoms = atoms

    @classmethod
    def from_arrays(cls, id: str, positions, charges, elements) -> "Molecule":
        """A molecule over the given columns.  Values are not checked for
        finiteness here: the parsers check each file's columns once."""
        m = cls.__new__(cls)
        m._set(id, positions, charges, tuple(elements))
        return m

    def _set(self, id, positions, charges, elements):
        self.id = id
        self.positions = np.asarray(positions, dtype=np.float64)
        self.charges = np.asarray(charges, dtype=np.float64)
        self.elements = elements
        self._atoms = None
        n = len(elements)
        if self.positions.shape != (n, 3) or self.charges.shape != (n,):
            raise ValueError(f"molecule {id!r}: columns must hold one row per atom")
        if not n:
            raise ValueError(f"molecule {id!r} has no atoms")

    @property
    def atoms(self) -> list:
        """``Atom`` records, derived from the columns on first access."""
        if self._atoms is None:
            self._atoms = [Atom(q, x, y, z, e) for (x, y, z), q, e in zip(
                self.positions.tolist(), self.charges.tolist(), self.elements)]
        return self._atoms


@dataclass(frozen=True)
class MpeVector:
    """Six highest positive energies (descending) and six lowest negative
    energies (ascending); unused slots are exactly zero.  Every value is
    finite."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.positives, dtype=np.float64)
        n = np.asarray(self.negatives, dtype=np.float64)
        if p.shape != (6,) or n.shape != (6,):
            raise ValueError("descriptor halves must hold six values each")
        # Plain-list comparisons: this runs once per cached or computed vector.
        pl, nl = p.tolist(), n.tolist()
        if not all(map(math.isfinite, pl + nl)):
            raise ValueError("descriptor values must be finite")
        if pl[5] < 0 or pl != sorted(pl, reverse=True):
            raise ValueError("positives must be nonnegative and sorted descending")
        if nl[5] > 0 or nl != sorted(nl):
            raise ValueError("negatives must be nonpositive and sorted ascending")
        object.__setattr__(self, "positives", p)
        object.__setattr__(self, "negatives", n)

    @property
    def features(self) -> np.ndarray:
        """The 12 values in network order: positives then negatives."""
        return np.concatenate([self.positives, self.negatives])

    @property
    def most_positive(self) -> float:
        return float(self.positives[0])

    @property
    def most_negative(self) -> float:
        return float(self.negatives[0])


def pairing_energy(a: Atom, b: Atom, k: float = DEFAULT_K, indices=None) -> float:
    """E = K q_a q_b / r for one atom pair."""
    r = np.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
    if r == 0.0:
        where = f"atoms {indices[0]} and {indices[1]}" if indices else "two atoms"
        raise ValueError(f"{where} are coincident; pairing energy undefined")
    return k * a.charge * b.charge / r


def mpe_vector(m: Molecule, k: float = DEFAULT_K) -> MpeVector:
    """Descriptor of one molecule from all C(n,2) pairing energies.

    Strictly positive energies compete for the positive half, strictly
    negative for the negative half; exact zeros belong to neither.  Ties
    break on (energy, lower atom index, higher atom index) so the result is
    deterministic under reordering-stable input.  A pair whose energy
    overflows to a non-finite value raises ValueError naming the molecule.
    """
    n = len(m.charges)
    if n == 1:
        return MpeVector(np.zeros(6), np.zeros(6))
    pos, q = m.positions, m.charges
    ii, jj = np.triu_indices(n, 1)
    # Huge coordinates or charges overflow (inf, or inf/inf = nan); the
    # finiteness check below reports them instead of a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(pos[ii] - pos[jj], axis=1)
        coincident = np.nonzero(d == 0.0)[0]
        if coincident.size:
            c = coincident[0]
            raise ValueError(
                f"molecule {m.id!r}: atoms {ii[c]} and {jj[c]} are coincident; "
                "pairing energy undefined")
        e = k * q[ii] * q[jj] / d
    bad = np.nonzero(~np.isfinite(e))[0]
    if bad.size:
        c = bad[0]
        raise ValueError(
            f"molecule {m.id!r}: atoms {ii[c]} and {jj[c]} give a non-finite "
            "pairing energy")

    def top(mask, ascending):
        idx = np.nonzero(mask)[0]
        keys = e[idx] if ascending else -e[idx]
        order = idx[np.lexsort((jj[idx], ii[idx], keys))][:6]
        out = np.zeros(6)
        out[: len(order)] = e[order]
        return out

    return MpeVector(top(e > 0, ascending=False), top(e < 0, ascending=True))


def emit_scatter(entries):
    """(id, most positive, most negative) rows for external plotting, from
    (molecule_id, MpeVector) entries."""
    return [(mol_id, v.most_positive, v.most_negative) for mol_id, v in entries]


def write_scatter_csv(path, entries) -> None:
    """entries: iterable of (molecule_id, MpeVector); 9 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["molecule_id", "most_positive", "most_negative"])
        for mol_id, hi, lo in emit_scatter(entries):
            w.writerow([mol_id, format(hi, ".9g"), format(lo, ".9g")])


# ---------------------------------------------------------------------------
# Parsers
#
# Each reader tokenizes a whole file, then converts and finiteness-checks
# its numeric columns in one pass (``_float_columns``).  Only when that pass
# finds a fault are the rows re-scanned one at a time (``_check_rows``), to
# raise the first fault in file order with its line, as a row-at-a-time
# reader would.


def parse_molecules(path, format: str) -> list:
    """Read molecules with charges from a mol2 atom-block subset or a
    csv-atoms table.  An empty file is an empty list, not an error."""
    if format == "mol2-subset":
        return _parse_mol2(path)
    if format == "csv-atoms":
        return _parse_csv_atoms(path)
    raise ValueError(f"unknown molecule format {format!r}")


_ATOM_FIELDS = ("x coordinate", "y coordinate", "z coordinate", "charge")


def _finite(value: str, what: str, path, line_no: int) -> float:
    try:
        v = float(value)
    except ValueError:
        raise MoleculeParseError(path, line_no, f"unparseable {what} {value!r}") from None
    if not math.isfinite(v):
        raise MoleculeParseError(path, line_no, f"non-finite {what} {value!r}")
    return v


def _decoded(path, newline):
    """A text stream over the file's lines before its first undecodable
    one, and the MoleculeParseError for that line (else None).  The caller
    raises that error only after checking the rows read from the stream, so
    an earlier malformed row still wins."""
    with open(path, "rb") as fh:
        data = fh.read()
    fault = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:data.rfind(b"\n", 0, exc.start) + 1]
        fault = MoleculeParseError(path, data.count(b"\n") + 1,
                                   f"cannot decode as {exc.encoding}: {exc.reason}")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline), fault


def _read_rows(path):
    """Every csv row of the file, and a MoleculeParseError for the decoding
    or csv error that ended it early (else None); see ``_decoded``."""
    text, fault = _decoded(path, newline="")
    reader = csv.reader(text)
    out = []
    try:
        out.extend(reader)
    except csv.Error as exc:
        return out, MoleculeParseError(path, reader.line_num, str(exc))
    return out, fault


def _float_columns(rows, cols):
    """(len(rows), len(cols)) float64 array of the given fields of every
    row, each converted with float(); None if any is unparseable or not
    finite."""
    out = np.empty((len(rows), len(cols)))
    try:
        for j, c in enumerate(cols):
            out[:, j] = np.fromiter(map(float, map(itemgetter(c), rows)), np.float64, len(rows))
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


def _molecules(ids, starts, ends, values, elements) -> list:
    """One molecule per id over rows [start, end) of the (n, 4) x, y, z,
    charge array and the element list."""
    pos = np.ascontiguousarray(values[:, :3])
    q = values[:, 3].copy()
    return [Molecule.from_arrays(mol_id, pos[s:e], q[s:e], elements[s:e])
            for mol_id, s, e in zip(ids, starts, ends)]


def _parse_mol2(path) -> list:
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
    text, undecodable = _decoded(path, newline=None)
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
    values = _float_columns(rows, cols)
    if values is None:
        _check_rows(path, line_nos, rows, cols)
    if fault is not None:
        raise fault
    # Atom records before the first named block belong to no molecule.
    starts = [s for _, s in blocks]
    return _molecules([name for name, _ in blocks], starts, starts[1:] + [len(rows)],
                      values, [f[5].split(".")[0] for f in rows])


def _parse_csv_atoms(path) -> list:
    rows, stopped = _read_rows(path)
    if not rows:
        if stopped is not None:
            raise stopped
        return []
    if [h.strip() for h in rows.pop(0)] != CSV_ATOM_COLUMNS:
        raise MoleculeParseError(path, 1, f"header must be {','.join(CSV_ATOM_COLUMNS)}")
    line_nos = range(2, len(rows) + 2)
    nonblank = list(map(str.strip, map("".join, rows)))
    if not all(nonblank):
        line_nos = list(compress(line_nos, nonblank))
        rows = list(compress(rows, nonblank))
    cols = (2, 3, 4, 5)
    values = None
    if list(map(len, rows)).count(6) == len(rows):
        values = _float_columns(rows, cols)
    if values is None:
        _check_rows(path, line_nos, rows, cols, width=6)
    if stopped is not None:
        raise stopped
    # Group rows by id in order of first appearance; the stable sort keeps
    # file order within a molecule, so its rows need not be contiguous.
    ids = list(map(str.strip, map(itemgetter(0), rows)))
    group_of = dict.fromkeys(ids)
    for g, mol_id in enumerate(group_of):
        group_of[mol_id] = g
    group = np.fromiter(map(group_of.__getitem__, ids), np.intp, len(ids))
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=len(group_of))).tolist()
    elements = list(map(str.strip, map(itemgetter(1), rows)))
    return _molecules(list(group_of), [0] + ends[:-1], ends, values[order],
                      [elements[i] for i in order.tolist()])


# ---------------------------------------------------------------------------
# Descriptor cache


def write_descriptor_cache(path, entries) -> None:
    """entries: iterable of (molecule_id, MpeVector); 9 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CACHE_COLUMNS)
        for mol_id, vec in entries:
            w.writerow([mol_id] + [format(v, ".9g") for v in vec.features])


def read_descriptor_cache(path) -> dict:
    """Descriptor vectors by molecule id.  Every row must hold 13 fields that
    form a valid descriptor, and ids must be unique within the file; a
    malformed row raises MoleculeParseError naming the file and line."""
    rows, stopped = _read_rows(path)
    if not rows:
        if stopped is not None:
            raise stopped
        return {}
    if rows.pop(0) != CACHE_COLUMNS:
        raise MoleculeParseError(path, 1, "not a descriptor cache (bad header)")
    line_nos = range(2, len(rows) + 2)
    if not all(rows):
        line_nos = list(compress(line_nos, rows))
        rows = list(filter(None, rows))
    ids = list(map(itemgetter(0), rows))
    width = len(CACHE_COLUMNS)
    out = values = None
    if list(map(len, rows)).count(width) == len(rows) and len(set(ids)) == len(ids):
        values = _float_columns(rows, range(1, width))
    if values is not None:
        try:
            out = {mol_id: MpeVector(v[:6], v[6:]) for mol_id, v in zip(ids, values)}
        except ValueError:
            pass  # a descriptor out of sign or order: re-scanned below
    if out is None:
        _check_cache_rows(path, line_nos, rows)
    if stopped is not None:
        raise stopped
    return out


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
        try:
            MpeVector(np.array(vals[:6]), np.array(vals[6:]))
        except ValueError as exc:
            raise MoleculeParseError(path, line_no, f"molecule {row[0]!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Feature scaling into the bipolar input range


class FeatureScaler:
    """Per-feature affine map of the 24 paired descriptors onto [-1, 1],
    fitted on training rows; out-of-range inference values are clipped."""

    def __init__(self, mins=None, maxs=None):
        self.mins = None if mins is None else np.asarray(mins, dtype=np.float64)
        self.maxs = None if maxs is None else np.asarray(maxs, dtype=np.float64)
        if (self.mins is None) != (self.maxs is None):
            raise ValueError("mins and maxs must be given together")
        if self.mins is not None:
            self._check()

    def _check(self):
        if self.mins.shape != (24,) or self.maxs.shape != (24,):
            raise ValueError("scaler expects 24 features")
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min in scaler parameters")

    @property
    def fitted(self) -> bool:
        return self.mins is not None

    def fit(self, rows: np.ndarray) -> "FeatureScaler":
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != 24:
            raise ValueError("scaler expects 24 features")
        self.mins = rows.min(axis=0)
        self.maxs = rows.max(axis=0)
        return self

    def transform(self, row: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise ValueError("scaler is not fitted")
        row = np.asarray(row, dtype=np.float64)
        span = self.maxs - self.mins
        safe = np.where(span == 0, 1.0, span)
        scaled = 2.0 * (row - self.mins) / safe - 1.0
        scaled = np.where(span == 0, 0.0, scaled)
        return np.clip(scaled, -1.0, 1.0)

    def save(self, path) -> None:
        if not self.fitted:
            raise ValueError("scaler is not fitted")
        with open(path, "w") as fh:
            json.dump({"mins": list(self.mins), "maxs": list(self.maxs)}, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FeatureScaler":
        doc = require_fields(read_json(path), {"mins": list, "maxs": list}, path)
        mins, maxs = (json_array(doc, name, np.float64, path) for name in ("mins", "maxs"))
        try:
            return cls(mins, maxs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def pair_features(ligand: MpeVector, candidate: MpeVector) -> np.ndarray:
    """Raw 24-value network input: crystal ligand descriptors then candidate."""
    return np.concatenate([ligand.features, candidate.features])

