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
import json
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class Molecule:
    id: str
    atoms: list

    def __post_init__(self):
        if not self.atoms:
            raise ValueError(f"molecule {self.id!r} has no atoms")

    def positions(self) -> np.ndarray:
        return np.array([[a.x, a.y, a.z] for a in self.atoms])

    def charges(self) -> np.ndarray:
        return np.array([a.charge for a in self.atoms])


@dataclass(frozen=True)
class MpeVector:
    """Six highest positive energies (descending) and six lowest negative
    energies (ascending); unused slots are exactly zero."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.positives, dtype=np.float64)
        n = np.asarray(self.negatives, dtype=np.float64)
        if p.shape != (6,) or n.shape != (6,):
            raise ValueError("descriptor halves must hold six values each")
        if np.any(p < 0) or np.any(np.diff(p) > 0):
            raise ValueError("positives must be nonnegative and sorted descending")
        if np.any(n > 0) or np.any(np.diff(n) < 0):
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
    deterministic under reordering-stable input.
    """
    n = len(m.atoms)
    if n == 1:
        return MpeVector(np.zeros(6), np.zeros(6))
    pos = m.positions()
    q = m.charges()
    ii, jj = np.triu_indices(n, 1)
    d = np.linalg.norm(pos[ii] - pos[jj], axis=1)
    coincident = np.nonzero(d == 0.0)[0]
    if coincident.size:
        c = coincident[0]
        raise ValueError(
            f"molecule {m.id!r}: atoms {ii[c]} and {jj[c]} are coincident; "
            "pairing energy undefined")
    e = k * q[ii] * q[jj] / d

    def top(mask, ascending):
        idx = np.nonzero(mask)[0]
        keys = e[idx] if ascending else -e[idx]
        order = idx[np.lexsort((jj[idx], ii[idx], keys))][:6]
        out = np.zeros(6)
        out[: len(order)] = e[order]
        return out

    return MpeVector(top(e > 0, ascending=False), top(e < 0, ascending=True))


def emit_scatter(molecules, k: float = DEFAULT_K):
    """(id, most positive, most negative) rows for external plotting."""
    rows = []
    for m in molecules:
        v = mpe_vector(m, k)
        rows.append((m.id, v.most_positive, v.most_negative))
    return rows


def write_scatter_csv(path, molecules, k: float = DEFAULT_K) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["molecule_id", "most_positive", "most_negative"])
        for mol_id, hi, lo in emit_scatter(molecules, k):
            w.writerow([mol_id, format(hi, ".9g"), format(lo, ".9g")])


# ---------------------------------------------------------------------------
# Parsers


def parse_molecules(path, format: str) -> list:
    """Read molecules with charges from a mol2 atom-block subset or a
    csv-atoms table.  An empty file is an empty list, not an error."""
    if format == "mol2-subset":
        return _parse_mol2(path)
    if format == "csv-atoms":
        return _parse_csv_atoms(path)
    raise ValueError(f"unknown molecule format {format!r}")


def _finite(value: str, what: str, path, line_no: int) -> float:
    try:
        v = float(value)
    except ValueError:
        raise MoleculeParseError(path, line_no, f"unparseable {what} {value!r}") from None
    if not np.isfinite(v):
        raise MoleculeParseError(path, line_no, f"non-finite {what} {value!r}")
    return v


def _parse_mol2(path) -> list:
    molecules = []
    name = None
    atoms: list = []
    section = None
    expect_name = False

    def flush(line_no):
        nonlocal name, atoms
        if name is not None:
            if not atoms:
                raise MoleculeParseError(path, line_no, f"molecule {name!r} has no atoms")
            molecules.append(Molecule(name, atoms))
        name, atoms = None, []

    line_no = 0
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("@<TRIPOS>"):
                section = line[len("@<TRIPOS>"):].upper()
                if section == "MOLECULE":
                    flush(line_no)
                    expect_name = True
                continue
            if expect_name:
                name = line.split()[0]
                expect_name = False
                continue
            if section == "ATOM":
                fields = line.split()
                if len(fields) < 9:
                    raise MoleculeParseError(
                        path, line_no, f"atom record needs 9 fields, got {len(fields)}")
                x = _finite(fields[2], "x coordinate", path, line_no)
                y = _finite(fields[3], "y coordinate", path, line_no)
                z = _finite(fields[4], "z coordinate", path, line_no)
                charge = _finite(fields[8], "charge", path, line_no)
                element = fields[5].split(".")[0]
                atoms.append(Atom(charge, x, y, z, element))
        flush(line_no)
    return molecules


def _parse_csv_atoms(path) -> list:
    molecules: dict[str, list] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if [h.strip() for h in header] != CSV_ATOM_COLUMNS:
            raise MoleculeParseError(
                path, 1, f"header must be {','.join(CSV_ATOM_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 6:
                raise MoleculeParseError(path, line_no, f"expected 6 columns, got {len(row)}")
            mol_id, element = row[0].strip(), row[1].strip()
            x = _finite(row[2], "x coordinate", path, line_no)
            y = _finite(row[3], "y coordinate", path, line_no)
            z = _finite(row[4], "z coordinate", path, line_no)
            charge = _finite(row[5], "charge", path, line_no)
            if mol_id not in molecules:
                molecules[mol_id] = []
                order.append(mol_id)
            molecules[mol_id].append(Atom(charge, x, y, z, element))
    return [Molecule(mol_id, molecules[mol_id]) for mol_id in order]


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
    """Descriptor vectors by molecule id; ids must be unique within the file."""
    out: dict[str, MpeVector] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return out
        if header != CACHE_COLUMNS:
            raise MoleculeParseError(path, 1, "not a descriptor cache (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if row[0] in out:
                raise MoleculeParseError(path, line_no, f"duplicate molecule id {row[0]!r}")
            vals = [_finite(v, "descriptor", path, line_no) for v in row[1:13]]
            out[row[0]] = MpeVector(np.array(vals[:6]), np.array(vals[6:]))
    return out


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
        with open(path) as fh:
            doc = json.load(fh)
        return cls(doc["mins"], doc["maxs"])


def pair_features(ligand: MpeVector, candidate: MpeVector) -> np.ndarray:
    """Raw 24-value network input: crystal ligand descriptors then candidate."""
    return np.concatenate([ligand.features, candidate.features])


def scale_features(scaler: FeatureScaler, ligand: MpeVector, candidate: MpeVector) -> np.ndarray:
    """Scaled 24-value input in [-1, 1]."""
    return scaler.transform(pair_features(ligand, candidate))
