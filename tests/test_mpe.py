"""Descriptor pipeline tests: pairing energies against brute force, parser
fixtures, feature scaling."""

import csv
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from scvs import mpe
from scvs.mpe import (
    FeatureScaler,
    Molecule,
    MoleculeParseError,
    MpeVector,
    mpe_vector,
    pairing_energy,
    parse_molecules,
)

DATA = Path(__file__).parent / "data"


def brute_force_vector(m: Molecule, k: float = mpe.DEFAULT_K) -> MpeVector:
    """Materialize every pair energy, sort, take the extremes."""
    energies = []
    for i, j in itertools.combinations(range(len(m.charges)), 2):
        energies.append((pairing_energy(m, i, j, k), i, j))
    pos = sorted([e for e in energies if e[0] > 0], key=lambda t: (-t[0], t[1], t[2]))[:6]
    neg = sorted([e for e in energies if e[0] < 0], key=lambda t: (t[0], t[1], t[2]))[:6]
    p = np.zeros(6)
    n = np.zeros(6)
    p[: len(pos)] = [e[0] for e in pos]
    n[: len(neg)] = [e[0] for e in neg]
    return MpeVector(p, n)


def random_molecule(rng, max_atoms=12) -> Molecule:
    n = int(rng.integers(1, max_atoms + 1))
    # per atom: its charge, then x, y, z
    rows = np.array([[rng.normal(0, 0.5), *rng.uniform(-5, 5, 3)] for _ in range(n)])
    return Molecule("rnd", rows[:, 1:], rows[:, 0], ("C",) * n)


class TestPairingEnergy:
    def test_unit_distance_opposite_charges(self):
        m = Molecule("p", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5], "CC")
        assert pairing_energy(m, 0, 1, k=1.0) == -0.25

    def test_coulomb_constant_hand_arithmetic(self):
        m = Molecule("p", [[0, 0, 0], [0, 0, 2]], [1.0, 1.0], "CC")
        assert pairing_energy(m, 0, 1) == pytest.approx(166.03185)

    def test_zero_charge_yields_zero(self):
        m = Molecule("p", [[0, 0, 0], [1, 1, 1]], [0.0, 0.7], "CC")
        assert pairing_energy(m, 0, 1, k=1.0) == 0.0

    def test_coincident_atoms_named(self):
        positions = np.arange(30.0).reshape(10, 3)
        positions[9] = positions[4]
        m = Molecule("c", positions, np.full(10, 0.1), "C" * 10)
        with pytest.raises(ValueError, match="atoms 4 and 9"):
            pairing_energy(m, 4, 9)


class TestMpeVector:
    def test_two_atom_negative_pair(self):
        m = Molecule("p", [[0, 0, 0], [1, 0, 0]], [1.0, -1.0], "CC")
        v = mpe_vector(m, k=1.0)
        assert v.positives.tolist() == [0.0] * 6
        assert v.negatives.tolist() == [-1.0, 0, 0, 0, 0, 0]

    def test_square_matches_brute_force(self):
        m = Molecule("sq", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                     [0.5, -0.5, 0.5, -0.5], "CCCC")
        v = mpe_vector(m, k=1.0)
        b = brute_force_vector(m, k=1.0)
        np.testing.assert_allclose(v.features, b.features)
        # 4 edges at -0.25, two diagonals at +0.25/sqrt(2)
        np.testing.assert_allclose(v.negatives[:4], [-0.25] * 4)
        np.testing.assert_allclose(v.positives[:2], [0.25 / np.sqrt(2)] * 2)

    def test_single_atom_all_zero(self):
        v = mpe_vector(Molecule("x", [[0, 0, 0]], [0.4], "C"))
        assert not v.features.any()

    def test_brute_force_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_molecule(rng)
            np.testing.assert_allclose(
                mpe_vector(m).features, brute_force_vector(m).features, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_molecule(rng, max_atoms=9)
            perm = rng.permutation(len(m.charges))
            shuffled = Molecule(m.id, m.positions[perm], m.charges[perm],
                                [m.elements[i] for i in perm])
            np.testing.assert_allclose(
                mpe_vector(m).features, mpe_vector(shuffled).features, atol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_molecule(rng, max_atoms=9)
            # random rotation via QR, plus a translation
            qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            shift = rng.uniform(-10, 10, 3)
            moved = Molecule(m.id, m.positions @ qmat.T + shift, m.charges, m.elements)
            np.testing.assert_allclose(
                mpe_vector(m).features, mpe_vector(moved).features, atol=1e-9)

    def test_charge_scaling_law(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_molecule(rng, max_atoms=8)
            c = 2.5
            scaled = Molecule(m.id, m.positions, m.charges * c, m.elements)
            np.testing.assert_allclose(
                mpe_vector(scaled).features, c ** 2 * mpe_vector(m).features, atol=1e-9)

    def test_overflowing_energy_names_molecule(self):
        m = Molecule("big", [[0, 0, 0], [1, 0, 0]], [1e200, 1e200], "CC")
        with pytest.raises(ValueError, match="'big': atoms 0 and 1 give a non-finite"):
            mpe_vector(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        p = np.array([bad, 0, 0, 0, 0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            MpeVector(p, np.zeros(6))
        with pytest.raises(ValueError, match="finite"):
            MpeVector(np.zeros(6), -p)

    def test_coincident_atoms_error_names_indices(self):
        m = Molecule("bad", [[0, 0, 0], [0, 0, 0]], [0.1, 0.2], "CC")
        with pytest.raises(ValueError, match="atoms 0 and 1"):
            mpe_vector(m)


class TestParsers:
    def test_mol2_fixture_two_molecules(self):
        mols = parse_molecules(DATA / "fixture.mol2", "mol2-subset")
        assert [m.id for m in mols] == ["ethanol_frag", "salt_pair"]
        assert [len(m.charges) for m in mols] == [3, 2]
        assert mols[0].charges[1] == pytest.approx(-0.3856)
        assert mols[1].elements[1] == "Cl"

    def test_empty_file_is_empty_list(self, tmp_path):
        p = tmp_path / "empty.mol2"
        p.write_text("")
        assert parse_molecules(p, "mol2-subset") == []
        q = tmp_path / "empty.csv"
        q.write_text("")
        assert parse_molecules(q, "csv-atoms") == []

    def test_csv_fixture(self):
        mols = parse_molecules(DATA / "fixture_atoms.csv", "csv-atoms")
        assert [m.id for m in mols] == ["pair_neg", "square", "lone", "triangle", "chain"]
        assert [len(m.charges) for m in mols] == [2, 4, 1, 3, 4]

    def test_nan_charge_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("molecule_id,element,x,y,z,charge\nm1,C,0,0,0,NaN\n")
        with pytest.raises(MoleculeParseError, match="bad.csv:2"):
            parse_molecules(p, "csv-atoms")

    def test_short_mol2_atom_record_rejected(self, tmp_path):
        p = tmp_path / "bad.mol2"
        p.write_text("@<TRIPOS>MOLECULE\nm\n@<TRIPOS>ATOM\n1 C 0.0 0.0\n")
        with pytest.raises(MoleculeParseError, match="bad.mol2:4"):
            parse_molecules(p, "mol2-subset")

    def test_missing_charge_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("molecule_id,element,x,y,z\nm1,C,0,0,0\n")
        with pytest.raises(MoleculeParseError, match="header"):
            parse_molecules(p, "csv-atoms")

    def test_empty_or_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="has no atoms"):
            Molecule("e", np.zeros((0, 3)), np.zeros(0), ())
        with pytest.raises(ValueError, match="one row per atom"):
            Molecule("r", np.zeros((2, 3)), np.zeros(3), ("C", "C"))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_molecules(DATA / "fixture.mol2", "sdf")


class TestScatter:
    def test_two_atom_pair_row(self, tmp_path):
        m = Molecule("p", [[0, 0, 0], [1, 0, 0]], [1.0, -1.0], "CC")
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, [(m.id, mpe_vector(m, k=1.0))])
        assert path.read_text().splitlines()[1:] == ["p,0,-1"]

    def test_empty_input_header_only(self, tmp_path):
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, [])
        assert path.read_text().strip() == "molecule_id,most_positive,most_negative"

    def test_fixture_rows_match_vectors(self, tmp_path):
        mols = parse_molecules(DATA / "fixture_atoms.csv", "csv-atoms")
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, [(m.id, mpe_vector(m)) for m in mols])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 5
        for (mol_id, hi, lo), m in zip(rows, mols):
            v = mpe_vector(m)
            assert (mol_id, hi, lo) == (m.id, format(v.most_positive, ".9g"),
                                        format(v.most_negative, ".9g"))


class TestDescriptorCache:
    def test_round_trip_9_sig_digits(self, tmp_path):
        mols = parse_molecules(DATA / "fixture_atoms.csv", "csv-atoms")
        entries = [(m.id, mpe_vector(m)) for m in mols]
        path = tmp_path / "cache.csv"
        mpe.write_descriptor_cache(path, entries)
        back = mpe.read_descriptor_cache(path)
        assert set(back) == {m.id for m in mols}
        for mol_id, vec in entries:
            np.testing.assert_allclose(back[mol_id].features, vec.features,
                                       rtol=1e-8, atol=1e-12)


class TestFeatureScaler:
    def _fitted(self):
        rows = np.vstack([np.arange(24.0), np.arange(24.0) + 10.0])
        return FeatureScaler().fit(rows)

    def test_min_maps_to_minus_one_max_to_plus_one(self):
        s = self._fitted()
        np.testing.assert_allclose(s.transform(s.mins), -1.0)
        np.testing.assert_allclose(s.transform(s.maxs), 1.0)

    def test_midpoint_maps_to_zero(self):
        s = self._fitted()
        np.testing.assert_allclose(s.transform((s.mins + s.maxs) / 2), 0.0)

    def test_out_of_range_clipped(self):
        s = self._fitted()
        np.testing.assert_allclose(s.transform(s.maxs * 2 + 1), 1.0)

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            FeatureScaler().transform(np.zeros(24))

    def test_constant_feature_maps_to_zero(self):
        rows = np.ones((3, 24))
        s = FeatureScaler().fit(rows)
        np.testing.assert_allclose(s.transform(np.ones(24)), 0.0)

    @pytest.mark.parametrize("doc", [{"mins": [0.0] * 24},
                                     {"mins": [0.0] * 23, "maxs": [1.0] * 23},
                                     {"mins": {}, "maxs": {}}])
    def test_load_malformed_names_file(self, tmp_path, doc):
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{path}: "):
            FeatureScaler.load(path)

    def test_json_round_trip(self, tmp_path):
        s = self._fitted()
        path = tmp_path / "scaler.json"
        s.save(path)
        loaded = FeatureScaler.load(path)
        x = np.linspace(-3, 40, 24)
        np.testing.assert_array_equal(s.transform(x), loaded.transform(x))


# ---------------------------------------------------------------------------
# Differential parser tests: the columnar readers against row-at-a-time
# reference readers kept here as the oracle.  Molecules compare as
# (id, positions bytes, charges bytes, elements); faults by their full text.

_XYZQ = ("x coordinate", "y coordinate", "z coordinate", "charge")


def _ref_finite(value, what, path, line_no):
    try:
        v = float(value)
    except ValueError:
        raise MoleculeParseError(path, line_no, f"unparseable {what} {value!r}") from None
    if not np.isfinite(v):
        raise MoleculeParseError(path, line_no, f"non-finite {what} {value!r}")
    return v


def _ref_molecule(mol_id, atoms):
    """atoms: list of (element, [x, y, z, charge])."""
    pos = np.array([a[1][:3] for a in atoms], dtype=np.float64)
    q = np.array([a[1][3] for a in atoms], dtype=np.float64)
    return (mol_id, pos.tobytes(), q.tobytes(), tuple(a[0] for a in atoms))


def reference_csv_atoms(path):
    molecules: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != mpe.CSV_ATOM_COLUMNS:
            raise MoleculeParseError(
                path, 1, f"header must be {','.join(mpe.CSV_ATOM_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != 6:
                raise MoleculeParseError(path, line_no, f"expected 6 columns, got {len(row)}")
            vals = [_ref_finite(v, w, path, line_no) for v, w in zip(row[2:], _XYZQ)]
            molecules.setdefault(row[0].strip(), []).append((row[1].strip(), vals))
    return [_ref_molecule(mol_id, atoms) for mol_id, atoms in molecules.items()]


def reference_mol2(path):
    molecules, name, atoms, section, expect_name = [], None, [], None, False

    def flush(line_no):
        nonlocal name, atoms
        if name is not None:
            if not atoms:
                raise MoleculeParseError(path, line_no, f"molecule {name!r} has no atoms")
            molecules.append(_ref_molecule(name, atoms))
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
                name, expect_name = line.split()[0], False
                continue
            if section == "ATOM":
                f = line.split()
                if len(f) < 9:
                    raise MoleculeParseError(
                        path, line_no, f"atom record needs 9 fields, got {len(f)}")
                vals = [_ref_finite(f[c], w, path, line_no) for c, w in zip((2, 3, 4, 8), _XYZQ)]
                atoms.append((f[5].split(".")[0], vals))
        flush(line_no)
    return molecules


def reference_cache(path):
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return out
        if header != mpe.CACHE_COLUMNS:
            raise MoleculeParseError(path, 1, "not a descriptor cache (bad header)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if row[0] in out:
                raise MoleculeParseError(path, line_no, f"duplicate molecule id {row[0]!r}")
            vals = [_ref_finite(v, "descriptor", path, line_no) for v in row[1:13]]
            if len(row) != 13:
                raise MoleculeParseError(
                    path, line_no, f"molecule {row[0]!r}: expected 13 fields, got {len(row)}")
            p, n = vals[:6], vals[6:]
            if any(v < 0 for v in p) or any(b > a for a, b in zip(p, p[1:])):
                raise MoleculeParseError(
                    path, line_no, f"molecule {row[0]!r}: positives must be nonnegative "
                    "and sorted descending")
            if any(v > 0 for v in n) or any(b < a for a, b in zip(n, n[1:])):
                raise MoleculeParseError(
                    path, line_no, f"molecule {row[0]!r}: negatives must be nonpositive "
                    "and sorted ascending")
            out[row[0]] = np.array(vals).tobytes()
    return out


def _outcome(fn, path):
    """('ok', result) or ('error', exception type name, message)."""
    try:
        return ("ok", fn(path))
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


def _as_tuples(mols):
    return [(m.id, m.positions.tobytes(), m.charges.tobytes(), m.elements) for m in mols]


_BAD_NUMBERS = ["abc", "", "1.2.3", "nan", "NaN", "inf", "-Infinity", "1e400", "0x1", "1,5"]


def _number(rng, v):
    """A valid spelling of v: plain, exponent, padded, quoted or signed."""
    text = rng.choice([repr(v), f"{v:.6g}", f"{v:e}", f"+{v!r}" if str(v)[0] != "-" else repr(v)])
    text = rng.choice(["", " ", "  "]) + text + rng.choice(["", " "])
    return f'"{text}"' if rng.random() < 0.2 else text


def _csv_rows(rng):
    """Data rows of a valid csv-atoms file, ids interleaved, each a list of
    raw field texts."""
    rows = []
    for i in range(rng.randint(1, 6)):
        mol_id = rng.choice([f"m{i}", f" m{i} ", f'"m,{i}"', f"mol_{i}"])
        for _ in range(rng.randint(1, 5)):
            xyz = [_number(rng, round(rng.uniform(-9, 9), rng.randint(0, 6))) for _ in range(3)]
            q = _number(rng, rng.choice([0.0, -0.0, round(rng.gauss(0, 0.5), 4)]))
            rows.append([mol_id, rng.choice(["C", " N ", "Cl", '"O"']), *xyz, q])
    rng.shuffle(rows)
    return rows


def _write_csv(path, rows, rng):
    blanks = ["", ",,,,,", "   ", " , ", ",,,,,,,"]
    lines = [",".join(mpe.CSV_ATOM_COLUMNS)]
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(blanks))
        lines.append(",".join(row))
    end = rng.choice(["\n", "\r\n"])
    path.write_text(end.join(lines) + end, newline="")


def _mutate_row(rng, row):
    row = list(row)
    kind = rng.choice(["number", "number", "short", "long"])
    if kind == "number":
        row[rng.choice([2, 3, 4, 5])] = rng.choice(_BAD_NUMBERS)
    elif kind == "short":
        del row[rng.randrange(1, len(row)):]
    else:
        row.append(rng.choice(["0", "x", ""]))
    return row


def _mol2_blocks(rng):
    """(name, atom records) blocks of a valid mol2 file."""
    blocks = []
    for i in range(rng.randint(1, 4)):
        records = []
        for a in range(rng.randint(1, 5)):
            xyz = [f"{rng.uniform(-9, 9):.4f}" for _ in range(3)]
            q = rng.choice(["0.0000", "-0.0", f"{rng.gauss(0, 0.5):.4f}", "1e-3"])
            records.append([str(a + 1), f"A{a}", *xyz, rng.choice(["C.3", "N.4", "Cl", "O.co2"]),
                            "1", "LIG", q] + rng.choice([[], ["extra"]]))
        blocks.append([f"mol{i}", records])
    return blocks


def _write_mol2(path, blocks, rng):
    lines = ["# generated"]
    for name, records in blocks:
        lines += ["@<TRIPOS>MOLECULE", name, f" {len(records)} 0 0 0 0", "SMALL", "",
                  "@<TRIPOS>ATOM"]
        lines += ["   " + "  ".join(r) for r in records]
        if rng.random() < 0.5:
            lines += ["@<TRIPOS>BOND", "     1    1    2 1"]
    path.write_text("\n".join(lines) + rng.choice(["\n", "\n\n", ""]))


def _cache_rows(rng):
    rows = []
    for i in range(rng.randint(1, 8)):
        p = sorted((rng.choice([0.0, rng.uniform(0, 300)]) for _ in range(6)), reverse=True)
        n = sorted(rng.choice([0.0, -rng.uniform(0, 300)]) for _ in range(6))
        rows.append([f"c{i}"] + [format(v, ".9g") for v in p + n])
    return rows


def _write_cache(path, rows, rng):
    lines = [",".join(mpe.CACHE_COLUMNS)]
    for row in rows:
        if rng.random() < 0.15:
            lines.append("")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _mutate_cache_row(rng, row, rows):
    kind = rng.choice(["number", "short", "long", "dup", "order", "sign"])
    row = list(row)
    if kind == "number":
        row[rng.randrange(1, 13)] = rng.choice(_BAD_NUMBERS)
    elif kind == "short":
        del row[rng.randrange(1, 13):]
    elif kind == "long":
        row.append("0")
    elif kind == "dup":
        row[0] = rows[0][0]
    elif kind == "order":
        row[1], row[2] = "1", "2"
    else:
        i = rng.choice([6, 12])  # last positive, last negative
        row[i] = "-5" if i == 6 else "5"
    return row


def _fault_rows(rng, rows):
    """One or two distinct rows to break."""
    return rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 2)))


class TestParserDifferential:
    SEEDS = range(60)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_csv_atoms_matches_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        rows = _csv_rows(rng)
        path = tmp_path / "atoms.csv"
        _write_csv(path, rows, rng)
        want = reference_csv_atoms(path)
        assert _as_tuples(parse_molecules(path, "csv-atoms")) == want
        for i in _fault_rows(rng, rows):
            rows[i] = _mutate_row(rng, rows[i])
        _write_csv(path, rows, rng)
        want = _outcome(reference_csv_atoms, path)
        got = _outcome(lambda p: _as_tuples(parse_molecules(p, "csv-atoms")), path)
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mol2_matches_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        blocks = _mol2_blocks(rng)
        path = tmp_path / "mols.mol2"
        _write_mol2(path, blocks, rng)
        want = reference_mol2(path)
        assert _as_tuples(parse_molecules(path, "mol2-subset")) == want
        records = [r for _, block in blocks for r in block]
        for i in _fault_rows(rng, records):
            if rng.random() < 0.3:
                del records[i][rng.randrange(9):]
            else:
                records[i][rng.choice([2, 3, 4, 8])] = rng.choice(
                    [b for b in _BAD_NUMBERS if b and "," not in b])
        if rng.random() < 0.2:
            rng.choice(blocks)[1] = []  # a block without atoms
        _write_mol2(path, blocks, rng)
        want = _outcome(reference_mol2, path)
        got = _outcome(lambda p: _as_tuples(parse_molecules(p, "mol2-subset")), path)
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_matches_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        rows = _cache_rows(rng)
        path = tmp_path / "cache.csv"
        _write_cache(path, rows, rng)
        want = reference_cache(path)
        got = mpe.read_descriptor_cache(path)
        assert {k: v.features.tobytes() for k, v in got.items()} == want
        assert list(got) == list(want)
        for i in _fault_rows(rng, rows):
            rows[i] = _mutate_cache_row(rng, rows[i], rows)
        _write_cache(path, rows, rng)
        want = _outcome(reference_cache, path)
        got = _outcome(lambda p: {k: v.features.tobytes() for k, v in
                                  mpe.read_descriptor_cache(p).items()}, path)
        assert got == want

    @pytest.mark.parametrize("fmt", ["csv-atoms", "mol2-subset", "cache"])
    def test_malformed_row_before_undecodable_bytes_wins(self, tmp_path, fmt):
        # The bad byte sits past the first read buffer, so a streaming reader
        # meets the malformed row on line 2 before it fails to decode.
        if fmt == "csv-atoms":
            head = ",".join(mpe.CSV_ATOM_COLUMNS) + "\nm,C,x,0,0,0\n"
            body = "m,C,0,0,0,0\n" * 4000
        elif fmt == "mol2-subset":
            head = "@<TRIPOS>ATOM\n1 A 0 x 0 C 1 L 0\n"
            body = "1 A 0 0 0 C 1 L 0\n" * 4000
        else:
            head = ",".join(mpe.CACHE_COLUMNS) + "\nc0" + ",0" * 11 + ",x\n"
            body = "".join(f"c{i + 1}" + ",0" * 12 + "\n" for i in range(4000))
        path = tmp_path / "f"
        path.write_bytes((head + body).encode() + b"\xff\n")
        with pytest.raises(MoleculeParseError, match=r":2: unparseable"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path, fmt)

    @pytest.mark.parametrize("fmt", ["csv-atoms", "mol2-subset", "cache"])
    def test_malformed_row_in_same_buffer_as_undecodable_bytes_wins(self, tmp_path, fmt):
        # A 4-line file, one read buffer: `x` on line 2, a 0xff byte on line 4.
        if fmt == "csv-atoms":
            lines = [",".join(mpe.CSV_ATOM_COLUMNS), "m,C,x,0,0,0", "m,C,0,0,0,0", "m,C,0,0,0,"]
        elif fmt == "mol2-subset":
            lines = ["@<TRIPOS>ATOM", "1 A 0 x 0 C 1 L 0", "1 A 0 0 0 C 1 L 0",
                     "1 A 0 0 0 C 1 L "]
        else:
            lines = [",".join(mpe.CACHE_COLUMNS), "c0" + ",0" * 11 + ",x", "c1" + ",0" * 12,
                     "c2" + ",0" * 11 + ","]
        path = tmp_path / "f"
        path.write_bytes("\n".join(lines).encode() + b"\xff\n")
        with pytest.raises(MoleculeParseError, match=rf"^{path}:2: unparseable"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path, fmt)

    @pytest.mark.parametrize("fmt", ["csv-atoms", "mol2-subset", "cache"])
    def test_undecodable_bytes_name_file_and_line(self, tmp_path, fmt):
        # A small file decodes in one buffer; the error still names the
        # first line that does not decode.
        if fmt == "csv-atoms":
            text = ",".join(mpe.CSV_ATOM_COLUMNS) + "\nm,C,0,0,0,0\n"
        elif fmt == "mol2-subset":
            text = "@<TRIPOS>MOLECULE\nm\n@<TRIPOS>ATOM\n"
        else:
            text = ",".join(mpe.CACHE_COLUMNS) + "\nc0" + ",0" * 12 + "\n"
        path = tmp_path / "f"
        path.write_bytes(text.encode() + b"c\xff,0\n" + b"more\n")
        line = text.count("\n") + 1
        with pytest.raises(MoleculeParseError, match=rf"^{path}:{line}: cannot decode") as err:
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path, fmt)
        assert err.value.line_no == line

    @pytest.mark.parametrize("fmt", ["csv-atoms", "cache"])
    def test_csv_error_names_file_and_line(self, tmp_path, fmt):
        header = mpe.CSV_ATOM_COLUMNS if fmt == "csv-atoms" else mpe.CACHE_COLUMNS
        path = tmp_path / "f"
        path.write_text(",".join(header) + "\n" + "m" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(MoleculeParseError, match=rf"^{path}:2: field larger"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path, fmt)
