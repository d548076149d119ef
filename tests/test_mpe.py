"""Descriptor pipeline tests: pairing energies against brute force, parser
fixtures, feature scaling."""

import csv
import io
import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvs import mpe, synth
from scvs.mpe import (
    FeatureScaler,
    MoleculeParseError,
    MoleculeTable,
    descriptor_fault,
    mpe_vector,
    pairing_energy,
    parse_molecules,
)

DATA = Path(__file__).parent / "data"


def _molecule(mol_id, positions, charges, elements) -> MoleculeTable:
    """One molecule as a one-molecule table."""
    return MoleculeTable([mol_id], np.array([0, len(charges)]),
                         np.asarray(positions, dtype=np.float64),
                         np.asarray(charges, dtype=np.float64), list(elements))


def _table_of(mols):
    """The one-molecule tables, in order, as one table."""
    return MoleculeTable([m.ids[0] for m in mols], np.cumsum([0] + [len(m.charges) for m in mols]),
                         np.concatenate([np.empty((0, 3))] + [m.positions for m in mols]),
                         np.concatenate([np.empty(0)] + [m.charges for m in mols]),
                         [e for m in mols for e in m.elements])


def brute_force_vector(m: MoleculeTable, k: float = mpe.DEFAULT_K) -> np.ndarray:
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
    return np.concatenate([p, n])


def random_molecule(rng, max_atoms=12) -> MoleculeTable:
    n = int(rng.integers(1, max_atoms + 1))
    # per atom: its charge, then x, y, z
    rows = np.array([[rng.normal(0, 0.5), *rng.uniform(-5, 5, 3)] for _ in range(n)])
    return _molecule("rnd", rows[:, 1:], rows[:, 0], ("C",) * n)


class TestPairingEnergy:
    def test_unit_distance_opposite_charges(self):
        m = _molecule("p", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5], "CC")
        assert pairing_energy(m, 0, 1, k=1.0) == -0.25

    def test_coulomb_constant_hand_arithmetic(self):
        m = _molecule("p", [[0, 0, 0], [0, 0, 2]], [1.0, 1.0], "CC")
        assert pairing_energy(m, 0, 1) == pytest.approx(166.03185)

    def test_zero_charge_yields_zero(self):
        m = _molecule("p", [[0, 0, 0], [1, 1, 1]], [0.0, 0.7], "CC")
        assert pairing_energy(m, 0, 1, k=1.0) == 0.0

    def test_coincident_atoms_named(self):
        positions = np.arange(30.0).reshape(10, 3)
        positions[9] = positions[4]
        m = _molecule("c", positions, np.full(10, 0.1), "C" * 10)
        with pytest.raises(ValueError, match="atoms 4 and 9"):
            pairing_energy(m, 4, 9)


class TestMpeVector:
    """The descriptor row: positives then negatives, 12 float64 values."""

    def test_two_atom_negative_pair(self):
        m = _molecule("p", [[0, 0, 0], [1, 0, 0]], [1.0, -1.0], "CC")
        v = mpe_vector(m, k=1.0)
        assert v[:6].tolist() == [0.0] * 6
        assert v[6:].tolist() == [-1.0, 0, 0, 0, 0, 0]

    def test_square_matches_brute_force(self):
        m = _molecule("sq", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                     [0.5, -0.5, 0.5, -0.5], "CCCC")
        v = mpe_vector(m, k=1.0)
        b = brute_force_vector(m, k=1.0)
        np.testing.assert_allclose(v, b)
        # 4 edges at -0.25, two diagonals at +0.25/sqrt(2)
        np.testing.assert_allclose(v[6:10], [-0.25] * 4)
        np.testing.assert_allclose(v[:2], [0.25 / np.sqrt(2)] * 2)

    def test_single_atom_all_zero(self):
        v = mpe_vector(_molecule("x", [[0, 0, 0]], [0.4], "C"))
        assert not v.any()

    def test_brute_force_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_molecule(rng)
            np.testing.assert_allclose(
                mpe_vector(m), brute_force_vector(m), atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_molecule(rng, max_atoms=9)
            perm = rng.permutation(len(m.charges))
            shuffled = _molecule(m.ids[0], m.positions[perm], m.charges[perm],
                                [m.elements[i] for i in perm])
            np.testing.assert_allclose(
                mpe_vector(m), mpe_vector(shuffled), atol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_molecule(rng, max_atoms=9)
            # random rotation via QR, plus a translation
            qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            shift = rng.uniform(-10, 10, 3)
            moved = _molecule(m.ids[0], m.positions @ qmat.T + shift, m.charges, m.elements)
            np.testing.assert_allclose(
                mpe_vector(m), mpe_vector(moved), atol=1e-9)

    def test_charge_scaling_law(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_molecule(rng, max_atoms=8)
            c = 2.5
            scaled = _molecule(m.ids[0], m.positions, m.charges * c, m.elements)
            np.testing.assert_allclose(
                mpe_vector(scaled), c ** 2 * mpe_vector(m), atol=1e-9)

    def test_overflowing_energy_names_molecule(self):
        m = _molecule("big", [[0, 0, 0], [1, 0, 0]], [1e200, 1e200], "CC")
        with pytest.raises(ValueError, match="'big': atoms 0 and 1 give a non-finite"):
            mpe_vector(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_values_rejected(self, bad):
        p = np.array([bad, 0, 0, 0, 0, 0.0])
        for row in (np.concatenate([p, np.zeros(6)]), np.concatenate([np.zeros(6), -p])):
            assert descriptor_fault(row) == "descriptor values must be finite"

    def test_coincident_atoms_error_names_indices(self):
        m = _molecule("bad", [[0, 0, 0], [0, 0, 0]], [0.1, 0.2], "CC")
        with pytest.raises(ValueError, match="atoms 0 and 1"):
            mpe_vector(m)


def lexsort_vector(m: MoleculeTable, k: float = mpe.DEFAULT_K) -> np.ndarray:
    """The one-molecule descriptor as first written: every pair energy,
    then a lexsort on (energy, lower atom index, higher atom index)."""
    n = len(m.charges)
    if n == 1:
        return np.zeros(12)
    pos, q = m.positions, m.charges
    ii, jj = np.triu_indices(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(pos[ii] - pos[jj], axis=1)
        coincident = np.nonzero(d == 0.0)[0]
        if coincident.size:
            c = coincident[0]
            raise ValueError(
                f"molecule {m.ids[0]!r}: atoms {ii[c]} and {jj[c]} are coincident; "
                "pairing energy undefined")
        e = k * q[ii] * q[jj] / d
    bad = np.nonzero(~np.isfinite(e))[0]
    if bad.size:
        c = bad[0]
        raise ValueError(
            f"molecule {m.ids[0]!r}: atoms {ii[c]} and {jj[c]} give a non-finite "
            "pairing energy")

    def top(mask, ascending):
        idx = np.nonzero(mask)[0]
        keys = e[idx] if ascending else -e[idx]
        order = idx[np.lexsort((jj[idx], ii[idx], keys))][:6]
        out = np.zeros(6)
        out[: len(order)] = e[order]
        return out

    return np.concatenate([top(e > 0, ascending=False), top(e < 0, ascending=True)])


def _row_bytes(v):
    """A descriptor row's dtype, shape and bytes."""
    return (v.dtype.str, v.shape, v.tobytes())


def _vector_outcome(v):
    """('ok', row bytes) of a descriptor row, ('error', message) of a
    ValueError."""
    if isinstance(v, ValueError):
        return ("error", str(v))
    return ("ok", _row_bytes(v))


def _called(fn, m):
    try:
        return fn(m)
    except ValueError as exc:
        return exc


class TestBatchedDescriptors:
    @staticmethod
    def _library(rng):
        """Mixed atom counts in random order; the 24-atom molecules span
        three chunks, and one of them is coincident and one overflows, both
        in the middle of a chunk.  200-atom molecules take a chunk each.
        Grid positions and a small charge alphabet give tied and exactly
        zero energies."""
        chunk = mpe.DESCRIPTOR_CHUNK_PAIRS // (24 * 23 // 2)
        sizes = [24] * (2 * chunk + 20) + [200] * 3
        for n in (1, 2, 3, 7):
            sizes += [n] * 15
        rng.shuffle(sizes)
        mols = []
        for i, n in enumerate(sizes):
            if rng.random() < 0.5:
                pos = rng.integers(-3, 4, (n, 3)).astype(float)
                pos[:, 0] += np.arange(n) * 10  # grid atoms, never coincident
                q = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5], n)
            else:
                pos = rng.uniform(-5, 5, (n, 3))
                q = rng.normal(0, 0.5, n)
            mols.append(_molecule(f"m{i}", pos, q, "C" * n))
        big = [i for i, n in enumerate(sizes) if n == 24]
        coincident, huge = mols[big[10]], mols[big[chunk + 5]]
        coincident.positions[17] = coincident.positions[3]
        huge.charges[[2, 9]] = 1e200
        tiny = mols[sizes.index(2)]
        tiny.positions[1] = tiny.positions[0]
        return mols

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_single_and_lexsort(self, seed):
        mols = self._library(np.random.default_rng(seed))
        rows = mpe.mpe_vectors(_table_of(mols))
        got = [_vector_outcome(v) for v in rows]
        single = [_vector_outcome(_called(mpe_vector, m)) for m in mols]
        reference = [_vector_outcome(_called(lexsort_vector, m)) for m in mols]
        assert got == single == reference
        errors = [g[1] for g in got if g[0] == "error"]
        assert len(errors) == 3
        assert sum("coincident" in e for e in errors) == 2
        assert sum("non-finite" in e for e in errors) == 1
        assert all(mpe._rows_valid(v[None]) for v in rows if not isinstance(v, ValueError))

    def test_empty_list(self):
        assert mpe.mpe_vectors(_table_of([])) == []

    def test_distances_sum_in_norm_order_on_3d_coordinates(self):
        # The bench molecules lie on the x axis.  Here y and z are as large
        # as x, so summing the squares as dx² + (dy² + dz²) instead of
        # np.linalg.norm's (dx² + dy²) + dz² moves a bit of some descriptor.
        rng = np.random.default_rng(23)
        mols = [_molecule(f"m{i}", rng.uniform(-50, 50, (24, 3)), rng.normal(0, 0.5, 24),
                         "C" * 24) for i in range(40)]
        got = [_vector_outcome(v) for v in mpe.mpe_vectors(_table_of(mols))]
        assert got == [_vector_outcome(lexsort_vector(m)) for m in mols]

        def other_order(m):
            ii, jj = np.triu_indices(24, 1)
            sq = (m.positions[ii] - m.positions[jj]) ** 2
            e = mpe.DEFAULT_K * m.charges[ii] * m.charges[jj] / np.sqrt(
                sq[:, 0] + (sq[:, 1] + sq[:, 2]))
            return ("ok", _row_bytes(np.concatenate([np.sort(np.where(e > 0, e, 0.0))[::-1][:6],
                                                     np.sort(np.where(e < 0, e, 0.0))[:6]])))

        assert got != [other_order(m) for m in mols]

    def test_parsed_table_of_interleaved_rows(self, tmp_path):
        # Molecules of 1, 2, 3, 24 and 64 atoms whose csv-atoms rows are
        # interleaved, each molecule's own rows in order; one 2-atom and one
        # 24-atom molecule hold coincident atoms, one 64-atom one overflows.
        rng = np.random.default_rng(31)
        sizes = [1, 2, 3, 24, 64] * 4
        rng.shuffle(sizes)
        mols = [_molecule(f"m{i}", rng.uniform(-5, 5, (n, 3)), rng.normal(0, 0.5, n), "C" * n)
                for i, n in enumerate(sizes)]
        for n, (a, b) in ((2, (0, 1)), (24, (3, 17))):
            m = mols[sizes.index(n)]
            m.positions[b] = m.positions[a]
        mols[sizes.index(64)].charges[[5, 40]] = 1e200
        owners = [i for i, n in enumerate(sizes) for _ in range(n)]
        rng.shuffle(owners)
        atom = [0] * len(mols)
        lines = [",".join(mpe.CSV_ATOM_COLUMNS)]
        for i in owners:
            m, a = mols[i], atom[i]
            atom[i] += 1
            lines.append(",".join([m.ids[0], m.elements[a], *map(repr, m.positions[a].tolist()),
                                   repr(float(m.charges[a]))]))
        path = tmp_path / "atoms.csv"
        path.write_text("\n".join(lines) + "\n")
        table = parse_molecules(path)
        assert table.ids == [f"m{i}" for i in dict.fromkeys(owners)]
        by_id = {m.ids[0]: m for m in mols}
        got = [_vector_outcome(v) for v in mpe.mpe_vectors(table)]
        single = [_vector_outcome(_called(mpe_vector, by_id[i])) for i in table.ids]
        reference = [_vector_outcome(_called(lexsort_vector, by_id[i])) for i in table.ids]
        assert got == single == reference
        errors = sorted(g[1] for g in got if g[0] == "error")
        assert len(errors) == 3
        assert sum("coincident" in e for e in errors) == 2
        assert sum("non-finite" in e for e in errors) == 1


# Descriptor slot values: signed zeros, the smallest subnormal, ties and
# extremes, plus any finite magnitude.
_MAGNITUDES = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0, 300.0, 1e308]) | st.floats(0, 1e308)
_ANY_VALUE = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                              1.0, -1.0]) | st.floats()


@st.composite
def _descriptor_rows(draw):
    """A sorted, signed row of 12, then up to two slots overwritten with any
    value and up to one pair of slots swapped."""
    p = sorted(draw(st.lists(_MAGNITUDES, min_size=6, max_size=6)), reverse=True)
    n = sorted(-v for v in draw(st.lists(_MAGNITUDES, min_size=6, max_size=6)))
    row = np.array(p + n)
    for i, v in draw(st.lists(st.tuples(st.integers(0, 11), _ANY_VALUE), max_size=2)):
        row[i] = v
    for i, j in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=1)):
        row[[i, j]] = row[[j, i]]
    return row


class TestRowsValid:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_descriptor_rows(), min_size=1, max_size=4))
    def test_matches_constructor_row_by_row(self, rows):
        # descriptor_fault is the row-at-a-time rule that names a cache's
        # faulty line; _rows_valid must agree with it on every row.
        values = np.array(rows)
        wanted = [descriptor_fault(v) is None for v in values]
        for v, want in zip(values, wanted):
            assert mpe._rows_valid(v[None]) == want
        assert mpe._rows_valid(values) == all(wanted)
        if mpe._rows_valid(values):
            ids = [f"c{i}" for i in range(len(values))]
            got = mpe._cache_entries(np.array(ids, dtype=object), values)
            assert [_row_bytes(v) for v in got.values()] == [_row_bytes(v) for v in values]

    def test_empty_matrix_is_valid(self):
        assert mpe._rows_valid(np.empty((0, 12)))
        assert mpe._cache_entries(np.array([], dtype=object), np.empty((0, 12))) == {}


class TestParsers:
    def test_mol2_fixture_two_molecules(self):
        table = parse_molecules(DATA / "fixture.mol2")
        assert table.ids == ["ethanol_frag", "salt_pair"]
        assert np.diff(table.offsets).tolist() == [3, 2]
        assert table.charges[1] == pytest.approx(-0.3856)
        assert table.elements[table.offsets[1] + 1] == "Cl"

    def test_mol2_blocks_of_one_name_are_two_molecules(self, tmp_path):
        p = tmp_path / "twice.mol2"
        block = "@<TRIPOS>MOLECULE\nsame\n@<TRIPOS>ATOM\n1 C1 {} 0 0 C.3 1 L {}\n"
        p.write_text(block.format(0, 0.5) + block.format(1, -0.5))
        table = parse_molecules(p)
        assert table.ids == ["same", "same"] and len(table) == 2
        assert table.offsets.tolist() == [0, 1, 2]
        assert table.charges.tolist() == [0.5, -0.5]

    def test_empty_file_is_empty_table(self, tmp_path):
        p = tmp_path / "empty.mol2"
        p.write_text("")
        q = tmp_path / "empty.csv"
        q.write_text("")
        for table in (parse_molecules(p), parse_molecules(q)):
            assert len(table) == 0 and table.ids == [] and table.offsets.tolist() == [0]
            assert table.positions.shape == (0, 3) and table.charges.shape == (0,)

    def test_csv_fixture(self):
        table = parse_molecules(DATA / "fixture_atoms.csv")
        assert table.ids == ["pair_neg", "square", "lone", "triangle", "chain"]
        assert np.diff(table.offsets).tolist() == [2, 4, 1, 3, 4]

    def test_nan_charge_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("molecule_id,element,x,y,z,charge\nm1,C,0,0,0,NaN\n")
        with pytest.raises(MoleculeParseError, match="bad.csv:2"):
            parse_molecules(p)

    def test_short_mol2_atom_record_rejected(self, tmp_path):
        p = tmp_path / "bad.mol2"
        p.write_text("@<TRIPOS>MOLECULE\nm\n@<TRIPOS>ATOM\n1 C 0.0 0.0\n")
        with pytest.raises(MoleculeParseError, match="bad.mol2:4"):
            parse_molecules(p)

    def test_missing_charge_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("molecule_id,element,x,y,z\nm1,C,0,0,0\n")
        with pytest.raises(MoleculeParseError, match="header"):
            parse_molecules(p)



def _entries(table):
    """(id, descriptor row) of every molecule of a table that describes
    without a fault."""
    entries = list(zip(table.ids, mpe.mpe_vectors(table)))
    assert not any(isinstance(v, ValueError) for _, v in entries)
    return entries


class TestScatter:
    def test_two_atom_pair_row(self, tmp_path):
        m = _molecule("p", [[0, 0, 0], [1, 0, 0]], [1.0, -1.0], "CC")
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, [(m.ids[0], mpe_vector(m, k=1.0))])
        assert path.read_text().splitlines()[1:] == ["p,0,-1"]

    def test_empty_input_header_only(self, tmp_path):
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, [])
        assert path.read_text().strip() == "molecule_id,most_positive,most_negative"

    def test_fixture_rows_match_vectors(self, tmp_path):
        entries = _entries(parse_molecules(DATA / "fixture_atoms.csv"))
        path = tmp_path / "scatter.csv"
        mpe.write_scatter_csv(path, entries)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 5
        for (mol_id, hi, lo), (m_id, v) in zip(rows, entries):
            assert (mol_id, hi, lo) == (m_id, format(float(v[0]), ".9g"),
                                        format(float(v[6]), ".9g"))


class TestCsvAtomsWriter:
    def test_written_tables_read_back(self, tmp_path):
        mol2 = parse_molecules(DATA / "fixture.mol2")
        atoms = parse_molecules(DATA / "fixture_atoms.csv")
        path = tmp_path / "out.csv"
        mpe.write_csv_atoms(path, [mol2, atoms])
        assert path.read_bytes().startswith(b"molecule_id,element,x,y,z,charge\r\n")
        assert _as_tuples(parse_molecules(path)) == \
            _as_tuples(mol2) + _as_tuples(atoms)


    def test_each_value_written_as_its_own_9g_text(self, tmp_path):
        # -0.0 and 0.0 differ only in bit pattern; repeats span both tables
        first = MoleculeTable(["m1", "m2"], np.array([0, 2, 3]),
                              np.array([[-0.0, 0.0, 1e-300], [1e300, -0.0, 0.1],
                                        [0.1, 0.1, -1e300]]),
                              np.array([0.5, -0.0, 0.5]), ["C", "O", "N"])
        second = MoleculeTable(["m3"], np.array([0, 2]),
                               np.array([[1e-300, 0.0, 2.0 / 3.0], [-0.0, 1e300, 0.1]]),
                               np.array([1e-300, 0.5]), ["H", "C"])
        path = tmp_path / "out.csv"
        mpe.write_csv_atoms(path, [first, second])
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(
            [mpe.CSV_ATOM_COLUMNS]
            + [[mol_id, element, *(format(v, ".9g") for v in (*xyz, q))]
               for mol_id, element, xyz, q in zip(["m1", "m1", "m2", "m3", "m3"],
                                                  first.elements + second.elements,
                                                  [*first.positions, *second.positions],
                                                  [*first.charges, *second.charges])])
        assert path.read_bytes().decode() == expected.getvalue()
        assert "m1,C,-0,0,1e-300,0.5" in expected.getvalue()

    def test_no_tables_writes_the_header(self, tmp_path):
        path = tmp_path / "out.csv"
        mpe.write_csv_atoms(path, [])
        assert path.read_bytes() == b"molecule_id,element,x,y,z,charge\r\n"


class TestDescriptorCache:
    def test_round_trip_9_sig_digits(self, tmp_path):
        entries = _entries(parse_molecules(DATA / "fixture_atoms.csv"))
        path = tmp_path / "cache.csv"
        mpe.write_descriptor_cache(path, entries)
        back = mpe.read_descriptor_cache(path)
        assert set(back) == {mol_id for mol_id, _ in entries}
        for mol_id, vec in entries:
            np.testing.assert_allclose(back[mol_id], vec,
                                       rtol=1e-8, atol=1e-12)


class TestFeatureScaler:
    def _fitted(self):
        rows = np.vstack([np.arange(24.0), np.arange(24.0) + 10.0])
        return FeatureScaler.fit(rows)

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

    def test_constant_feature_maps_to_zero(self):
        rows = np.ones((3, 24))
        s = FeatureScaler.fit(rows)
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


def _numbered(reader):
    """(line, row) of each further row of a csv reader, numbered by the
    physical line the row starts on; a quoted field may span lines."""
    start = reader.line_num + 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def reference_csv_atoms(path):
    molecules: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != mpe.CSV_ATOM_COLUMNS:
            raise MoleculeParseError(
                path, 1, f"header must be {','.join(mpe.CSV_ATOM_COLUMNS)}")
        for line_no, row in _numbered(reader):
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return out
        if header != mpe.CACHE_COLUMNS:
            raise MoleculeParseError(path, 1, "not a descriptor cache (bad header)")
        for line_no, row in _numbered(reader):
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
            out[row[0]] = _row_bytes(np.array(vals))
    return out


def _outcome(fn, path):
    """('ok', result) or ('error', exception type name, message)."""
    try:
        return ("ok", fn(path))
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


def _as_tuples(table):
    """The table's molecules, after checking that its offsets cover every
    atom row once, in order."""
    o = table.offsets.tolist()
    assert o[0] == 0 and len(o) == len(table) + 1 and all(map(int.__lt__, o, o[1:]))
    assert o[-1] == len(table.positions) == len(table.charges) == len(table.elements)
    assert table.positions.shape[1:] == (3,)
    return [(mol_id, table.positions[s:e].tobytes(), table.charges[s:e].tobytes(),
             tuple(table.elements[s:e])) for mol_id, s, e in zip(table.ids, o, o[1:])]


_BAD_NUMBERS = ["abc", "", "1.2.3", "nan", "NaN", "inf", "-Infinity", "1e400", "0x1", "1,5"]
# Where numpy's text reader and float() could disagree.  float() rejects
# 0x1C-0x1F around a number, which numpy strips as whitespace; it accepts
# what ``_odd`` writes, which numpy's reader rejects or strips.
_ODD_BAD_NUMBERS = ["1\x1c", "\x1f1"]
_ODD_KINDS = ["_", "arabic", "pad"]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# longer than every other field of the file it is in
_LONG = "x" * 40


def _odd(rng, text, odd):
    """The number ``text``, respelled a third of the time when ``odd`` names
    a way: digits grouped by ``_`` ("1_5"), Arabic-Indic digits, or NBSP or
    U+3000 padding."""
    if odd is None or rng.random() < 2 / 3:
        return text
    if odd == "_":
        return re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)
    if odd == "arabic":
        return text.translate(_ARABIC_INDIC)
    return rng.choice(["\xa0", "\u3000"]) + text + rng.choice(["", "\xa0", "\u3000"])


def _number(rng, v, plain=False, odd=None):
    """A valid spelling of v: plain, exponent, padded, quoted or signed;
    never quoted when ``plain``; see ``_odd``."""
    text = rng.choice([repr(v), f"{v:.6g}", f"{v:e}", f"+{v!r}" if str(v)[0] != "-" else repr(v)])
    text = rng.choice(["", " ", "  "]) + _odd(rng, text, odd) + rng.choice(["", " "])
    return f'"{text}"' if not plain and rng.random() < 0.2 else text


def _csv_rows(rng, plain=False, odd=None):
    """Data rows of a valid csv-atoms file, ids interleaved, each a list of
    raw field texts; without quotes when ``plain``, and then with each
    molecule's rows kept together half the time.  When ``odd`` (see
    ``_odd``), ids may also hold ``#``, outgrow every other field, or
    differ from row to row of one molecule by trailing spaces."""
    rows = []
    ids = ["m{}", " m{} ", "mol_{}"] if plain else ["m{}", " m{} ", '"m,{}"', "mol_{}"]
    ids += ["m#{}", "m{}" + _LONG] if odd else []
    elements = ["C", " N ", "Cl", "O" if plain else '"O"']
    for i in range(rng.randint(1, 6)):
        mol_id = rng.choice(ids).format(i)
        for _ in range(rng.randint(1, 5)):
            xyz = [_number(rng, round(rng.uniform(-9, 9), rng.randint(0, 6)), plain, odd)
                   for _ in range(3)]
            q = _number(rng, rng.choice([0.0, -0.0, round(rng.gauss(0, 0.5), 4)]), plain, odd)
            pad = rng.choice(["", " ", "  "]) if odd else ""
            rows.append([mol_id + pad, rng.choice(elements), *xyz, q])
    if not plain or rng.random() < 0.5:
        rng.shuffle(rows)
    return rows


def _write_csv(path, rows, rng, plain=False):
    """Rows with blank ones in between, LF or CRLF line ends; a plain file's
    blank rows hold five commas, as its data rows do."""
    blanks = [",,,,,", " , ,, , ,"] if plain else ["", ",,,,,", "   ", " , ", ",,,,,,,"]
    lines = [",".join(mpe.CSV_ATOM_COLUMNS)]
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(blanks))
        lines.append(",".join(row))
    end = rng.choice(["\n", "\r\n"])
    path.write_text(end.join(lines) + end, newline="")


def _mutate_row(rng, row, odd=None):
    row = list(row)
    kind = rng.choice(["number", "number", "short", "long"])
    if kind == "number":
        row[rng.choice([2, 3, 4, 5])] = rng.choice(_BAD_NUMBERS + (_ODD_BAD_NUMBERS if odd else []))
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


def _cache_rows(rng, odd=None):
    """Rows of a valid cache; when ``odd`` (see ``_odd``), ids may also hold
    ``#`` or outgrow every other field, and two differ only by a trailing
    space."""
    rows = []
    for i in range(rng.randint(1, 8)):
        p = sorted((rng.choice([0.0, rng.uniform(0, 300)]) for _ in range(6)), reverse=True)
        n = sorted(rng.choice([0.0, -rng.uniform(0, 300)]) for _ in range(6))
        mol_id = rng.choice(["c{}", "c#{}", "c{}" + _LONG]).format(i) if odd else f"c{i}"
        rows.append([mol_id] + [_odd(rng, format(v, ".9g"), odd) for v in p + n])
    if odd:
        rows.append([rows[0][0] + " "] + rows[0][1:])
    return rows


def _write_cache(path, rows, rng, plain=False):
    """Rows with empty lines in between, or, when ``plain``, none and LF or
    CRLF line ends."""
    lines = [",".join(mpe.CACHE_COLUMNS)]
    for row in rows:
        if not plain and rng.random() < 0.15:
            lines.append("")
        lines.append(",".join(row))
    end = rng.choice(["\n", "\r\n"]) if plain else "\n"
    path.write_text(end.join(lines) + end, newline="")


def _mutate_cache_row(rng, row, rows, odd=None):
    kind = rng.choice(["number", "short", "long", "dup", "order", "sign"])
    row = list(row)
    if kind == "number":
        row[rng.randrange(1, 13)] = rng.choice(_BAD_NUMBERS + (_ODD_BAD_NUMBERS if odd else []))
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


def _refuse(*args, **kwargs):
    raise AssertionError("a plain file left the one-split path")


def _cache_bytes(cache):
    return {k: _row_bytes(v) for k, v in cache.items()}


class TestParserDifferential:
    # Seeds from 60 on also write the inputs of ``_odd``, ``_ODD_BAD_NUMBERS``
    # and the odd ids, one kind of odd number per file.
    SEEDS = range(90)

    @staticmethod
    def _odd_kind(seed):
        return _ODD_KINDS[seed % 3] if seed >= 60 else None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_csv_atoms_matches_reference(self, tmp_path, monkeypatch, seed):
        self._csv_atoms_case(tmp_path, monkeypatch, seed, plain=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain_csv_atoms_matches_reference(self, tmp_path, monkeypatch, seed):
        self._csv_atoms_case(tmp_path, monkeypatch, seed, plain=True)

    @classmethod
    def _csv_atoms_case(cls, tmp_path, monkeypatch, seed, plain):
        """A valid file, then the same with one or two rows broken; a plain
        valid file must split without the csv module."""
        rng = random.Random(seed)
        odd = cls._odd_kind(seed)
        rows = _csv_rows(rng, plain, odd)
        path = tmp_path / "atoms.csv"
        _write_csv(path, rows, rng, plain)
        want = reference_csv_atoms(path)
        with monkeypatch.context() as m:
            if plain:
                m.setattr(csv, "reader", _refuse)
            assert _as_tuples(parse_molecules(path)) == want
        for i in _fault_rows(rng, rows):
            rows[i] = _mutate_row(rng, rows[i], odd)
        _write_csv(path, rows, rng, plain)
        want = _outcome(reference_csv_atoms, path)
        got = _outcome(lambda p: _as_tuples(parse_molecules(p)), path)
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS[:60])
    def test_mol2_matches_reference(self, tmp_path, seed):
        rng = random.Random(seed)
        blocks = _mol2_blocks(rng)
        path = tmp_path / "mols.mol2"
        _write_mol2(path, blocks, rng)
        want = reference_mol2(path)
        assert _as_tuples(parse_molecules(path)) == want
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
        got = _outcome(lambda p: _as_tuples(parse_molecules(p)), path)
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_matches_reference(self, tmp_path, monkeypatch, seed):
        self._cache_case(tmp_path, monkeypatch, seed, plain=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain_cache_matches_reference(self, tmp_path, monkeypatch, seed):
        self._cache_case(tmp_path, monkeypatch, seed, plain=True)

    @classmethod
    def _cache_case(cls, tmp_path, monkeypatch, seed, plain):
        """As ``_csv_atoms_case``, for a descriptor cache."""
        rng = random.Random(seed)
        odd = cls._odd_kind(seed)
        rows = _cache_rows(rng, odd)
        path = tmp_path / "cache.csv"
        _write_cache(path, rows, rng, plain)
        want = reference_cache(path)
        with monkeypatch.context() as m:
            if plain:
                m.setattr(csv, "reader", _refuse)
            got = mpe.read_descriptor_cache(path)
        assert _cache_bytes(got) == want
        assert list(got) == list(want)
        for i in _fault_rows(rng, rows):
            rows[i] = _mutate_cache_row(rng, rows[i], rows, odd)
        _write_cache(path, rows, rng, plain)
        want = _outcome(reference_cache, path)
        got = _outcome(lambda p: _cache_bytes(mpe.read_descriptor_cache(p)), path)
        assert got == want

    def test_written_files_take_the_one_split_path(self, tmp_path, monkeypatch):
        # What make-bench and descriptors write (CRLF csv-atoms, a CRLF
        # cache) and a hand-written LF file all split without the csv module
        # and convert without a row-by-row re-scan.
        bench = tmp_path / "bench"
        synth.write_benchmark(bench, seed=3, n_targets=1, n_actives=3, n_decoys=3)
        lf = tmp_path / "lf.csv"
        lf.write_text((DATA / "fixture_atoms.csv").read_text().replace("\r\n", "\n"))
        atoms = sorted(bench.glob("*/*.csv")) + [lf]
        want = [reference_csv_atoms(p) for p in atoms]
        cache = tmp_path / "cache.csv"
        mpe.write_descriptor_cache(cache, [e for p in atoms
                                           for e in _entries(parse_molecules(p))])
        want_cache = reference_cache(cache)
        monkeypatch.setattr(csv, "reader", _refuse)
        monkeypatch.setattr(mpe, "_row_columns", _refuse)
        assert [_as_tuples(parse_molecules(p)) for p in atoms] == want
        assert _cache_bytes(mpe.read_descriptor_cache(cache)) == want_cache
        assert len(want_cache) == 1 + 3 + 3 + 5

    def test_one_long_id_takes_the_one_pass(self, tmp_path, monkeypatch):
        # One id of 400 characters among short rows: the ids are read as
        # Python strings, so no column is padded to its widest field and the
        # file needs neither the csv module nor the comma split.
        long_id = "m" * 400
        atoms, cache = tmp_path / "atoms.csv", tmp_path / "cache.csv"
        atoms.write_text(",".join(mpe.CSV_ATOM_COLUMNS) + "\n" + "".join(
            f"{mol_id},C,{i},0,0,0.5\n" for i, mol_id in enumerate(["a", "b", long_id] + ["c"] * 5)))
        cache.write_text(",".join(mpe.CACHE_COLUMNS) + "\n" + "".join(
            f"{mol_id}" + ",0" * 12 + "\n" for mol_id in ["a", "b", long_id, "c", "d", "e"]))
        want, want_cache = reference_csv_atoms(atoms), reference_cache(cache)
        monkeypatch.setattr(csv, "reader", _refuse)
        monkeypatch.setattr(mpe, "_row_columns", _refuse)
        got = _as_tuples(parse_molecules(atoms))
        assert got == want and got[2][0] == long_id
        assert _cache_bytes(mpe.read_descriptor_cache(cache)) == want_cache
        assert list(want_cache)[2] == long_id

    # A quoted field that spans lines 3-4, then a bad field on line 6.
    QUOTED_LINE_BREAK = ('m,C,0,0,0,0.5\nm,"C\n",0,0,0,0\nm,C,1,0,0,-0.5\nm,C,x,0,0,0\n',
                         "c0" + ",0" * 12 + '\n"c\n1"' + ",0" * 12 + "\nc2" + ",0" * 12
                         + "\nc3,x" + ",0" * 11 + "\n")

    # Edge cases around the one-split path, for (csv-atoms, cache): what each
    # file holds after its header line; every one must read as the
    # reference reader reads it, whichever path it takes.
    EDGE_BODIES = {
        "lone CR": ("m,C,0,0,0,0.5\rm,C,1,0,0,-0.5\n", "c0" + ",0" * 12 + "\rc1" + ",0" * 12),
        "lone CR in a field": ("m,C\r,0,0,0,0.5\n", "c0\r" + ",0" * 12 + "\n"),
        "NUL byte": ("m,C\0,0,0,0,0.5\nm,C,1,0,0,-0.5\n", "c\0" + ",0" * 12 + "\n"),
        "trailing blank line": ("m,C,0,0,0,0.5\nm,C,1,0,0,-0.5\n\n", "c0" + ",0" * 12 + "\n\n"),
        "comma-only row": ("m,C,0,0,0,0.5\n,,,,,\nm,C,1,0,0,-0.5\n",
                           "c0" + ",0" * 12 + "\n" + "," * 12 + "\n"),
        "no final line end": ("m,C,0,0,0,0.5\r\nm,C,1,0,0,-0.5", "c0" + ",0" * 12),
        "mixed LF and CRLF": ("m,C,0,0,0,0.5\r\nm,C,1,0,0,-0.5\nn,O,2,0,0,0\r\n",
                              "c0" + ",0" * 12 + "\r\nc1" + ",0" * 12 + "\nc2" + ",0" * 12
                              + "\r\n"),
        "CR as last byte": ("m,C,0,0,0,0.5\nm,C,1,0,0,-0.5\r", "c0" + ",0" * 12 + "\r"),
        "multi-byte UTF-8": ("m\u00e9\u20ac\U0001d11e,\u03a9,0,0,0,0.5\nm,C,1,0,0,-0.5\n",
                             "c\u00e9\u20ac\U0001d11e" + ",0" * 12 + "\nc1" + ",0" * 12 + "\n"),
        "quoted line break": QUOTED_LINE_BREAK,
        "header only": ("", ""),
        "blank lines only": ("\n\r\n", "\n"),
        "one row": ("m,C,0,0,0,0.5\n", "c0" + ",0" * 12 + "\n"),
    }
    # the valid edge cases that the one split must take
    PLAIN_EDGES = {"mixed LF and CRLF", "multi-byte UTF-8", "no final line end", "header only",
                   "one row", "trailing blank line", "blank lines only"}

    @pytest.mark.parametrize("case", sorted(EDGE_BODIES))
    @pytest.mark.parametrize("fmt", ["csv-atoms", "cache"])
    def test_edge_case_matches_reference(self, tmp_path, fmt, case):
        atoms, cache = self.EDGE_BODIES[case]
        header = mpe.CSV_ATOM_COLUMNS if fmt == "csv-atoms" else mpe.CACHE_COLUMNS
        path = tmp_path / "f.csv"
        path.write_bytes((",".join(header) + "\n" + (atoms if fmt == "csv-atoms" else cache))
                         .encode())
        self._assert_matches(path, fmt, plain=case in self.PLAIN_EDGES)

    @pytest.mark.parametrize("fmt", ["csv-atoms", "cache"])
    def test_error_after_quoted_line_break_names_physical_line(self, tmp_path, fmt):
        atoms, cache = self.QUOTED_LINE_BREAK
        header = mpe.CSV_ATOM_COLUMNS if fmt == "csv-atoms" else mpe.CACHE_COLUMNS
        path = tmp_path / "q.csv"
        path.write_text(",".join(header) + "\n" + (atoms if fmt == "csv-atoms" else cache))
        what = "x coordinate" if fmt == "csv-atoms" else "descriptor"
        with pytest.raises(MoleculeParseError, match=rf"^{path}:6: unparseable {what} 'x'$"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path)

    def test_one_field_acceptance_set_matches_reference(self, tmp_path):
        # One-row files whose x, y, z or charge field is 1{c}, {c}1 or 1{c}5,
        # for every ASCII character, every whitespace character up to U+3000
        # and some non-ASCII decimal digits: numpy's text reader and float()
        # must not be told apart.
        chars = {chr(i) for i in range(128)} | {chr(i) for i in range(0x3001) if chr(i).isspace()}
        chars |= set("\u0661\u06f5\u0967\uff11\U0001d7ce")
        cases = itertools.product(sorted(chars), ["1{}", "{}1", "1{}5"], range(2, 6))
        for n, (c, form, field) in enumerate(cases):
            fields = ["m", "C", "0", "0", "0", "0"]
            fields[field] = form.format(c)
            path = tmp_path / f"{n}.csv"
            path.write_bytes((",".join(mpe.CSV_ATOM_COLUMNS) + "\n" + ",".join(fields) + "\n")
                             .encode())
            assert _outcome(lambda p: _as_tuples(parse_molecules(p)), path) \
                == _outcome(reference_csv_atoms, path), (c, form, field)

    @pytest.mark.parametrize("fmt", ["csv-atoms", "cache"])
    def test_padded_header_matches_reference(self, tmp_path, fmt):
        header = mpe.CSV_ATOM_COLUMNS if fmt == "csv-atoms" else mpe.CACHE_COLUMNS
        row = "m,C,0,0,0,0.5" if fmt == "csv-atoms" else "c0" + ",0" * 12
        path = tmp_path / "f.csv"
        path.write_text(", ".join(f" {h}" for h in header) + " \n" + row + "\n")
        self._assert_matches(path, fmt)

    @pytest.mark.parametrize("fmt", ["csv-atoms", "cache"])
    def test_line_over_field_size_limit(self, tmp_path, fmt):
        # Under a lowered limit every line below is too long for the one
        # split, but only the second file holds a field that is: the csv
        # module reads the first as the reference does and rejects the
        # second at that field's line.
        header = mpe.CSV_ATOM_COLUMNS if fmt == "csv-atoms" else mpe.CACHE_COLUMNS
        path = tmp_path / "f.csv"
        old = csv.field_size_limit(20)
        try:
            for mol_id in ("m" * 10, "m" * 21):
                row = f"{mol_id},C,0,0,0,0.5" if fmt == "csv-atoms" else mol_id + ",0" * 12
                path.write_text(",".join(header) + "\n" + row + "\n")
                if len(mol_id) <= 20:
                    self._assert_matches(path, fmt)
                    continue
                with pytest.raises(MoleculeParseError,
                                   match=rf"^{path}:2: field larger than field limit \(20\)"):
                    if fmt == "cache":
                        mpe.read_descriptor_cache(path)
                    else:
                        parse_molecules(path)
        finally:
            csv.field_size_limit(old)
        assert csv.field_size_limit() == old

    @staticmethod
    def _assert_matches(path, fmt, plain=False):
        """The file reads as the reference reads it; when ``plain``, it is
        valid and splits without the csv module."""
        reference, read = (
            (reference_csv_atoms, lambda p: _as_tuples(parse_molecules(p)))
            if fmt == "csv-atoms" else
            (reference_cache, lambda p: _cache_bytes(mpe.read_descriptor_cache(p))))
        want = _outcome(reference, path)
        with pytest.MonkeyPatch.context() as m:
            if plain:
                assert want[0] == "ok"
                m.setattr(csv, "reader", _refuse)
            got = _outcome(read, path)
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
        path = tmp_path / ("f.mol2" if fmt == "mol2-subset" else "f")
        path.write_bytes((head + body).encode() + b"\xff\n")
        with pytest.raises(MoleculeParseError, match=r":2: unparseable"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path)

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
        path = tmp_path / ("f.mol2" if fmt == "mol2-subset" else "f")
        path.write_bytes("\n".join(lines).encode() + b"\xff\n")
        with pytest.raises(MoleculeParseError, match=rf"^{path}:2: unparseable"):
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path)

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
        path = tmp_path / ("f.mol2" if fmt == "mol2-subset" else "f")
        path.write_bytes(text.encode() + b"c\xff,0\n" + b"more\n")
        line = text.count("\n") + 1
        with pytest.raises(MoleculeParseError, match=rf"^{path}:{line}: cannot decode") as err:
            if fmt == "cache":
                mpe.read_descriptor_cache(path)
            else:
                parse_molecules(path)
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
                parse_molecules(path)
