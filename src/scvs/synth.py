"""Seeded synthetic screening benchmark.

Ten pseudo-targets in descriptor space: each target owns a cluster center,
actives are Gaussian draws around it (re-sorted to keep the descriptor
ordering invariants), decoys are uniform over the global descriptor range,
and the crystal ligand is one extra active draw.  Desk-scale stand-in for a
real corpus: separable enough for a small net to rank well, noisy enough not
to be trivial.

Each descriptor vector can also be realized as an actual molecule (twelve
isolated atom pairs with charges solving E = K q^2 / r), so the benchmark
can exercise the full parse -> descriptor -> train -> quantize -> evaluate
pipeline end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import mpe
from .mpe import Molecule, MpeVector
from .screening import TargetData

POS_RANGE = (20.0, 260.0)
NEG_RANGE = (-260.0, -20.0)
ACTIVE_NOISE = 14.0
_PAIR_SPACING = 1.0e5  # Angstrom between realized atom pairs; cross terms < 0.01


def _sorted_vector(pos_vals: np.ndarray, neg_vals: np.ndarray) -> MpeVector:
    pos = np.sort(np.maximum(pos_vals, 1.0))[::-1]
    neg = np.sort(np.minimum(neg_vals, -1.0))
    return MpeVector(pos, neg)


def _active(rng, center: np.ndarray) -> MpeVector:
    noisy = center + rng.normal(0.0, ACTIVE_NOISE, size=12)
    return _sorted_vector(noisy[:6], noisy[6:])


def _decoy(rng) -> MpeVector:
    return _sorted_vector(rng.uniform(*POS_RANGE, size=6), rng.uniform(*NEG_RANGE, size=6))


def make_benchmark(seed: int = 2024, n_targets: int = 10, n_actives: int = 60,
                   n_decoys: int = 300) -> list:
    """Deterministic list of descriptor-level targets."""
    rng = np.random.default_rng(seed)
    targets = []
    for t in range(n_targets):
        center = np.concatenate([
            np.sort(rng.uniform(*POS_RANGE, size=6))[::-1],
            np.sort(rng.uniform(*NEG_RANGE, size=6)),
        ])
        tid = f"synt{t:02d}"
        crystal = _active(rng, center)
        compounds = [(f"{tid}_a{i:03d}", _active(rng, center), 1) for i in range(n_actives)]
        compounds += [(f"{tid}_d{i:03d}", _decoy(rng), 0) for i in range(n_decoys)]
        targets.append(TargetData(tid, crystal, compounds))
    return targets


def realize_molecule(vec: MpeVector, mol_id: str, k: float = mpe.DEFAULT_K) -> Molecule:
    """A molecule whose pairing-energy descriptor reproduces ``vec``.

    Twelve atom pairs at unit distance, far enough apart that cross-pair
    energies (< 0.01) never displace the intended extremes."""
    xs, charges = [], []
    slot = 0
    for e in np.concatenate([vec.positives, vec.negatives]):
        if e == 0.0:
            continue
        q = float(np.sqrt(abs(e) / k))
        x = slot * _PAIR_SPACING
        xs += [x - 0.5, x + 0.5]
        charges += [q, q if e > 0 else -q]
        slot += 1
    if not xs:
        xs, charges = [0.0], [0.0]
    positions = np.zeros((len(xs), 3))
    positions[:, 0] = xs
    return Molecule(mol_id, positions, charges, ("C",) * len(xs))


def _write_csv_atoms(path: Path, molecules) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(mpe.CSV_ATOM_COLUMNS)
        for m in molecules:
            for element, xyz, q in zip(m.elements, m.positions.tolist(), m.charges.tolist()):
                w.writerow([m.id, element, *(format(v, ".9g") for v in xyz), format(q, ".9g")])


def write_benchmark(out_dir, seed: int = 2024, n_targets: int = 10,
                    n_actives: int = 60, n_decoys: int = 300,
                    k: float = mpe.DEFAULT_K) -> Path:
    """Materialize the benchmark as csv-atoms files plus a target manifest;
    returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for t in make_benchmark(seed, n_targets, n_actives, n_decoys):
        tdir = out_dir / t.target_id
        tdir.mkdir(exist_ok=True)
        crystal = realize_molecule(t.crystal, f"{t.target_id}_crystal", k)
        actives = [realize_molecule(v, cid, k) for cid, v, l in t.compounds if l == 1]
        decoys = [realize_molecule(v, cid, k) for cid, v, l in t.compounds if l == 0]
        _write_csv_atoms(tdir / "crystal.csv", [crystal])
        _write_csv_atoms(tdir / "actives.csv", actives)
        _write_csv_atoms(tdir / "decoys.csv", decoys)
        manifest.append({
            "target_id": t.target_id,
            "crystal_ligand": str(tdir / "crystal.csv"),
            "actives": str(tdir / "actives.csv"),
            "decoys": str(tdir / "decoys.csv"),
        })
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump({"seed": seed, "targets": manifest}, fh, indent=1)
        fh.write("\n")
    return path
