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

from pathlib import Path

import numpy as np

from . import mpe
from .ref_nn import write_json
from .screening import TargetData

POS_RANGE = (20.0, 260.0)
NEG_RANGE = (-260.0, -20.0)
ACTIVE_NOISE = 14.0
_PAIR_SPACING = 1.0e5  # Angstrom between realized atom pairs; cross terms < 0.01


# Per-column draw bounds and signs of a descriptor row: six positive values,
# then six negative ones.
_LOW = np.repeat([POS_RANGE[0], NEG_RANGE[0]], 6)
_HIGH = np.repeat([POS_RANGE[1], NEG_RANGE[1]], 6)
_SIGN = np.repeat([1.0, -1.0], 6)


def _sorted_rows(draws: np.ndarray) -> np.ndarray:
    """Descriptor rows from (k, 12) draws: positives clamped to >= 1 and
    descending, then negatives clamped to <= -1 and ascending, that is each
    side by magnitude, largest first."""
    magnitudes = np.maximum(draws * _SIGN, 1.0).reshape(-1, 2, 6)
    return np.sort(magnitudes, axis=-1)[..., ::-1].reshape(-1, 12) * _SIGN


def make_benchmark(seed: int = 2024, n_targets: int = 10, n_actives: int = 60,
                   n_decoys: int = 300) -> list:
    """Deterministic list of descriptor-level targets."""
    rng = np.random.default_rng(seed)
    targets = []
    for t in range(n_targets):
        center = _sorted_rows(rng.uniform(_LOW, _HIGH, size=(1, 12)))  # |draws| >= 20: no clamp
        crystal, *actives = _sorted_rows(
            center + rng.normal(0.0, ACTIVE_NOISE, size=(1 + n_actives, 12)))
        decoys = _sorted_rows(rng.uniform(_LOW, _HIGH, size=(n_decoys, 12)))
        tid = f"synt{t:02d}"
        compounds = [(f"{tid}_a{i:03d}", v, 1) for i, v in enumerate(actives)]
        compounds += [(f"{tid}_d{i:03d}", v, 0) for i, v in enumerate(decoys)]
        targets.append(TargetData(tid, crystal, compounds))
    return targets


def realize_molecule(vec: np.ndarray, mol_id: str) -> mpe.MoleculeTable:
    """A one-molecule table whose pairing-energy descriptor reproduces ``vec``.

    Twelve atom pairs at unit distance, far enough apart that cross-pair
    energies (< 0.01) never displace the intended extremes."""
    xs, charges = [], []
    slot = 0
    for e in vec:
        if e == 0.0:
            continue
        q = float(np.sqrt(abs(e) / mpe.DEFAULT_K))
        x = slot * _PAIR_SPACING
        xs += [x - 0.5, x + 0.5]
        charges += [q, q if e > 0 else -q]
        slot += 1
    if not xs:
        xs, charges = [0.0], [0.0]
    positions = np.zeros((len(xs), 3))
    positions[:, 0] = xs
    return mpe.MoleculeTable([mol_id], np.array([0, len(xs)]), positions, np.array(charges),
                             ["C"] * len(xs))


def write_benchmark(out_dir, seed: int = 2024, n_targets: int = 10,
                    n_actives: int = 60, n_decoys: int = 300) -> Path:
    """Materialize the benchmark as csv-atoms files plus a target manifest;
    returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for t in make_benchmark(seed, n_targets, n_actives, n_decoys):
        tdir = out_dir / t.target_id
        tdir.mkdir(exist_ok=True)
        crystal = realize_molecule(t.crystal, f"{t.target_id}_crystal")
        actives = [realize_molecule(v, cid) for cid, v, l in t.compounds if l == 1]
        decoys = [realize_molecule(v, cid) for cid, v, l in t.compounds if l == 0]
        mpe.write_csv_atoms(tdir / "crystal.csv", [crystal])
        mpe.write_csv_atoms(tdir / "actives.csv", actives)
        mpe.write_csv_atoms(tdir / "decoys.csv", decoys)
        manifest.append({
            "target_id": t.target_id,
            "crystal_ligand": str(tdir / "crystal.csv"),
            "actives": str(tdir / "actives.csv"),
            "decoys": str(tdir / "decoys.csv"),
        })
    path = out_dir / "manifest.json"
    write_json({"seed": seed, "targets": manifest}, path)
    return path
