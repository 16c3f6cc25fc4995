"""Builders for the reaction fixture systems used across the test suite.

Each reaction system carries a shared atom-type table (one Masses universe
per reaction, the way a harmonized force-field parameterization would) and
per-molecule connectivity.  Data-file text is generated deterministically:
angles and dihedrals are enumerated from the bond graph, interaction type
ids are assigned from canonical type signatures, and coordinates follow a
fixed synthetic layout (only connectivity and typing matter here).

Systems:

* urethane poly-addition: diisocyanate + butanediol -> single adduct.
  The reacting isocyanate group, the phenyl ring it sits on (the type
  table distinguishes isocyanate- from urethane-substituted rings) and
  the attacking hydroxyl change type; 30 of 45 atoms stay conserved.
* amide poly-condensation: triacid + aromatic diamine -> amide + water.
  The water atoms (OH oxygen, its hydrogen, one amine hydrogen) vanish.
* chain addition: two butenes -> octane, two hydrogens appear.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

MASS_C = 12.011
MASS_H = 1.008
MASS_O = 15.999
MASS_N = 14.007


@dataclass
class MolSpec:
    name: str
    type_of: dict[int, int]
    charge_of: dict[int, float]
    bonds: list[tuple[int, int]]
    impropers: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def atom_count(self) -> int:
        return len(self.type_of)

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in self.type_of}
        for a, b in self.bonds:
            adj[a].append(b)
            adj[b].append(a)
        return {i: sorted(nbrs) for i, nbrs in adj.items()}


@dataclass
class ReactionSystem:
    name: str
    masses: dict[int, float]
    type_names: dict[int, str]
    reactants: list[MolSpec]
    products: list[MolSpec]


def _enumerate_angles(mol: MolSpec) -> list[tuple[int, int, int]]:
    adj = mol.neighbors()
    angles = []
    for center in sorted(adj):
        nbrs = adj[center]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                angles.append((nbrs[i], center, nbrs[j]))
    return angles


def _enumerate_dihedrals(mol: MolSpec) -> list[tuple[int, int, int, int]]:
    adj = mol.neighbors()
    seen = set()
    dihedrals = []
    for b, c in sorted((min(e), max(e)) for e in mol.bonds):
        for a in adj[b]:
            if a == c:
                continue
            for d in adj[c]:
                if d == b or d == a:
                    continue
                quad = (a, b, c, d)
                key = min(quad, quad[::-1])
                if key not in seen:
                    seen.add(key)
                    dihedrals.append(key)
    return sorted(dihedrals)


class _TypeRegistry:
    """Canonical signature -> interaction type id, first come first served."""

    def __init__(self) -> None:
        self.ids: dict[tuple[int, ...], int] = {}

    def of(self, signature: tuple[int, ...]) -> int:
        canonical = min(signature, signature[::-1])
        if canonical not in self.ids:
            self.ids[canonical] = len(self.ids) + 1
        return self.ids[canonical]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class _Registries:
    bonds: _TypeRegistry = field(default_factory=_TypeRegistry)
    angles: _TypeRegistry = field(default_factory=_TypeRegistry)
    dihedrals: _TypeRegistry = field(default_factory=_TypeRegistry)
    impropers: _TypeRegistry = field(default_factory=_TypeRegistry)


def _coords(i: int) -> tuple[float, float, float]:
    return (1.54 * i, 0.5 * (i % 3), 0.35 * (i % 7))


def emit_data_file(mol: MolSpec, system: ReactionSystem, registries: _Registries) -> str:
    """Render one molecule as a LAMMPS data file (full atom style)."""
    angles = _enumerate_angles(mol)
    dihedrals = _enumerate_dihedrals(mol)
    sig = mol.type_of

    bond_rows = [
        (registries.bonds.of((sig[a], sig[b])), (a, b)) for a, b in mol.bonds
    ]
    angle_rows = [
        (registries.angles.of((sig[a], sig[b], sig[c])), (a, b, c)) for a, b, c in angles
    ]
    dihedral_rows = [
        (registries.dihedrals.of((sig[a], sig[b], sig[c], sig[d])), (a, b, c, d))
        for a, b, c, d in dihedrals
    ]
    improper_rows = [
        (registries.impropers.of((sig[a], sig[b], sig[c], sig[d])), (a, b, c, d))
        for a, b, c, d in mol.impropers
    ]

    out = [f"# {system.name}: {mol.name}", ""]
    out.append(f"{mol.atom_count} atoms")
    out.append(f"{len(bond_rows)} bonds")
    out.append(f"{len(angle_rows)} angles")
    out.append(f"{len(dihedral_rows)} dihedrals")
    out.append(f"{len(improper_rows)} impropers")
    out.append(f"{len(system.masses)} atom types")
    out.append(f"{max(len(registries.bonds), 1)} bond types")
    out.append(f"{max(len(registries.angles), 1)} angle types")
    out.append(f"{max(len(registries.dihedrals), 1)} dihedral types")
    out.append(f"{max(len(registries.impropers), 1)} improper types")
    out.append("")
    out.append("0.000000 50.000000 xlo xhi")
    out.append("0.000000 50.000000 ylo yhi")
    out.append("0.000000 50.000000 zlo zhi")
    out.append("")
    out.append("Masses")
    out.append("")
    for type_id in sorted(system.masses):
        out.append(f"{type_id} {system.masses[type_id]} # {system.type_names[type_id]}")
    out.append("")
    out.append("Atoms # full")
    out.append("")
    for atom_id in sorted(mol.type_of):
        x, y, z = _coords(atom_id)
        out.append(
            f"{atom_id} 1 {mol.type_of[atom_id]} {mol.charge_of[atom_id]:.6f} "
            f"{x:.6f} {y:.6f} {z:.6f}"
        )
    out.append("")
    for section, rows in (
        ("Bonds", bond_rows),
        ("Angles", angle_rows),
        ("Dihedrals", dihedral_rows),
        ("Impropers", improper_rows),
    ):
        if not rows:
            continue
        out.append(section)
        out.append("")
        for i, (type_id, members) in enumerate(rows, start=1):
            out.append(f"{i} {type_id} " + " ".join(str(m) for m in members))
        out.append("")
    return "\n".join(out)


def _ring_impropers(ring: list[int], adj: dict[int, list[int]]) -> list[tuple[int, int, int, int]]:
    rows = []
    for center in ring:
        others = [n for n in adj[center]]
        if len(others) == 3:
            rows.append((center, others[0], others[1], others[2]))
    return rows


# --------------------------------------------------------------------------
# urethane poly-addition
# --------------------------------------------------------------------------

_PA_TYPES = {
    1: ("CA_i", MASS_C),   # aromatic C, isocyanate-substituted ring
    2: ("HA_i", MASS_H),
    3: ("C_nco", MASS_C),
    4: ("O_nco", MASS_O),
    5: ("N_nco", MASS_N),
    6: ("CT_benzyl", MASS_C),
    7: ("HC", MASS_H),
    8: ("CT_ol", MASS_C),  # aliphatic C bonded to an oxygen
    9: ("CT", MASS_C),
    10: ("OH", MASS_O),
    11: ("HO", MASS_H),
    12: ("CA_u", MASS_C),  # aromatic C, urethane-substituted ring
    13: ("HA_u", MASS_H),
    14: ("C_u", MASS_C),   # urethane carbonyl C
    15: ("O_u", MASS_O),
    16: ("N_u", MASS_N),
    17: ("H_nu", MASS_H),
    18: ("OS", MASS_O),    # ester oxygen
}


def _diisocyanate() -> MolSpec:
    type_of = {
        1: 4, 2: 3, 3: 5,
        4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1,
        10: 2, 11: 2, 12: 2, 13: 2,
        14: 6, 15: 7, 16: 7,
        17: 1, 18: 1, 19: 1, 20: 1, 21: 1, 22: 1,
        23: 2, 24: 2, 25: 2, 26: 2,
        27: 5, 28: 3, 29: 4,
    }
    charge_of = {
        1: -0.4, 2: 0.5, 3: -0.5,
        4: 0.2, 5: -0.115, 6: -0.115, 7: 0.1, 8: -0.115, 9: -0.115,
        10: 0.115, 11: 0.115, 12: 0.115, 13: 0.115,
        14: 0.2, 15: 0.0, 16: 0.0,
        17: 0.1, 18: -0.115, 19: -0.115, 20: 0.2, 21: -0.115, 22: -0.115,
        23: 0.115, 24: 0.115, 25: 0.115, 26: 0.115,
        27: -0.5, 28: 0.5, 29: -0.4,
    }
    bonds = [
        (1, 2), (2, 3), (3, 4),
        (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
        (5, 10), (6, 11), (8, 12), (9, 13),
        (7, 14), (14, 15), (14, 16), (14, 17),
        (17, 18), (18, 19), (19, 20), (20, 21), (21, 22), (22, 17),
        (18, 23), (19, 24), (21, 25), (22, 26),
        (20, 27), (27, 28), (28, 29),
    ]
    mol = MolSpec("diisocyanate", type_of, charge_of, bonds)
    adj = mol.neighbors()
    mol.impropers = _ring_impropers([4, 5, 6, 7, 8, 9], adj) + _ring_impropers(
        [17, 18, 19, 20, 21, 22], adj
    )
    return mol


def _butanediol() -> MolSpec:
    type_of = {
        1: 10, 2: 11,
        3: 8, 4: 7, 5: 7,
        6: 9, 7: 7, 8: 7,
        9: 9, 10: 7, 11: 7,
        12: 8, 13: 7, 14: 7,
        15: 10, 16: 11,
    }
    charge_of = {
        1: -0.6, 2: 0.4,
        3: 0.15, 4: 0.0, 5: 0.0,
        6: 0.05, 7: 0.0, 8: 0.0,
        9: 0.05, 10: 0.0, 11: 0.0,
        12: 0.15, 13: 0.0, 14: 0.0,
        15: -0.6, 16: 0.4,
    }
    bonds = [
        (1, 2), (1, 3), (3, 4), (3, 5), (3, 6),
        (6, 7), (6, 8), (6, 9), (9, 10), (9, 11),
        (9, 12), (12, 13), (12, 14), (12, 15), (15, 16),
    ]
    return MolSpec("butanediol", type_of, charge_of, bonds)


def _urethane_adduct() -> MolSpec:
    """Diisocyanate (ids 1..29) + butanediol (ids 30..45) after addition.

    The reacting isocyanate (atoms 1..3) turns into the urethane group, its
    ring (4..13) is retyped, the attacking hydroxyl oxygen becomes the ester
    oxygen and its proton moves to the nitrogen.
    """
    mdi = _diisocyanate()
    bd = _butanediol()
    type_of = dict(mdi.type_of)
    charge_of = dict(mdi.charge_of)
    type_of.update({1: 15, 2: 14, 3: 16})
    charge_of.update({1: -0.45, 2: 0.65, 3: -0.6})
    for ring_atom in (4, 5, 6, 7, 8, 9):
        type_of[ring_atom] = 12
    for ring_h in (10, 11, 12, 13):
        type_of[ring_h] = 13
    charge_of[4] = 0.25
    for atom_id in bd.type_of:
        type_of[29 + atom_id] = bd.type_of[atom_id]
        charge_of[29 + atom_id] = bd.charge_of[atom_id]
    type_of[30] = 18   # hydroxyl O -> ester O
    type_of[31] = 17   # its proton now sits on the nitrogen
    charge_of[30] = -0.45
    charge_of[31] = 0.35
    charge_of[32] = 0.2

    bonds = list(mdi.bonds)
    bonds += [(29 + a, 29 + b) for a, b in bd.bonds if (a, b) != (1, 2)]
    bonds += [(2, 30), (3, 31)]
    mol = MolSpec("urethane adduct", type_of, charge_of, bonds)
    adj = mol.neighbors()
    mol.impropers = _ring_impropers([4, 5, 6, 7, 8, 9], adj) + _ring_impropers(
        [17, 18, 19, 20, 21, 22], adj
    )
    return mol


def polyaddition_system() -> ReactionSystem:
    return ReactionSystem(
        name="urethane poly-addition",
        masses={t: mass for t, (_, mass) in _PA_TYPES.items()},
        type_names={t: name for t, (name, _) in _PA_TYPES.items()},
        reactants=[_diisocyanate(), _butanediol()],
        products=[_urethane_adduct()],
    )


# --------------------------------------------------------------------------
# amide poly-condensation
# --------------------------------------------------------------------------

_PC_TYPES = {
    1: ("c3_CH", MASS_C),
    2: ("c3_CH2", MASS_C),
    3: ("hc", MASS_H),
    4: ("c_acid", MASS_C),
    5: ("o_acid", MASS_O),
    6: ("oh", MASS_O),
    7: ("ho", MASS_H),
    8: ("ca", MASS_C),
    9: ("ha", MASS_H),
    10: ("nh", MASS_N),
    11: ("hn", MASS_H),
    12: ("c_amide", MASS_C),
    13: ("o_amide", MASS_O),
    14: ("n_amide", MASS_N),
}


def _triacid() -> MolSpec:
    type_of = {
        1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2,
        7: 4, 8: 5, 9: 6, 10: 7,
        11: 4, 12: 5, 13: 6, 14: 7,
        15: 4, 16: 5, 17: 6, 18: 7,
        19: 3, 20: 3, 21: 3, 22: 3, 23: 3, 24: 3, 25: 3, 26: 3, 27: 3,
    }
    charge_of = {
        1: 0.0, 2: -0.05, 3: 0.0, 4: -0.05, 5: 0.0, 6: -0.05,
        7: 0.65, 8: -0.55, 9: -0.6, 10: 0.45,
        11: 0.65, 12: -0.55, 13: -0.6, 14: 0.45,
        15: 0.65, 16: -0.55, 17: -0.6, 18: 0.45,
        19: 0.05, 20: 0.025, 21: 0.025, 22: 0.05, 23: 0.025, 24: 0.025,
        25: 0.05, 26: 0.025, 27: 0.025,
    }
    bonds = [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
        (1, 7), (7, 8), (7, 9), (9, 10),
        (3, 11), (11, 12), (11, 13), (13, 14),
        (5, 15), (15, 16), (15, 17), (17, 18),
        (1, 19), (2, 20), (2, 21), (3, 22), (4, 23), (4, 24),
        (5, 25), (6, 26), (6, 27),
    ]
    return MolSpec("cyclohexane triacid", type_of, charge_of, bonds)


def _diamine() -> MolSpec:
    type_of = {
        1: 8, 2: 8, 3: 8, 4: 8, 5: 8, 6: 8,
        7: 10, 8: 11, 9: 11,
        10: 10, 11: 11, 12: 11,
        13: 9, 14: 9, 15: 9, 16: 9,
    }
    charge_of = {
        1: 0.1, 2: -0.1, 3: 0.1, 4: -0.1, 5: -0.1, 6: -0.1,
        7: -0.9, 8: 0.4, 9: 0.4,
        10: -0.9, 11: 0.4, 12: 0.4,
        13: 0.1, 14: 0.1, 15: 0.1, 16: 0.1,
    }
    bonds = [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
        (1, 7), (7, 8), (7, 9),
        (3, 10), (10, 11), (10, 12),
        (2, 13), (4, 14), (5, 15), (6, 16),
    ]
    mol = MolSpec("aromatic diamine", type_of, charge_of, bonds)
    mol.impropers = _ring_impropers([1, 2, 3, 4, 5, 6], mol.neighbors())
    return mol


def _amide_product() -> MolSpec:
    """Triacid + diamine after amide formation and water loss.

    Triacid atoms keep their order (the reacted hydroxyl oxygen 9 and its
    proton 10 are gone, later ids shift down by two); diamine atoms follow
    with one amine hydrogen (old id 9) eliminated.
    """
    acid = _triacid()
    amine = _diamine()

    acid_new = {}
    for old in sorted(acid.type_of):
        if old in (9, 10):
            continue
        acid_new[old] = old if old < 9 else old - 2
    amine_new = {}
    offset = len(acid_new)  # 25
    skipped = 0
    for old in sorted(amine.type_of):
        if old == 9:
            skipped = 1
            continue
        amine_new[old] = offset + old - skipped

    type_of = {}
    charge_of = {}
    for old, new in acid_new.items():
        type_of[new] = acid.type_of[old]
        charge_of[new] = acid.charge_of[old]
    for old, new in amine_new.items():
        type_of[new] = amine.type_of[old]
        charge_of[new] = amine.charge_of[old]

    type_of[acid_new[7]] = 12    # amide carbonyl C
    type_of[acid_new[8]] = 13    # amide O
    type_of[amine_new[7]] = 14   # amide N; its proton keeps the shared hn type
    charge_of[acid_new[7]] = 0.6
    charge_of[acid_new[8]] = -0.5
    charge_of[amine_new[7]] = -0.5
    charge_of[amine_new[8]] = 0.3

    bonds = []
    for a, b in acid.bonds:
        if 9 in (a, b) or 10 in (a, b):
            continue
        bonds.append((acid_new[a], acid_new[b]))
    for a, b in amine.bonds:
        if 9 in (a, b):
            continue
        bonds.append((amine_new[a], amine_new[b]))
    bonds.append((acid_new[7], amine_new[7]))

    mol = MolSpec("amide adduct", type_of, charge_of, bonds)
    ring = [amine_new[i] for i in (1, 2, 3, 4, 5, 6)]
    mol.impropers = _ring_impropers(ring, mol.neighbors())
    return mol


def polycondensation_system() -> ReactionSystem:
    return ReactionSystem(
        name="amide poly-condensation",
        masses={t: mass for t, (_, mass) in _PC_TYPES.items()},
        type_names={t: name for t, (name, _) in _PC_TYPES.items()},
        reactants=[_triacid(), _diamine()],
        products=[_amide_product()],
    )


# --------------------------------------------------------------------------
# chain addition (two butenes to octane)
# --------------------------------------------------------------------------

_CH_TYPES = {
    1: ("c2", MASS_C),
    2: ("c3", MASS_C),
    3: ("ha", MASS_H),
    4: ("hc", MASS_H),
}


def _butene() -> MolSpec:
    type_of = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 4, 9: 4, 10: 4, 11: 4, 12: 4}
    charge_of = {
        1: -0.2, 2: -0.1, 3: -0.12, 4: -0.18,
        5: 0.1, 6: 0.1, 7: 0.1,
        8: 0.06, 9: 0.06, 10: 0.06, 11: 0.06, 12: 0.06,
    }
    bonds = [
        (1, 2), (2, 3), (3, 4),
        (1, 5), (1, 6), (2, 7),
        (3, 8), (3, 9), (4, 10), (4, 11), (4, 12),
    ]
    return MolSpec("butene", type_of, charge_of, bonds)


def _octane() -> MolSpec:
    type_of = {i: 2 for i in range(1, 9)}
    type_of.update({i: 4 for i in range(9, 27)})
    charge_of = {1: -0.18, 8: -0.18}
    charge_of.update({i: -0.12 for i in range(2, 8)})
    charge_of.update({i: 0.06 for i in range(9, 27)})
    bonds = [(i, i + 1) for i in range(1, 8)]
    bonds += [(1, 9), (1, 10), (1, 11)]
    hydrogen = 12
    for carbon in range(2, 8):
        bonds += [(carbon, hydrogen), (carbon, hydrogen + 1)]
        hydrogen += 2
    bonds += [(8, 24), (8, 25), (8, 26)]
    return MolSpec("octane", type_of, charge_of, bonds)


def chain_system() -> ReactionSystem:
    butene = _butene()
    return ReactionSystem(
        name="chain addition",
        masses={t: mass for t, (_, mass) in _CH_TYPES.items()},
        type_names={t: name for t, (name, _) in _CH_TYPES.items()},
        reactants=[butene, butene],
        products=[_octane()],
    )


SYSTEM_BUILDERS = {
    "polyaddition": polyaddition_system,
    "polycondensation": polycondensation_system,
    "chain": chain_system,
}

FIXTURE_FILES = {
    "polyaddition": (("mdi.data", "bd.data"), ("polyaddition_product.data",)),
    "polycondensation": (("ht.data", "mpd.data"), ("polycondensation_product.data",)),
    "chain": (("butene.data", "butene.data"), ("octane.data",)),
}


def render_system(system: ReactionSystem) -> tuple[list[str], list[str]]:
    """Data-file texts for (reactants, products) with shared type registries."""
    registries = _Registries()
    reactant_texts = [emit_data_file(mol, system, registries) for mol in system.reactants]
    product_texts = [emit_data_file(mol, system, registries) for mol in system.products]
    return reactant_texts, product_texts


def topology_system(name: str, reactants: list, products: list) -> ReactionSystem:
    """Parsed or generated topologies of a reaction as a system.

    Atom ids, types, charges and bonds are kept; the angles and dihedrals
    are enumerated anew from the bonds when the system is rendered.
    """
    masses = {t: m for topology in (*reactants, *products) for t, m in topology.masses.items()}

    def spec(position: int, topology) -> MolSpec:
        ids = topology.atoms["atom_id"].tolist()
        return MolSpec(
            f"molecule {position}",
            dict(zip(ids, topology.atoms["type_id"].tolist())),
            dict(zip(ids, topology.atoms["charge"].tolist())),
            list(map(tuple, topology.bonds[:, 1:].tolist())),
        )

    return ReactionSystem(
        name,
        masses,
        {t: f"type {t}" for t in masses},
        [spec(k, topology) for k, topology in enumerate(reactants, start=1)],
        [spec(k, topology) for k, topology in enumerate(products, start=1)],
    )


def write_system(system: ReactionSystem, target_dir: str) -> tuple[list[str], list[str]]:
    """Write a system's data files, named after it; returns the (reactant,
    product) paths."""

    def write(side: str, texts: list[str]) -> list[str]:
        paths = []
        for k, text in enumerate(texts, start=1):
            paths.append(os.path.join(target_dir, f"{system.name}-{side}{k}.data"))
            with open(paths[-1], "w", encoding="ascii", newline="\n") as handle:
                handle.write(text)
        return paths

    reactant_texts, product_texts = render_system(system)
    return write("r", reactant_texts), write("p", product_texts)


def write_fixture_files(target_dir: str) -> list[str]:
    """Write all committed fixture data files; returns the paths written."""
    written = []
    for key, builder in SYSTEM_BUILDERS.items():
        system = builder()
        reactant_names, product_names = FIXTURE_FILES[key]
        reactant_texts, product_texts = render_system(system)
        for names, texts in ((reactant_names, reactant_texts), (product_names, product_texts)):
            for name, text in zip(dict.fromkeys(names), texts):
                path = os.path.join(target_dir, name)
                with open(path, "w", encoding="ascii", newline="\n") as handle:
                    handle.write(text)
                written.append(path)
    return written


if __name__ == "__main__":
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    os.makedirs(target, exist_ok=True)
    for path in write_fixture_files(target):
        print(path)
