"""Readers and writers for the LAMMPS text formats used by the pipeline.

Three formats are handled:

* data files (read): ``Masses``, ``Atoms`` (full or molecular style),
  ``Bonds`` and the optional ``Angles``/``Dihedrals``/``Impropers`` sections.
  Coefficient and velocity sections are recognized and skipped.
* molecule template files (read/write): ``Coords``, ``Types``, ``Charges``
  plus interaction sections, as consumed by the REACTION machinery.
* reaction map files (write): equivalences, initiator/edge/delete/create ids.

Input text is ASCII outside comments and the title line; output is plain
ASCII with ``\\n`` newlines.  Serialization is deterministic: identical
inputs produce byte-identical output.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from templater.errors import (
    DanglingReference,
    MalformedHeader,
    MalformedLine,
    MissingMass,
    UnknownSection,
    ValidationError,
)

# Charges and coordinates use a fixed width so diffs stay stable.
_FLOAT_FMT = "{:.6f}"

# The interaction sections, in file order.  Each section name maps to its
# header count keyword (also the dataclass field holding its rows), its
# singular noun and the number of atom ids per row.
INTERACTION_SECTIONS = {
    "Bonds": ("bonds", "bond", 2),
    "Angles": ("angles", "angle", 3),
    "Dihedrals": ("dihedrals", "dihedral", 4),
    "Impropers": ("impropers", "improper", 4),
}

# Header counts a molecule template may declare.
_COUNT_KEYWORDS = ("atoms", *(keyword for keyword, _, _ in INTERACTION_SECTIONS.values()))

# Header count phrases in data files, keyed by the trailing keyword text.
_HEADER_KEYWORDS = _COUNT_KEYWORDS + (
    "atom types",
    "bond types",
    "angle types",
    "dihedral types",
    "improper types",
    "extra bond per atom",
    "extra angle per atom",
    "extra dihedral per atom",
    "extra improper per atom",
    "extra special per atom",
)

_BOX_KEYWORDS = ("xlo xhi", "ylo yhi", "zlo zhi", "xy xz yz")

# Sections accepted and skipped untouched (pass-through per the format).
_SKIPPED_SECTIONS = frozenset(
    {
        "Velocities",
        "Pair Coeffs",
        "PairIJ Coeffs",
        "Bond Coeffs",
        "Angle Coeffs",
        "Dihedral Coeffs",
        "Improper Coeffs",
        "BondBond Coeffs",
        "BondAngle Coeffs",
        "MiddleBondTorsion Coeffs",
        "EndBondTorsion Coeffs",
        "AngleTorsion Coeffs",
        "AngleAngleTorsion Coeffs",
        "BondBond13 Coeffs",
        "AngleAngle Coeffs",
    }
)


class AtomRecord(NamedTuple):
    """One row of an Atoms section (full style; molecular implies charge 0)."""

    atom_id: int
    mol_id: int
    type_id: int
    charge: float
    x: float
    y: float
    z: float


@dataclass
class SystemTopology:
    """Full parsed contents of one LAMMPS data file."""

    atoms: list[AtomRecord]
    masses: dict[int, float]
    bonds: list[tuple[int, tuple[int, int]]]
    angles: list[tuple[int, tuple[int, int, int]]] = field(default_factory=list)
    dihedrals: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)
    impropers: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)
    type_counts: dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Check the structural invariants; raise a ParseError subclass."""
        id_counts = Counter(a.atom_id for a in self.atoms)
        if len(id_counts) != len(self.atoms):
            dup = min(i for i, count in id_counts.items() if count > 1)
            raise MalformedLine(f"duplicate atom id {dup}")
        for a in self.atoms:
            if a.type_id not in self.masses:
                raise MissingMass(f"atom type {a.type_id} has no Masses entry")
        found = {"atoms": len(self.atoms)}
        for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
            entries = getattr(self, keyword)
            found[keyword] = len(entries)
            for _type_id, members in entries:
                for atom_id in members:
                    if atom_id not in id_counts:
                        raise DanglingReference(
                            f"{name} entry references missing atom id {atom_id}"
                        )
        for keyword, expected in found.items():
            declared = self.type_counts.get(keyword)
            if declared is not None and declared != expected:
                raise MalformedHeader(
                    f"header declares {declared} {keyword}, found {expected}"
                )


def _parse_header_line(stripped: str) -> tuple[str, int] | None:
    """Return (keyword, count) if the line is a recognized count header."""
    for keyword in _HEADER_KEYWORDS:
        if stripped.endswith(" " + keyword):
            prefix = stripped[: -len(keyword)].strip()
            if " " in prefix:
                return None
            try:
                return keyword, int(prefix)
            except ValueError:
                raise MalformedHeader(f"unparsable count line: {stripped!r}")
    return None


def _is_box_line(stripped: str) -> bool:
    """True for a well-formed box line; the pipeline never reads the box.

    Bound lines need exactly two numbers; triclinic tilt lines take any
    count.  A box line with bad values raises MalformedHeader.
    """
    for keyword in _BOX_KEYWORDS:
        if stripped.endswith(keyword):
            values = stripped[: -len(keyword)].split()
            try:
                for value in values:
                    float(value)
            except ValueError:
                raise MalformedHeader(f"unparsable box line: {stripped!r}")
            if keyword != "xy xz yz" and len(values) != 2:
                raise MalformedHeader(f"unparsable box line: {stripped!r}")
            return True
    return False


def _split_sections(text: str, known: frozenset[str]) -> list[tuple[str, int, list[tuple[int, str]]]]:
    """Split file body into (section name, header line no, body lines).

    The leading block (before the first section) is returned under the name
    ``""``.  Section names are matched case-sensitively against ``known``;
    anything else that looks like a section header raises UnknownSection.
    Outside comments and the title line only ASCII is allowed, or ``int``
    would read a full-width digit; ASCII files skip the per-line test.
    """
    body: list[tuple[int, str]] = []
    sections = [("", 0, body)]
    in_header = True
    ascii_text = text.isascii()
    # The first line of the file is a comment by convention.
    for line_no, raw in enumerate(text.split("\n")[1:], start=2):
        content = raw.partition("#")[0]
        if not ascii_text and not content.isascii():
            raise MalformedLine(f"non-ASCII character in {content.strip()!r}", line_no)
        stripped = content.strip()
        if not stripped:
            continue
        if stripped in known:
            body = []
            sections.append((stripped, line_no, body))
            in_header = False
            continue
        # An alphabetic line inside the header block is left to the caller,
        # which knows the count and box lines; after it, it names a section.
        if not in_header and stripped[0].isalpha() and not _looks_numeric_row(stripped):
            raise UnknownSection(f"unrecognized section {stripped!r}", line_no)
        body.append((line_no, stripped))
    return sections


def _looks_numeric_row(stripped: str) -> bool:
    try:
        float(stripped.split()[0])
        return True
    except ValueError:
        return False


def parse_data_file(text: str) -> SystemTopology:
    """Parse a LAMMPS data file into a validated SystemTopology.

    The canonical atom style is ``full``; ``molecular`` is accepted with
    charges defaulting to 0.  Comments and blank lines are ignored and the
    section order is arbitrary.
    """
    known = frozenset({"Masses", "Atoms"}) | frozenset(INTERACTION_SECTIONS) | _SKIPPED_SECTIONS
    sections = _split_sections(text, known)

    type_counts: dict[str, int] = {}
    masses: dict[int, float] = {}
    atoms: list[AtomRecord] = []
    interactions: dict[str, list] = {keyword: [] for keyword, _, _ in INTERACTION_SECTIONS.values()}
    seen: set[str] = set()

    for name, header_line_no, body in sections:
        if name == "":
            for line_no, stripped in body:
                header = _parse_header_line(stripped)
                if header is not None:
                    type_counts[header[0]] = header[1]
                    continue
                if _is_box_line(stripped):
                    continue
                raise UnknownSection(f"unrecognized header line {stripped!r}", line_no)
        elif name in _SKIPPED_SECTIONS:
            continue
        elif name in seen:
            raise MalformedHeader(f"duplicate section {name!r}", header_line_no)
        elif name == "Masses":
            seen.add(name)
            for line_no, stripped in body:
                parts = stripped.split()
                try:
                    masses[int(parts[0])] = float(parts[1])
                except (IndexError, ValueError):
                    raise MalformedLine(f"bad Masses entry {stripped!r}", line_no)
        elif name == "Atoms":
            seen.add(name)
            for line_no, stripped in body:
                atoms.append(_parse_atom_line(stripped, line_no))
        else:
            seen.add(name)
            keyword, _, arity = INTERACTION_SECTIONS[name]
            rows = interactions[keyword]
            for line_no, stripped in body:
                parts = stripped.split()
                if len(parts) < 2 + arity:
                    raise MalformedLine(f"bad {name} entry {stripped!r}", line_no)
                try:
                    rows.append((int(parts[1]), tuple(map(int, parts[2 : 2 + arity]))))
                except ValueError:
                    raise MalformedLine(f"bad {name} entry {stripped!r}", line_no)

    if "Atoms" not in seen:
        raise MalformedHeader("data file has no Atoms section")
    if "Masses" not in seen:
        raise MalformedHeader("data file has no Masses section")

    topology = SystemTopology(atoms=atoms, masses=masses, type_counts=type_counts, **interactions)
    topology.validate()
    return topology


def _parse_atom_line(stripped: str, line_no: int) -> AtomRecord:
    parts = stripped.split()
    try:
        if len(parts) in (7, 10):  # full: id mol type q x y z [image flags]
            return AtomRecord(int(parts[0]), int(parts[1]), int(parts[2]), *map(float, parts[3:7]))
        if len(parts) in (6, 9):  # molecular: id mol type x y z [image flags]
            return AtomRecord(int(parts[0]), int(parts[1]), int(parts[2]), 0.0, *map(float, parts[3:6]))
    except ValueError:
        pass
    raise MalformedLine(f"bad Atoms entry {stripped!r}", line_no)


class TemplateAtom(NamedTuple):
    """Per-atom payload of a molecule template, indexed implicitly 1..N."""

    type_id: int
    charge: float
    x: float
    y: float
    z: float


@dataclass
class MoleculeTemplateFile:
    """In-memory form of a LAMMPS molecule template file."""

    atoms: list[TemplateAtom]
    bonds: list[tuple[int, tuple[int, int]]] = field(default_factory=list)
    angles: list[tuple[int, tuple[int, int, int]]] = field(default_factory=list)
    dihedrals: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)
    impropers: list[tuple[int, tuple[int, int, int, int]]] = field(default_factory=list)

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def validate(self) -> None:
        n = self.atom_count
        if n == 0:
            raise ValidationError("template has no atoms")
        for keyword, noun, _ in INTERACTION_SECTIONS.values():
            for _type_id, members in getattr(self, keyword):
                for idx in members:
                    if not 1 <= idx <= n:
                        raise ValidationError(
                            f"{noun} references atom index {idx} outside 1..{n}"
                        )


def _section(out: list[str], name: str, rows: Iterable[str]) -> None:
    """Append one section: its name, a blank line, the rows, a blank line."""
    out.extend((name, "", *rows, ""))


def write_molecule_template(template: MoleculeTemplateFile, title: str = "molecule template") -> str:
    """Serialize a molecule template; sections with zero entries are omitted."""
    template.validate()
    sections = [
        (name, keyword, getattr(template, keyword))
        for name, (keyword, _, _) in INTERACTION_SECTIONS.items()
    ]
    out = [f"# {title}", "", f"{template.atom_count} atoms"]
    out.extend(f"{len(entries)} {keyword}" for _, keyword, entries in sections if entries)
    out.append("")

    atoms = list(enumerate(template.atoms, start=1))
    _section(out, "Coords", (
        f"{i} " + " ".join(_FLOAT_FMT.format(v) for v in (atom.x, atom.y, atom.z))
        for i, atom in atoms
    ))
    _section(out, "Types", (f"{i} {atom.type_id}" for i, atom in atoms))
    _section(out, "Charges", (f"{i} {_FLOAT_FMT.format(atom.charge)}" for i, atom in atoms))
    for name, _, entries in sections:
        if entries:
            _section(out, name, (
                f"{i} {type_id} " + " ".join(str(m) for m in members)
                for i, (type_id, members) in enumerate(entries, start=1)
            ))
    return "\n".join(out)


_TEMPLATE_SECTIONS = frozenset({"Coords", "Types", "Charges"}) | frozenset(INTERACTION_SECTIONS)


def parse_molecule_template(text: str) -> MoleculeTemplateFile:
    """Inverse of write_molecule_template, up to whitespace."""
    sections = _split_sections(text, _TEMPLATE_SECTIONS)

    counts: dict[str, int] = {}
    rows: dict[str, list[tuple[int, list[str]]]] = {}
    for name, header_line_no, body in sections:
        if name == "":
            for line_no, stripped in body:
                header = _parse_header_line(stripped)
                if header is None or header[0] not in _COUNT_KEYWORDS:
                    raise UnknownSection(f"unrecognized header line {stripped!r}", line_no)
                counts[header[0]] = header[1]
            continue
        if name in rows:
            raise MalformedHeader(f"duplicate section {name!r}", header_line_no)
        rows[name] = [(line_no, stripped.split()) for line_no, stripped in body]

    n = counts.get("atoms")
    if n is None:
        raise MalformedHeader("molecule template lacks an atom count")
    for required in ("Coords", "Types", "Charges"):
        if required not in rows:
            raise MalformedHeader(f"molecule template lacks a {required} section")

    def indexed(name: str, width: int) -> list[list[str] | None]:
        table = rows.get(name, [])
        ordered: dict[int, list[str]] = {}
        for line_no, parts in table:
            if len(parts) != width + 1:
                raise MalformedLine(f"bad {name} entry", line_no)
            try:
                idx = int(parts[0])
            except ValueError:
                raise MalformedLine(f"bad {name} entry", line_no)
            if idx in ordered:
                raise MalformedLine(f"duplicate {name} index {idx}", line_no)
            ordered[idx] = parts[1:]
        return [ordered.get(i) for i in range(1, len(ordered) + 1)]

    coords = indexed("Coords", 3)
    types = indexed("Types", 1)
    charges = indexed("Charges", 1)
    if not (len(coords) == len(types) == len(charges) == n) or None in coords or None in types or None in charges:
        raise MalformedHeader(
            f"header declares {n} atoms, sections disagree"
        )

    try:
        atoms = [
            TemplateAtom(
                type_id=int(types[i][0]),
                charge=float(charges[i][0]),
                x=float(coords[i][0]),
                y=float(coords[i][1]),
                z=float(coords[i][2]),
            )
            for i in range(n)
        ]
    except ValueError:
        raise MalformedLine("non-numeric atom data")

    def interactions(name: str, keyword: str, arity: int) -> list[tuple[int, tuple[int, ...]]]:
        table = rows.get(name, [])
        declared = counts.get(keyword, 0)
        if len(table) != declared:
            raise MalformedHeader(
                f"header declares {declared} {keyword}, found {len(table)}"
            )
        result = []
        for line_no, parts in table:
            if len(parts) != 2 + arity:
                raise MalformedLine(f"bad {name} entry", line_no)
            try:
                result.append((int(parts[0]), int(parts[1]), tuple(int(p) for p in parts[2:])))
            except ValueError:
                raise MalformedLine(f"bad {name} entry", line_no)
        result.sort(key=lambda row: row[0])
        if [row[0] for row in result] != list(range(1, len(result) + 1)):
            raise MalformedLine(f"non-contiguous {name} indices")
        return [(type_id, members) for _, type_id, members in result]

    template = MoleculeTemplateFile(atoms=atoms, **{
        keyword: interactions(name, keyword, arity)
        for name, (keyword, _, arity) in INTERACTION_SECTIONS.items()
    })
    template.validate()
    return template


@dataclass
class ReactionMapFile:
    """Contents of a reaction map file in pre/post template indexing.

    Equivalences cover exactly the non-deleted pre atoms and the non-created
    post atoms; initiators are pre-template indices and must be mapped.
    """

    pre_atom_count: int
    post_atom_count: int
    equivalences: list[tuple[int, int]]
    initiators: tuple[int, int]
    edge_ids: list[int] = field(default_factory=list)
    delete_ids: list[int] = field(default_factory=list)
    create_ids: list[int] = field(default_factory=list)

    def validate(self) -> None:
        pre_side = [pre for pre, _ in self.equivalences]
        post_side = [post for _, post in self.equivalences]
        if len(set(pre_side)) != len(pre_side) or len(set(post_side)) != len(post_side):
            raise ValidationError("equivalences are not a bijection")
        deleted = set(self.delete_ids)
        created = set(self.create_ids)
        expected_pre = set(range(1, self.pre_atom_count + 1)) - deleted
        expected_post = set(range(1, self.post_atom_count + 1)) - created
        if set(pre_side) != expected_pre:
            raise ValidationError("equivalences do not cover the non-deleted pre atoms")
        if set(post_side) != expected_post:
            raise ValidationError("equivalences do not cover the non-created post atoms")
        if len(self.initiators) != 2:
            raise ValidationError("exactly two initiator atoms are required")
        for initiator in self.initiators:
            if initiator not in expected_pre:
                raise ValidationError(f"initiator {initiator} not in the equivalence list")
        for edge in self.edge_ids:
            if not 1 <= edge <= self.pre_atom_count:
                raise ValidationError(f"edge id {edge} outside the pre template")
        for create in created:
            if not 1 <= create <= self.post_atom_count:
                raise ValidationError(f"created atom {create} not in the post template")


def write_map_file(map_file: ReactionMapFile, title: str = "reaction map") -> str:
    """Serialize a reaction map file; zero-length sections are omitted."""
    map_file.validate()
    out = [f"# {title}", ""]
    out.append(f"{len(map_file.equivalences)} equivalences")
    if map_file.edge_ids:
        out.append(f"{len(map_file.edge_ids)} edgeIDs")
    if map_file.delete_ids:
        out.append(f"{len(map_file.delete_ids)} deleteIDs")
    if map_file.create_ids:
        out.append(f"{len(map_file.create_ids)} createIDs")
    out.append("")

    _section(out, "InitiatorIDs", map(str, map_file.initiators))
    for name, ids in (
        ("EdgeIDs", map_file.edge_ids),
        ("DeleteIDs", map_file.delete_ids),
        ("CreateIDs", map_file.create_ids),
    ):
        if ids:
            _section(out, name, map(str, sorted(ids)))
    _section(out, "Equivalences", (f"{pre} {post}" for pre, post in sorted(map_file.equivalences)))
    return "\n".join(out)
