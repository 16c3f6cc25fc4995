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

import math
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from templater.errors import (
    DanglingReference,
    MalformedHeader,
    MalformedLine,
    MissingMass,
    UnknownSection,
    ValidationError,
)

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


# One row of an ``Atoms`` section; molecular-style rows hold charge 0.
ATOM_ROW = np.dtype(
    [("atom_id", np.int64), ("mol_id", np.int64), ("type_id", np.int64)]
    + [(name, np.float64) for name in ("charge", "x", "y", "z")]
)

# Interaction tables, one per section, in INTERACTION_SECTIONS order.
_TABLES = tuple(keyword for keyword, _, _ in INTERACTION_SECTIONS.values())


@dataclass
class SystemTopology:
    """Full parsed contents of one LAMMPS data file.

    ``atoms`` is one ``ATOM_ROW`` array: ``atoms["type_id"]`` is a column,
    ``atoms[k]`` the k-th row in file order.  Each interaction section is
    one int64 array of shape (rows, 1 + atom ids per row), in file order,
    with the type in column 0: ``bonds[:, 0]`` are the bond types and
    ``bonds[k, 1:]`` the atom ids of the k-th bond.  ``==`` compares the
    contents, NaN equal to NaN.
    """

    atoms: np.ndarray
    masses: dict[int, float]
    bonds: np.ndarray
    angles: np.ndarray
    dihedrals: np.ndarray
    impropers: np.ndarray
    type_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_rows(
        cls,
        atoms: Iterable[tuple],
        masses: dict[int, float],
        bonds: Iterable[tuple[int, ...]] = (),
        angles: Iterable[tuple[int, ...]] = (),
        dihedrals: Iterable[tuple[int, ...]] = (),
        impropers: Iterable[tuple[int, ...]] = (),
        type_counts: dict[str, int] | None = None,
    ) -> SystemTopology:
        """A topology, not validated, from Python rows: ``atoms`` as
        ``(atom_id, mol_id, type_id, charge, x, y, z)`` and each interaction
        as ``(type, id, ...)``.  Every id and type must fit int64."""
        rows = {"bonds": bonds, "angles": angles, "dihedrals": dihedrals, "impropers": impropers}
        return cls(
            _atom_table(atoms),
            dict(masses),
            type_counts=dict(type_counts or {}),
            **{
                keyword: _interaction_table(rows[keyword], arity)
                for keyword, _, arity in INTERACTION_SECTIONS.values()
            },
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemTopology):
            return NotImplemented
        return (
            self.masses == other.masses
            and self.type_counts == other.type_counts
            and all(
                _same_table(getattr(self, name), getattr(other, name))
                for name in ("atoms", *_TABLES)
            )
        )

    def validate(self) -> None:
        """Check the structural invariants; raise a ParseError subclass.

        The checks run on whole columns; where one fails, the entry it
        names is the first in file order, as a check of one entry at a time
        would find it.
        """
        ordered = np.sort(self.atoms["atom_id"])
        repeats = ordered[1:] == ordered[:-1]
        if repeats.any():
            raise MalformedLine(f"duplicate atom id {ordered[1:][repeats][0]}")
        # A file has few atom types: their checks run on the distinct ones.
        atom_types = self.atoms["type_id"]
        kinds = set(atom_types.tolist())
        if not kinds <= self.masses.keys():
            massless = next(t for t in atom_types.tolist() if t not in self.masses)
            raise MissingMass(f"atom type {massless} has no Masses entry")
        for type_id, mass in self.masses.items():
            # LAMMPS rejects a mass <= 0; NaN fails the comparison too.
            if not 0 < mass < math.inf:
                raise MalformedLine(
                    f"atom type {type_id} has mass {mass}; masses must be finite and positive"
                )
        # As in LAMMPS read_data, a type id must lie in 1..N where the header
        # declares N types.  Atoms come first: an atom type outside 1..N
        # either has no mass, raised above, or a Masses entry outside too.
        # Each entry holds a section's types in file order, then values with
        # the same smallest and largest: the distinct types, or those two.
        type_columns = [
            ("Atoms", "atom", atom_types, kinds),
            ("Masses", "atom", list(self.masses), self.masses),
        ]
        found = {"atoms": len(self.atoms)}
        columns = {}
        for name, (keyword, noun, _) in INTERACTION_SECTIONS.items():
            rows = getattr(self, keyword)
            found[keyword] = len(rows)
            if len(rows):
                types = rows[:, 0]
                type_columns.append((name, noun, types, (types.min(), types.max())))
                columns[name] = rows[:, 1:]
        for name, noun, types, values in type_columns:
            declared = self.type_counts.get(f"{noun} types")
            if declared is None or not values or 1 <= min(values) and max(values) <= declared:
                continue
            outside = next(t for t in np.asarray(types).tolist() if not 1 <= t <= declared)
            raise MalformedLine(
                f"{name} entry has {noun} type {outside}; header declares {declared} {noun} types"
            )
        # One membership test covers every section; only if it fails is each
        # section's test repeated, to find the first row that fails it.
        dangling = bool(columns) and not _within(
            np.concatenate(list(columns.values()), axis=None), ordered
        ).all()
        for name, members in columns.items():
            # A row lists an atom twice where its sorted ids repeat.
            ascending = np.sort(members, axis=1)
            twice = ascending[:, 1:] == ascending[:, :-1]
            if not (dangling or twice.any()):
                continue
            bad = twice.any(axis=1) | ~_within(members, ordered).all(axis=1)
            if not bad.any():
                continue
            row = members[bad.argmax()]
            missing = row[~_within(row, ordered)]
            if missing.size:
                raise DanglingReference(f"{name} entry references missing atom id {missing[0]}")
            ids = row.tolist()
            repeated = next(i for i in ids if ids.count(i) > 1)
            raise MalformedLine(f"{name} entry lists atom {repeated} more than once")
        for keyword, expected in found.items():
            declared = self.type_counts.get(keyword)
            if declared is not None and declared != expected:
                raise MalformedHeader(
                    f"header declares {declared} {keyword}, found {expected}"
                )


def _within(values: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` is in the ascending array ``ordered``."""
    if not ordered.size:
        return np.zeros(values.shape, bool)
    return ordered.take(ordered.searchsorted(values), mode="clip") == values


def _same_table(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two section arrays hold the same rows, NaN equal to NaN."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    columns = a.dtype.names or (...,)
    return all(np.array_equal(a[c], b[c], equal_nan=True) for c in columns)


def _atom_table(rows: Iterable[tuple]) -> np.ndarray:
    """``Atoms`` rows ``(atom_id, mol_id, type_id, charge, x, y, z)`` as one array."""
    return np.array(list(rows), dtype=ATOM_ROW).reshape(-1)


def _interaction_table(rows: Iterable[tuple[int, ...]], arity: int) -> np.ndarray:
    """Interaction rows ``(type, id, ...)`` with ``arity`` ids as one int64 array."""
    return np.array(list(rows), dtype=np.int64).reshape(-1, 1 + arity)


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

    Bound lines need exactly two numbers and the triclinic ``xy xz yz``
    line exactly three, as LAMMPS read_data does.  A box line with bad
    values or the wrong count raises MalformedHeader.
    """
    for keyword in _BOX_KEYWORDS:
        if stripped.endswith(keyword):
            values = stripped[: -len(keyword)].split()
            try:
                for value in values:
                    float(value)
            except ValueError:
                raise MalformedHeader(f"unparsable box line: {stripped!r}")
            if len(values) != (3 if keyword == "xy xz yz" else 2):
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
    atoms = None
    interactions: dict[str, np.ndarray] = {}
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
                    type_id, mass = _int64(parts[0]), float(parts[1])
                except (IndexError, ValueError):
                    raise MalformedLine(f"bad Masses entry {stripped!r}", line_no)
                # LAMMPS read_data rejects a second mass for one type.
                if type_id in masses:
                    raise MalformedLine(f"duplicate Masses entry for atom type {type_id}", line_no)
                masses[type_id] = mass
        elif name == "Atoms":
            seen.add(name)
            atoms = _read_atoms(body)
        else:
            seen.add(name)
            interactions[INTERACTION_SECTIONS[name][0]] = _read_interactions(name, body)

    if "Atoms" not in seen:
        raise MalformedHeader("data file has no Atoms section")
    if "Masses" not in seen:
        raise MalformedHeader("data file has no Masses section")
    for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
        if keyword not in interactions:
            interactions[keyword] = _read_interactions(name, [])

    topology = SystemTopology(atoms=atoms, masses=masses, type_counts=type_counts, **interactions)
    topology.validate()
    return topology


# Atoms rows numpy reads whole, by width: full or molecular style, each with
# or without image flags.  Molecular rows have no charge column.
_IMAGE_FLAGS = [(name, np.int64) for name in ("ix", "iy", "iz")]
_MOLECULAR = [column for column in ATOM_ROW.descr if column[0] != "charge"]
_ATOM_ROWS = {
    7: ATOM_ROW,
    10: np.dtype(ATOM_ROW.descr + _IMAGE_FLAGS),
    6: np.dtype(_MOLECULAR),
    9: np.dtype(_MOLECULAR + _IMAGE_FLAGS),
}


def _load_rows(lines: list[str], dtype, **options) -> np.ndarray | None:
    """``lines`` read whole by numpy, or None if one does not fit ``dtype``.

    numpy reads an int64 or float64 field as ``int`` or ``float`` would, or
    rejects it; it rejects some fields they read, such as ``1_0`` and
    integers past int64.  numpy 1.23-1.26 read an int64 field such as
    ``1.5`` through a float and only warn; that warning rejects it here.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=dtype, comments=None, **options)
    except (ValueError, DeprecationWarning):
        return None


def _read_atoms(body: list[tuple[int, str]]) -> np.ndarray:
    """The ``ATOM_ROW`` array of an ``Atoms`` section.

    A section whose rows all have one width of the full or molecular style
    is read in one numpy pass.  Any other is read row by row, which raises
    MalformedLine for a bad row.
    """
    if not body:
        return _atom_table(())
    lines = [stripped for _, stripped in body]
    dtype = _ATOM_ROWS.get(len(lines[0].split()))
    table = None if dtype is None else _load_rows(lines, dtype, ndmin=1)
    if table is None:
        return _atom_table(_parse_atom_line(stripped, line_no) for line_no, stripped in body)
    if dtype is ATOM_ROW:
        return table
    # Drop the image flags; a molecular row keeps charge 0.
    atoms = np.zeros(len(table), ATOM_ROW)
    for name in ATOM_ROW.names:
        if name in dtype.names:
            atoms[name] = table[name]
    return atoms


def _read_interactions(name: str, body: list[tuple[int, str]]) -> np.ndarray:
    """The (type, atom ids...) rows of the interaction section ``name``.

    Each row is ``index type id...``: the index is not read, and fields
    past the ids are ignored.  One numpy pass reads the section unless a
    row is short or a field does not fit int64; then it is read row by
    row, which raises MalformedLine for a bad row.
    """
    arity = INTERACTION_SECTIONS[name][2]
    if not body:
        return _interaction_table((), arity)
    lines = [stripped for _, stripped in body]
    table = _load_rows(lines, np.int64, ndmin=2, usecols=range(1, 2 + arity))
    if table is None:
        rows = (_parse_interaction_line(name, arity, line, line_no) for line_no, line in body)
        return _interaction_table(rows, arity)
    return table


def _int64(token: str) -> int:
    """``int(token)``, which must fit int64 as the section arrays hold it."""
    value = int(token)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError(f"{token} does not fit int64")
    return value


def _parse_atom_line(stripped: str, line_no: int) -> tuple:
    parts = stripped.split()
    try:
        ids = tuple(map(_int64, parts[:3]))
        if len(parts) in (7, 10):  # full: id mol type q x y z [image flags]
            return (*ids, *map(float, parts[3:7]))
        if len(parts) in (6, 9):  # molecular: id mol type x y z [image flags]
            return (*ids, 0.0, *map(float, parts[3:6]))
    except ValueError:
        pass
    raise MalformedLine(f"bad Atoms entry {stripped!r}", line_no)


def _parse_interaction_line(name: str, arity: int, stripped: str, line_no: int) -> tuple[int, ...]:
    parts = stripped.split()
    try:
        if len(parts) >= 2 + arity:
            return tuple(map(_int64, parts[1 : 2 + arity]))
    except ValueError:
        pass
    raise MalformedLine(f"bad {name} entry {stripped!r}", line_no)


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
    # Charges and coordinates use a fixed width so diffs stay stable.
    _section(out, "Coords", (f"{i} {atom.x:.6f} {atom.y:.6f} {atom.z:.6f}" for i, atom in atoms))
    _section(out, "Types", (f"{i} {atom.type_id}" for i, atom in atoms))
    _section(out, "Charges", (f"{i} {atom.charge:.6f}" for i, atom in atoms))
    for name, _, entries in sections:
        if entries:
            _section(out, name, (
                f"{i} {type_id} {' '.join(map(str, members))}"
                for i, (type_id, members) in enumerate(entries, start=1)
            ))
    return "\n".join(out)


_TEMPLATE_SECTIONS = frozenset({"Coords", "Types", "Charges"}) | frozenset(INTERACTION_SECTIONS)


def parse_molecule_template(text: str) -> MoleculeTemplateFile:
    """Inverse of write_molecule_template, up to whitespace.

    Every section is read by one indexed-row reader.  Its length must be
    the header's count, or MalformedHeader is raised; a row of the wrong
    width, with a field that does not parse or with a repeated index
    raises MalformedLine naming the line.  The rows, in any order, must
    cover 1..count: a gap is a MalformedHeader in Coords, Types and
    Charges, whose count is the atom count, and a MalformedLine in an
    interaction section.
    """
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

    def indexed(
        name: str, keyword: str, width: int, convert: Callable[[list[str]], object]
    ) -> list:
        """Section ``name``'s rows by index 1..count, the header's count for
        ``keyword`` (0 if none), each ``convert``-ed from the ``width``
        fields after its index; None where no row has the index."""
        declared = counts.get(keyword, 0)
        table = rows.get(name, [])
        if len(table) != declared:
            raise MalformedHeader(f"header declares {declared} {keyword}, found {len(table)}")
        ordered = {}
        for line_no, parts in table:
            if len(parts) != width + 1:
                raise MalformedLine(f"bad {name} entry", line_no)
            try:
                idx, row = int(parts[0]), convert(parts[1:])
            except ValueError:
                raise MalformedLine(f"bad {name} entry", line_no)
            if idx in ordered:
                raise MalformedLine(f"duplicate {name} index {idx}", line_no)
            ordered[idx] = row
        return [ordered.get(i) for i in range(1, declared + 1)]

    coords = indexed("Coords", "atoms", 3, lambda fields: tuple(map(float, fields)))
    types = indexed("Types", "atoms", 1, lambda fields: int(fields[0]))
    charges = indexed("Charges", "atoms", 1, lambda fields: float(fields[0]))
    if None in coords or None in types or None in charges:
        raise MalformedHeader(f"header declares {n} atoms, sections disagree")
    sections = {}
    for name, (keyword, _, arity) in INTERACTION_SECTIONS.items():
        sections[keyword] = indexed(
            name, keyword, arity + 1, lambda fields: (int(fields[0]), tuple(map(int, fields[1:])))
        )
        if None in sections[keyword]:
            raise MalformedLine(f"non-contiguous {name} indices")

    template = MoleculeTemplateFile(
        atoms=[TemplateAtom(t, q, *xyz) for xyz, t, q in zip(coords, types, charges)], **sections
    )
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
