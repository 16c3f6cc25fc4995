import functools
import gc
import importlib.util
import math
import os
import random
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemfix
from conftest import FIXTURE_DIR, fixture_path, ua_dimerization
from templater.errors import (
    DanglingReference,
    MalformedHeader,
    MalformedLine,
    MissingMass,
    ParseError,
    UnknownSection,
    ValidationError,
)
from templater.lammps_io import (
    _SKIPPED_SECTIONS,
    _TEMPLATE_SECTIONS,
    INTERACTION_SECTIONS,
    MoleculeTemplateFile,
    ReactionMapFile,
    SystemTopology,
    TemplateAtom,
    _is_box_line,
    _looks_numeric_row,
    _parse_header_line,
    _split_sections,
    parse_data_file,
    parse_molecule_template,
    write_map_file,
    write_molecule_template,
)

H2_DATA = """# hydrogen molecule

2 atoms
1 bonds
1 atom types
1 bond types

0.0 10.0 xlo xhi
0.0 10.0 ylo yhi
0.0 10.0 zlo zhi

Masses

1 1.008

Atoms # full

1 1 1 0.0 0.0 0.0 0.0
2 1 1 0.0 0.74 0.0 0.0

Bonds

1 1 1 2
"""

# Four atoms in a chain with one row in each interaction section.
CHAIN4_DATA = """# four-atom chain

4 atoms
1 bonds
1 angles
1 dihedrals
1 impropers

Masses

1 12.011

Atoms # full

1 1 1 0.0 0.0 0.0 0.0
2 1 1 0.0 1.5 0.0 0.0
3 1 1 0.0 3.0 0.0 0.0
4 1 1 0.0 4.5 0.0 0.0

Bonds

1 1 1 2

Angles

1 1 1 2 3

Dihedrals

1 1 1 2 3 4

Impropers

1 1 1 2 3 4
"""

# CHAIN4_DATA with one type of each kind declared in its header.
CHAIN4_TYPED_DATA = CHAIN4_DATA.replace(
    "1 impropers\n",
    "1 impropers\n1 atom types\n1 bond types\n1 angle types\n1 dihedral types\n1 improper types\n",
)

# Each interaction section: its name, header keyword and field, singular
# noun and atom ids per row.
SECTIONS = [
    ("Bonds", "bonds", "bond", 2),
    ("Angles", "angles", "angle", 3),
    ("Dihedrals", "dihedrals", "dihedral", 4),
    ("Impropers", "impropers", "improper", 4),
]
SECTION_IDS = [name for name, _, _, _ in SECTIONS]


class TestParseDataFile:
    def test_minimal_h2(self):
        topology = parse_data_file(H2_DATA)
        assert len(topology.atoms) == 2
        assert len(topology.bonds) == 1
        assert topology.masses == {1: 1.008}

    @pytest.mark.parametrize(
        "line", ["0.0 xlo xhi", "0.0 ten xlo xhi", "0.5 xy xz yz", "0.0 0.0 0.0 0.0 0.0 xy xz yz"]
    )
    def test_bad_box_line_rejected(self, line):
        with pytest.raises(MalformedHeader, match="unparsable box line"):
            parse_data_file(H2_DATA.replace("0.0 10.0 xlo xhi", line))

    def test_triclinic_tilt_line_accepted(self):
        text = H2_DATA.replace("0.0 10.0 zlo zhi", "0.0 10.0 zlo zhi\n0.0 0.0 0.0 xy xz yz")
        assert len(parse_data_file(text).atoms) == 2

    @pytest.mark.parametrize("type_id", [0, 2])
    @pytest.mark.parametrize(
        "name, edits",
        [
            ("Masses", [("\n1 12.011\n", "\n1 12.011\n{t} 12.011\n")]),
            # The new type has a mass, or the atom would read as massless.
            ("Atoms", [("\n1 12.011\n", "\n1 12.011\n{t} 12.011\n"), ("\n2 1 1 ", "\n2 1 {t} ")]),
            ("Bonds", [("Bonds\n\n1 1 ", "Bonds\n\n1 {t} ")]),
            ("Angles", [("Angles\n\n1 1 ", "Angles\n\n1 {t} ")]),
            ("Dihedrals", [("Dihedrals\n\n1 1 ", "Dihedrals\n\n1 {t} ")]),
            ("Impropers", [("Impropers\n\n1 1 ", "Impropers\n\n1 {t} ")]),
        ],
        ids=["Masses", "Atoms", *SECTION_IDS],
    )
    def test_type_outside_declared_types(self, name, edits, type_id):
        text = CHAIN4_TYPED_DATA
        for old, new in edits:
            assert old in text, old
            text = text.replace(old, new.format(t=type_id), 1)
        noun = "atom" if name in ("Masses", "Atoms") else INTERACTION_SECTIONS[name][1]
        with pytest.raises(
            MalformedLine,
            match=f"^{name} entry has {noun} type {type_id}; header declares 1 {noun} types$",
        ):
            parse_data_file(text)

    def test_types_inside_declared_types(self):
        assert len(parse_data_file(CHAIN4_TYPED_DATA).impropers) == 1
        # Without a declared count a type id is not checked.
        text = CHAIN4_DATA.replace("\n1 1 1 2\n", "\n1 7 1 2\n")
        assert parse_data_file(text).bonds.tolist() == [[7, 1, 2]]

    def test_duplicate_atom_ids_name_smallest(self):
        atoms = "\n".join(
            f"{atom_id} 1 1 0.0 {x}.0 0.0 0.0" for x, atom_id in enumerate((5, 2, 5, 2))
        )
        text = H2_DATA.replace("2 atoms", "4 atoms").replace(
            "1 1 1 0.0 0.0 0.0 0.0\n2 1 1 0.0 0.74 0.0 0.0", atoms
        )
        with pytest.raises(MalformedLine, match="duplicate atom id 2$"):
            parse_data_file(text)

    def test_bd_fixture_atom_count(self):
        # Butane-1,4-diol has 4 C + 2 O + 10 H.
        with open("tests/fixtures/bd.data") as handle:
            topology = parse_data_file(handle.read())
        assert len(topology.atoms) == 16
        heavy = sum(topology.masses[t] > 2 for t in topology.atoms["type_id"].tolist())
        assert heavy == 6

    def test_mdi_fixture_atom_count(self):
        with open("tests/fixtures/mdi.data") as handle:
            topology = parse_data_file(handle.read())
        assert len(topology.atoms) == 29

    @pytest.mark.parametrize("name, keyword, noun, arity", SECTIONS, ids=SECTION_IDS)
    def test_dangling_reference(self, name, keyword, noun, arity):
        row = " ".join(str(i) for i in range(1, arity + 1))
        dangling = row[:-1] + "99"
        text = CHAIN4_DATA.replace(f"{name}\n\n1 1 {row}\n", f"{name}\n\n1 1 {dangling}\n")
        assert text != CHAIN4_DATA
        with pytest.raises(DanglingReference, match=f"^{name} entry references missing atom id 99$"):
            parse_data_file(text)

    # An integer field past int64 is rejected too: the parsed arrays are int64.
    @pytest.mark.parametrize(
        "token", ["1.5", "1e400", "9223372036854775808", "-9223372036854775809"]
    )
    @pytest.mark.parametrize(
        "section, row, slot",
        [
            ("Atoms", "2 1 1 0.0 0.74 0.0 0.0", 0),
            ("Atoms", "2 1 1 0.0 0.74 0.0 0.0", 1),
            ("Atoms", "2 1 1 0.0 0.74 0.0 0.0", 2),
            ("Bonds", "1 1 1 2", 1),
            ("Bonds", "1 1 1 2", 3),
            ("Masses", "1 1.008", 0),
        ],
        ids=[
            "Atoms-id", "Atoms-molecule", "Atoms-type", "Bonds-type", "Bonds-member", "Masses-type"
        ],
    )
    def test_float_in_integer_field_rejected(self, section, row, slot, token):
        lines = H2_DATA.split("\n")
        k = lines.index(row)
        tokens = row.split()
        tokens[slot] = token
        lines[k] = " ".join(tokens)
        text = "\n".join(lines)
        with pytest.raises(MalformedLine, match=f"^line {k + 1}: bad {section} entry"):
            parse_data_file(text)
        assert outcome(parse_data_file, text) == outcome(parse_data_file_reference, text)

    def test_int64_limits_accepted(self):
        # The smallest and largest int64 read as ids, row by row (image
        # flags on one row) and in one numpy pass.
        low, high = str(-(2**63)), str(2**63 - 1)
        text = H2_DATA.replace("\n1 1 1 0.0 0.0", f"\n{low} 1 1 0.0 0.0").replace(
            "\n2 1 1 0.0 0.74", f"\n{high} 1 1 0.0 0.74"
        ).replace("\n1 1 1 2\n", f"\n1 1 {low} {high}\n")
        image_flags = text.replace("0.0 0.74 0.0 0.0", "0.0 0.74 0.0 0.0 0 0 1")
        for variant in (text, image_flags):
            topology = parse_data_file(variant)
            assert topology.atoms["atom_id"].tolist() == [-(2**63), 2**63 - 1]
            assert topology.bonds.tolist() == [[1, -(2**63), 2**63 - 1]]
            assert topology == parse_data_file_reference(variant)

    def test_integer_read_through_float_rejected(self, monkeypatch):
        # numpy 1.23-1.26 read "1.5" in an int64 column as 1 and only warn.
        loadtxt = np.loadtxt

        def lenient_loadtxt(lines, *args, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return loadtxt([line.replace("1.5", "1") for line in lines], *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        text = H2_DATA.replace("\n1 1 1 2\n", "\n1 1.5 1 2\n")
        line_no = text.split("\n").index("1 1.5 1 2") + 1
        with pytest.raises(MalformedLine, match=f"^line {line_no}: bad Bonds entry"):
            parse_data_file(text)

    @pytest.mark.parametrize(
        "mass, shown",
        [("nan", "nan"), ("inf", "inf"), ("1e400", "inf"), ("0", "0.0"), ("-1.008", "-1.008")],
    )
    def test_mass_must_be_finite_and_positive(self, mass, shown):
        text = H2_DATA.replace("\n1 1.008\n", f"\n1 {mass}\n")
        assert text != H2_DATA
        with pytest.raises(
            MalformedLine, match=f"^atom type 1 has mass {shown}; masses must be finite and positive$"
        ):
            parse_data_file(text)

    @pytest.mark.parametrize("name, keyword, noun, arity", SECTIONS, ids=SECTION_IDS)
    def test_row_lists_an_atom_once(self, name, keyword, noun, arity):
        row = " ".join(str(i) for i in range(1, arity + 1))
        repeated = row[:-1] + "1"
        text = CHAIN4_DATA.replace(f"{name}\n\n1 1 {row}\n", f"{name}\n\n1 1 {repeated}\n")
        assert text != CHAIN4_DATA
        with pytest.raises(MalformedLine, match=f"^{name} entry lists atom 1 more than once$"):
            parse_data_file(text)

    def test_missing_mass(self):
        text = H2_DATA.replace("1 1 1 0.0 0.0 0.0 0.0", "1 1 2 0.0 0.0 0.0 0.0")
        with pytest.raises(MissingMass):
            parse_data_file(text)

    def test_unknown_section_reports_line(self):
        text = H2_DATA + "\nWeird Section\n\n1 2\n"
        with pytest.raises(UnknownSection) as err:
            parse_data_file(text)
        assert "line" in str(err.value)

    def test_header_count_mismatch(self):
        text = H2_DATA.replace("2 atoms", "3 atoms")
        with pytest.raises(MalformedHeader):
            parse_data_file(text)

    @pytest.mark.parametrize("name, keyword, noun, arity", SECTIONS, ids=SECTION_IDS)
    def test_interaction_count_mismatch(self, name, keyword, noun, arity):
        text = CHAIN4_DATA.replace(f"\n1 {keyword}\n", f"\n2 {keyword}\n")
        assert text != CHAIN4_DATA
        with pytest.raises(MalformedHeader, match=f"^header declares 2 {keyword}, found 1$"):
            parse_data_file(text)

    def test_molecular_style_defaults_charge(self):
        text = H2_DATA.replace("Atoms # full", "Atoms # molecular")
        text = text.replace("1 1 1 0.0 0.0 0.0 0.0", "1 1 1 0.0 0.0 0.0")
        text = text.replace("2 1 1 0.0 0.74 0.0 0.0", "2 1 1 0.74 0.0 0.0")
        topology = parse_data_file(text)
        assert topology.atoms["charge"].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("rows", ["all", "one"])
    @pytest.mark.parametrize("style", ["full", "molecular"])
    def test_image_flags_ignored(self, style, rows):
        # Read whole when every row has flags, row by row when one has.
        lines = H2_DATA.split("\n")
        first = lines.index("Atoms # full") + 2
        for k in (first, first + 1):
            tokens = lines[k].split()
            if style == "molecular":
                del tokens[3]
            if rows == "all" or k == first:
                tokens += ["0", "1", "-1"]
            lines[k] = " ".join(tokens)
        assert parse_data_file("\n".join(lines)) == parse_data_file(H2_DATA)

    def test_section_order_arbitrary(self):
        reordered = H2_DATA.replace("Masses\n\n1 1.008\n\n", "")
        reordered += "\nMasses\n\n1 1.008\n"
        assert parse_data_file(reordered).masses == {1: 1.008}

    def test_duplicate_mass_rejected(self):
        # LAMMPS read_data rejects a second mass for one type; the last one
        # used to win silently and change the labels the search matches on.
        text = H2_DATA.replace("\n1 1.008\n", "\n1 12.011\n1 1.008\n")
        line_no = text.split("\n").index("1 1.008") + 1
        with pytest.raises(
            MalformedLine, match=f"^line {line_no}: duplicate Masses entry for atom type 1$"
        ):
            parse_data_file(text)
        assert outcome(parse_data_file, text) == outcome(parse_data_file_reference, text)

    def test_equality_compares_contents(self):
        topology = parse_data_file(CHAIN4_TYPED_DATA)
        assert topology == parse_data_file(CHAIN4_TYPED_DATA)
        # A NaN coordinate equals itself.
        nan_text = CHAIN4_TYPED_DATA.replace("\n4 1 1 0.0 4.5 ", "\n4 1 1 0.0 nan ")
        assert parse_data_file(nan_text) == parse_data_file(nan_text)
        for field in ("atoms", "bonds", "angles", "dihedrals", "impropers"):
            for column in getattr(topology, field).dtype.names or [None]:
                other = parse_data_file(CHAIN4_TYPED_DATA)
                table = getattr(other, field)
                if column is None:
                    table[-1, -1] += 1
                else:
                    table[-1][column] += 1
                assert other != topology, (field, column)
            shorter = parse_data_file(CHAIN4_TYPED_DATA)
            setattr(shorter, field, getattr(shorter, field)[:-1])
            assert shorter != topology, field
        for field, changed in (("masses", {1: 12.0}), ("type_counts", {"atoms": 4})):
            other = parse_data_file(CHAIN4_TYPED_DATA)
            setattr(other, field, changed)
            assert other != topology, field
        assert topology != "not a topology"

    def test_coeff_sections_skipped(self):
        text = H2_DATA + "\nBond Coeffs\n\n1 300.0 0.74\n"
        assert len(parse_data_file(text).bonds) == 1

    def test_bytes_held_per_site(self):
        # A parsed file holds its sections as arrays: 152 bytes per site of
        # the 3,072-site united-atom product, where rows of Python tuples
        # held 798.
        text = large_product_text()
        parse_data_file(text)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            topology = parse_data_file(text)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        assert len(topology.atoms) == 3072
        assert held < 400 * 3072, held / 3072

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=400))
    def test_parse_totality_fuzz(self, text):
        # Arbitrary input either parses or raises a structured ParseError.
        try:
            parse_data_file(text)
        except ParseError:
            pass


def random_template(rng: random.Random) -> MoleculeTemplateFile:
    n = rng.randint(1, 12)
    atoms = [
        TemplateAtom(
            type_id=rng.randint(1, 5),
            charge=round(rng.uniform(-1, 1), 6),
            x=round(rng.uniform(-20, 20), 6),
            y=round(rng.uniform(-20, 20), 6),
            z=round(rng.uniform(-20, 20), 6),
        )
        for _ in range(n)
    ]
    def members(k):
        return tuple(rng.randint(1, n) for _ in range(k))
    bonds = [(rng.randint(1, 4), members(2)) for _ in range(rng.randint(0, n))]
    angles = [(rng.randint(1, 4), members(3)) for _ in range(rng.randint(0, n))]
    dihedrals = [(rng.randint(1, 4), members(4)) for _ in range(rng.randint(0, n))]
    impropers = [(rng.randint(1, 4), members(4)) for _ in range(rng.randint(0, 2))]
    return MoleculeTemplateFile(
        atoms=atoms, bonds=bonds, angles=angles, dihedrals=dihedrals, impropers=impropers
    )


# Four atoms and two rows in each interaction section, so that a row can
# take another row's index while the counts still agree.
FOUR_ATOM_TEMPLATE = MoleculeTemplateFile(
    atoms=[TemplateAtom(1 + i % 2, 0.1 * i, float(i), 0.0, 0.0) for i in range(4)],
    bonds=[(1, (1, 2)), (1, (2, 3))],
    angles=[(1, (1, 2, 3)), (2, (2, 3, 4))],
    dihedrals=[(1, (1, 2, 3, 4)), (1, (4, 3, 2, 1))],
    impropers=[(1, (1, 2, 3, 4)), (2, (2, 1, 3, 4))],
)

# Each fault of a section's last row or count, and the class it raises in an
# atom section (Coords, Types, Charges) and in an interaction section.
SECTION_FAULTS = {
    "gap": (MalformedHeader, MalformedLine),
    "duplicate": (MalformedLine, MalformedLine),
    "wide": (MalformedLine, MalformedLine),
    "narrow": (MalformedLine, MalformedLine),
    "missing-row": (MalformedHeader, MalformedHeader),
    "count-up": (MalformedHeader, MalformedHeader),
}


class TestMoleculeTemplate:
    def test_h2_round_trip(self):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0), TemplateAtom(1, 0.0, 0.74, 0.0, 0.0)],
            bonds=[(1, (1, 2))],
        )
        text = write_molecule_template(template)
        assert parse_molecule_template(text) == template

    def test_zero_impropers_section_omitted(self):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0)],
        )
        text = write_molecule_template(template)
        assert "Impropers" not in text
        assert "Bonds" not in text

    def test_random_round_trips(self):
        rng = random.Random(20240817)
        for _ in range(100):
            template = random_template(rng)
            first = write_molecule_template(template)
            reparsed = parse_molecule_template(first)
            assert reparsed == template
            assert write_molecule_template(reparsed) == first

    def test_shuffled_section_order(self):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(2, -0.5, 1.0, 2.0, 3.0), TemplateAtom(1, 0.5, 0.0, 0.0, 0.0)],
            bonds=[(3, (2, 1))],
        )
        text = write_molecule_template(template)
        blocks = text.split("\n\n")
        header, sections = blocks[:2], blocks[2:]
        pairs = [sections[i : i + 2] for i in range(0, len(sections), 2)]
        reordered = "\n\n".join(["\n\n".join(sum(reversed(pairs), []))])
        shuffled = "\n\n".join(header) + "\n\n" + reordered
        assert parse_molecule_template(shuffled) == template

    def test_truncated_bonds_section(self):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0), TemplateAtom(1, 0.0, 0.74, 0.0, 0.0)],
            bonds=[(1, (1, 2))],
        )
        text = write_molecule_template(template)
        truncated = text.replace("1 1 1 2\n", "")
        with pytest.raises(MalformedHeader):
            parse_molecule_template(truncated)

    @pytest.mark.parametrize("fault", SECTION_FAULTS)
    @pytest.mark.parametrize("section", ["Coords", "Types", "Charges", *SECTION_IDS])
    def test_malformed_section_rejected(self, section, fault):
        lines = write_molecule_template(FOUR_ATOM_TEMPLATE).split("\n")
        first = lines.index(section) + 2
        last = lines.index("", first) - 1
        index, *fields = lines[last].split()
        count = last - first + 1
        keyword = INTERACTION_SECTIONS[section][0] if section in INTERACTION_SECTIONS else "atoms"
        if fault == "gap":
            lines[last] = " ".join([str(count + 1), *fields])
        elif fault == "duplicate":
            lines[last] = " ".join(["1", *fields])
        elif fault == "wide":
            lines[last] += " 7"
        elif fault == "narrow":
            lines[last] = " ".join([index, *fields[:-1]])
        elif fault == "missing-row":
            del lines[last]
        else:
            lines[lines.index(f"{count} {keyword}")] = f"{count + 1} {keyword}"
        expected = SECTION_FAULTS[fault][keyword != "atoms"]
        with pytest.raises(expected) as info:
            parse_molecule_template("\n".join(lines))
        assert type(info.value) is expected

    @pytest.mark.parametrize("name, keyword, noun, arity", SECTIONS, ids=SECTION_IDS)
    def test_out_of_range_interaction_rejected(self, name, keyword, noun, arity):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0)],
            **{keyword: [(1, (1,) * (arity - 1) + (2,))]},
        )
        with pytest.raises(ValidationError, match=f"^{noun} references atom index 2 outside 1..1$"):
            write_molecule_template(template)

    def test_non_ascii_only_in_comments_and_title(self):
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0), TemplateAtom(1, 0.0, 0.74, 0.0, 0.0)],
            bonds=[(1, (1, 2))],
        )
        text = write_molecule_template(template, "H\u2082 in \u00c5")
        commented = text.replace("\nCoords\n", "\nCoords # \u00c5ngstr\u00f6m\n")
        assert parse_molecule_template(commented) == template
        line_no = text.split("\n").index("Types") + 4
        full_width = text.replace("\n2 1\n", "\n\uff12 1\n")
        with pytest.raises(MalformedLine, match=f"^line {line_no}: non-ASCII character"):
            parse_molecule_template(full_width)

    def test_special_bond_counts_rejected(self):
        # Templates never carry this section, so the reader treats it as unknown.
        template = MoleculeTemplateFile(
            atoms=[TemplateAtom(1, 0.0, 0.0, 0.0, 0.0), TemplateAtom(1, 0.0, 0.74, 0.0, 0.0)],
            bonds=[(1, (1, 2))],
        )
        text = write_molecule_template(template) + "\nSpecial Bond Counts\n\n1 1 0 0\n2 1 0 0\n"
        with pytest.raises(UnknownSection):
            parse_molecule_template(text)


class TestMapFile:
    def test_identity_two_atoms(self):
        map_file = ReactionMapFile(
            pre_atom_count=2,
            post_atom_count=2,
            equivalences=[(1, 1), (2, 2)],
            initiators=(1, 2),
        )
        text = write_map_file(map_file)
        assert "2 equivalences" in text
        assert "DeleteIDs" not in text
        assert "CreateIDs" not in text
        assert text.index("InitiatorIDs") < text.index("Equivalences")

    def test_delete_ids_section(self):
        map_file = ReactionMapFile(
            pre_atom_count=4,
            post_atom_count=1,
            equivalences=[(2, 1)],
            initiators=(2, 2),
            delete_ids=[1, 3, 4],
        )
        text = write_map_file(map_file)
        assert "3 deleteIDs" in text
        assert "DeleteIDs" in text

    def test_create_ids_cross_reference(self):
        bad = ReactionMapFile(
            pre_atom_count=2,
            post_atom_count=3,
            equivalences=[(1, 1), (2, 2)],
            initiators=(1, 2),
            create_ids=[5],
        )
        with pytest.raises(ValidationError):
            write_map_file(bad)

    def test_equivalences_must_cover_non_deleted(self):
        bad = ReactionMapFile(
            pre_atom_count=3,
            post_atom_count=2,
            equivalences=[(1, 1)],
            initiators=(1, 1),
            delete_ids=[3],
        )
        with pytest.raises(ValidationError):
            write_map_file(bad)

    def test_initiators_must_be_mapped(self):
        bad = ReactionMapFile(
            pre_atom_count=2,
            post_atom_count=1,
            equivalences=[(1, 1)],
            initiators=(1, 2),
            delete_ids=[2],
        )
        with pytest.raises(ValidationError):
            write_map_file(bad)

    def test_equivalences_sorted_by_pre_index(self):
        map_file = ReactionMapFile(
            pre_atom_count=3,
            post_atom_count=3,
            equivalences=[(3, 1), (1, 3), (2, 2)],
            initiators=(1, 2),
        )
        text = write_map_file(map_file)
        section = text.split("Equivalences")[1].strip().splitlines()
        assert section == ["1 3", "2 2", "3 1"]


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        template = random_template(random.Random(5))
        assert write_molecule_template(template) == write_molecule_template(template)
        map_file = ReactionMapFile(
            pre_atom_count=2,
            post_atom_count=2,
            equivalences=[(1, 1), (2, 2)],
            initiators=(1, 2),
        )
        assert write_map_file(map_file) == write_map_file(map_file)


class TestFixtureDrift:
    def test_chemfix_regenerates_committed_fixtures(self, tmp_path):
        # the committed data files are chemfix's output; editing either alone fails here
        written = chemfix.write_fixture_files(str(tmp_path))
        names = sorted(os.path.basename(path) for path in written)
        assert names == sorted(os.listdir(FIXTURE_DIR))
        assert len(names) == 8
        for name in names:
            with open(tmp_path / name, "rb") as fresh, open(fixture_path(name), "rb") as committed:
                assert fresh.read() == committed.read(), name


# The data-file reader as it was before it was tuned for speed, kept (names
# aside) as the oracle of the current one: every text must give an equal
# topology, or the same error with the same line number.  Two rules joined
# it since: an integer field must fit int64, and an atom type has one
# Masses entry.

def _strip_comment_reference(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _split_sections_reference(text: str, known: frozenset[str]) -> list[tuple[str, int, list[tuple[int, str]]]]:
    """Split file body into (section name, header line no, body lines).

    The leading block (before the first section) is returned under the name
    ``""``.  Section names are matched case-sensitively against ``known``;
    anything else that looks like a section header raises UnknownSection.
    """
    lines = text.split("\n")
    sections: list[tuple[str, int, list[tuple[int, str]]]] = [("", 0, [])]
    # The first line of the file is a comment by convention.
    for line_no, raw in enumerate(lines[1:], start=2):
        stripped = _strip_comment_reference(raw)
        if not stripped:
            continue
        if stripped in known:
            sections.append((stripped, line_no, []))
            continue
        # An alphabetic line inside the header block is left to the caller,
        # which knows the count and box lines; after it, it names a section.
        if sections[-1][0] != "" and stripped[0].isalpha() and not _looks_numeric_row(stripped):
            raise UnknownSection(f"unrecognized section {stripped!r}", line_no)
        sections[-1][2].append((line_no, stripped))
    return sections


def parse_data_file_reference(text: str) -> SystemTopology:
    """Parse a LAMMPS data file into a validated SystemTopology.

    The canonical atom style is ``full``; ``molecular`` is accepted with
    charges defaulting to 0.  Comments and blank lines are ignored and the
    section order is arbitrary.
    """
    known = frozenset({"Masses", "Atoms"}) | frozenset(INTERACTION_SECTIONS) | _SKIPPED_SECTIONS
    sections = _split_sections_reference(text, known)

    type_counts: dict[str, int] = {}
    masses: dict[int, float] = {}
    atoms: list[tuple] = []
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
                    type_id = _int64_reference(parts[0])
                    mass = float(parts[1])
                except (IndexError, ValueError):
                    raise MalformedLine(f"bad Masses entry {stripped!r}", line_no)
                if type_id in masses:
                    raise MalformedLine(f"duplicate Masses entry for atom type {type_id}", line_no)
                masses[type_id] = mass
        elif name == "Atoms":
            seen.add(name)
            for line_no, stripped in body:
                atoms.append(_parse_atom_line_reference(stripped, line_no))
        else:
            seen.add(name)
            keyword, _, arity = INTERACTION_SECTIONS[name]
            for line_no, stripped in body:
                parts = stripped.split()
                if len(parts) < 2 + arity:
                    raise MalformedLine(f"bad {name} entry {stripped!r}", line_no)
                try:
                    type_id = _int64_reference(parts[1])
                    members = tuple(_int64_reference(p) for p in parts[2 : 2 + arity])
                except ValueError:
                    raise MalformedLine(f"bad {name} entry {stripped!r}", line_no)
                interactions[keyword].append((type_id, members))

    if "Atoms" not in seen:
        raise MalformedHeader("data file has no Atoms section")
    if "Masses" not in seen:
        raise MalformedHeader("data file has no Masses section")

    validate_reference(atoms, masses, interactions, type_counts)
    return reference_topology(atoms, masses, interactions, type_counts)


def reference_topology(atoms, masses, interactions, type_counts) -> SystemTopology:
    """The topology of the reference reader's rows, not validated."""
    return SystemTopology.from_rows(
        atoms,
        masses,
        type_counts=type_counts,
        **{
            keyword: [(type_id, *members) for type_id, members in rows]
            for keyword, rows in interactions.items()
        },
    )


def validate_reference(atoms, masses, interactions, type_counts) -> None:
    """The checks of ``SystemTopology.validate``, one entry at a time, on
    the rows as Python values: ``atoms`` as (atom_id, mol_id, type_id,
    charge, x, y, z) and ``interactions`` as (type, members) per keyword."""
    id_counts = Counter(atom_id for atom_id, *_ in atoms)
    ids = set(id_counts)
    if len(ids) != len(atoms):
        dup = min(i for i, count in id_counts.items() if count > 1)
        raise MalformedLine(f"duplicate atom id {dup}")
    for _, _, atom_type, *_ in atoms:
        if atom_type not in masses:
            raise MissingMass(f"atom type {atom_type} has no Masses entry")
    for type_id, mass in masses.items():
        if not 0 < mass < math.inf:
            raise MalformedLine(
                f"atom type {type_id} has mass {mass}; masses must be finite and positive"
            )
    typed = [
        ("Atoms", "atom", [atom_type for _, _, atom_type, *_ in atoms]),
        ("Masses", "atom", list(masses)),
    ]
    for name, (keyword, noun, _) in INTERACTION_SECTIONS.items():
        typed.append((name, noun, [type_id for type_id, _ in interactions[keyword]]))
    for name, noun, types in typed:
        declared = type_counts.get(f"{noun} types")
        for type_id in types:
            if declared is not None and not 1 <= type_id <= declared:
                raise MalformedLine(
                    f"{name} entry has {noun} type {type_id}; "
                    f"header declares {declared} {noun} types"
                )
    found = {"atoms": len(atoms)}
    for name, (keyword, _, _) in INTERACTION_SECTIONS.items():
        entries = interactions[keyword]
        found[keyword] = len(entries)
        for _type_id, members in entries:
            distinct = set(members)
            if not distinct <= ids:
                missing = next(i for i in members if i not in ids)
                raise DanglingReference(f"{name} entry references missing atom id {missing}")
            if len(distinct) != len(members):
                repeated = next(i for i in members if members.count(i) > 1)
                raise MalformedLine(f"{name} entry lists atom {repeated} more than once")
    for keyword, expected in found.items():
        declared = type_counts.get(keyword)
        if declared is not None and declared != expected:
            raise MalformedHeader(f"header declares {declared} {keyword}, found {expected}")


def _int64_reference(token: str) -> int:
    """An integer field, which must fit int64 as the parsed arrays hold it."""
    value = int(token)
    if not -(2**63) <= value <= 2**63 - 1:
        raise ValueError(token)
    return value


def _parse_atom_line_reference(stripped: str, line_no: int) -> tuple:
    parts = stripped.split()
    try:
        if len(parts) in (7, 10):  # full: id mol type q x y z [image flags]
            return (
                _int64_reference(parts[0]),
                _int64_reference(parts[1]),
                _int64_reference(parts[2]),
                float(parts[3]),
                float(parts[4]),
                float(parts[5]),
                float(parts[6]),
            )
        if len(parts) in (6, 9):  # molecular: id mol type x y z [image flags]
            return (
                _int64_reference(parts[0]),
                _int64_reference(parts[1]),
                _int64_reference(parts[2]),
                0.0,
                float(parts[3]),
                float(parts[4]),
                float(parts[5]),
            )
    except ValueError:
        pass
    raise MalformedLine(f"bad Atoms entry {stripped!r}", line_no)


DATA_SECTIONS = frozenset({"Masses", "Atoms"}) | frozenset(INTERACTION_SECTIONS) | _SKIPPED_SECTIONS


def read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


FIXTURE_TEXTS = {name: read_text(fixture_path(name)) for name in sorted(os.listdir(FIXTURE_DIR))}

GARBAGE = (
    "x", "-", "1.5", "-3", "1e400", "0x1F", "#", "Atoms", "", "1_0", "9223372036854775808",
)
SECTION_LINES = (
    "Masses", "Atoms", "Atoms # full", "Bonds", "Angles", "Dihedrals", "Impropers",
    "Coords", "Types", "Charges", "Pair Coeffs", "Velocities", "Bondz", "atoms", "Foo Bar",
)
EDIT_KINDS = (
    "garbage", "drop", "duplicate", "comment", "extra", "image", "molecular", "section", "tabs",
)
edits = st.tuples(
    st.sampled_from(EDIT_KINDS), st.integers(0, 10**6), st.integers(0, 10**6)
)


def atom_rows(lines: list[str]) -> list[int]:
    """Indices of the non-blank lines of the first Atoms section."""
    rows = []
    inside = False
    for k, line in enumerate(lines):
        if line.startswith("Atoms"):
            inside = True
        elif inside and line[:1].isalpha():
            break
        elif inside and line.strip():
            rows.append(k)
    return rows


def mutate(text: str, changes, crlf: bool) -> str:
    """Apply (kind, line pick, argument) edits to a data or template file."""
    lines = text.split("\n")
    for kind, at, arg in changes:
        i = at % len(lines)
        if kind in ("image", "molecular"):
            # One row or all rows of the Atoms section, whichever style it has.
            rows = atom_rows(lines)
            if rows and arg % 2:
                rows = [rows[at % len(rows)]]
            for k in rows:
                tokens = lines[k].split()
                if kind == "image":
                    tokens += ["0", "1", "-1"]
                else:
                    del tokens[3:4]
                lines[k] = " ".join(tokens)
            continue
        tokens = lines[i].split()
        if kind == "garbage" and tokens:
            slot, choice = divmod(arg, len(GARBAGE))
            tokens[slot % len(tokens)] = GARBAGE[choice]
            lines[i] = " ".join(tokens)
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "comment":
            lines[i] += " # comment 1 2"
        elif kind == "extra":
            lines[i] += f" {arg % 7}"
        elif kind == "section":
            lines.insert(i, SECTION_LINES[arg % len(SECTION_LINES)])
        elif kind == "tabs":
            lines[i] = lines[i].replace(" ", "\t")
    return ("\r\n" if crlf else "\n").join(lines)


def outcome(parse, *args):
    """What a reader made of the input: its result, or its error."""
    try:
        return parse(*args)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc), getattr(exc, "line_no", None)


@functools.cache
def large_product_text() -> str:
    """The 3,072-site product of ``ua_dimerization(1536)``, rendered by chemfix."""
    g_reac, g_prod = ua_dimerization(1536, random.Random(0))
    system = chemfix.topology_system("ua-1536", g_reac.topologies, g_prod.topologies)
    return chemfix.render_system(system)[1][0]


def edit_middle_row(text: str, section: str, edit) -> str:
    """``text`` with the middle row of ``section`` (a list of tokens) edited."""
    lines = text.split("\n")
    start = next(k for k, line in enumerate(lines) if line.partition("#")[0].strip() == section) + 2
    middle = (start + lines.index("", start)) // 2
    lines[middle] = " ".join(edit(lines[middle].split()))
    return "\n".join(lines)


def replace_token(slot: int, token):
    """An edit setting one token; ``token`` maps the old one to the new."""
    def edit(tokens):
        tokens[slot] = token(tokens[slot])
        return tokens
    return edit


OVERFLOW = "9223372036854775808"  # 2**63, one past int64

# One irregular row in the middle of a section of about 3,000 rows: the
# edit, and the error class the file then raises (None if it parses).
IRREGULAR_ROWS = {
    "Atoms-image-flags": ("Atoms", lambda tokens: tokens + ["0", "1", "-1"], None),
    "Atoms-molecular": ("Atoms", lambda tokens: tokens[:3] + tokens[4:], None),
    "Atoms-underscore": ("Atoms", replace_token(0, "0_{}".format), None),
    "Atoms-int64-overflow": ("Atoms", replace_token(0, lambda _: OVERFLOW), MalformedLine),
    "Atoms-1e400": ("Atoms", replace_token(4, lambda _: "1e400"), None),
    "Bonds-underscore": ("Bonds", replace_token(2, "0_{}".format), None),
    "Bonds-int64-overflow": ("Bonds", replace_token(3, lambda _: OVERFLOW), MalformedLine),
    "Dihedrals-underscore": ("Dihedrals", replace_token(1, "0_{}".format), None),
    # The type id: outside the header's 4 dihedral types.
    "Dihedrals-int64-overflow": ("Dihedrals", replace_token(1, lambda _: OVERFLOW), MalformedLine),
}


def load_perfbench(name):
    """The benchmark module ``perfbench/<name>.py``."""
    path = os.path.join(os.path.dirname(FIXTURE_DIR), "..", "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    return load_perfbench("workloads")


class TestParserOracle:
    def test_fixtures_match_reference(self):
        for name, text in FIXTURE_TEXTS.items():
            assert parse_data_file(text) == parse_data_file_reference(text), name

    def test_generated_workload_files_match_reference(self, tmp_path):
        workloads = load_workloads()
        checked = 0
        for kind in workloads.GENERATED:
            for seed in (1, 2):
                directory = tmp_path / f"{kind}-{seed}"
                directory.mkdir()
                for instance in workloads.generated(kind, seed, str(directory)):
                    for path in instance.reactants + instance.products:
                        text = read_text(path)
                        assert parse_data_file(text) == parse_data_file_reference(text), path
                        checked += 1
        assert checked == 2 * 3 * (72 + 72 + 24)

    @pytest.mark.parametrize("case", IRREGULAR_ROWS)
    def test_irregular_row_in_large_file_matches_reference(self, case):
        section, edit, raised = IRREGULAR_ROWS[case]
        text = edit_middle_row(large_product_text(), section, edit)
        assert text != large_product_text()
        result = outcome(parse_data_file, text)
        assert result == outcome(parse_data_file_reference, text)
        if raised is None:
            assert isinstance(result, SystemTopology)
        else:
            assert result[0] is raised, result

    def test_validate_matches_reference_on_random_rows(self):
        # Small topologies with several faults at once: the column checks
        # raise the error the per-entry checks raise first.
        rng = random.Random(35)
        raised = Counter()

        def fault(rate=0.03):
            return rng.random() < rate

        for _ in range(4000):
            ids = rng.sample(range(1, 9), 0 if fault() else rng.randint(1, 6))
            if ids and fault(0.1):
                ids.append(rng.choice(ids))
            masses = {} if fault() else {t: 12.011 for t in range(1, 5) if not fault()}
            if fault():
                masses[rng.choice((0, 5, 1, 2))] = rng.choice((0.0, -1.0, math.nan, math.inf))
            atoms = [
                (i, 1, rng.choice((0, 5)) if fault() else rng.randint(1, 4), 0.0, 0.0, 0.0, 0.0)
                for i in ids
            ]

            def row(arity):
                members = [
                    rng.randint(0, 9) if fault() or not ids else rng.choice(ids)
                    for _ in range(arity)
                ]
                if not fault(0.3):  # distinct members, where the file has enough atoms
                    members = rng.sample(ids, arity) if len(set(ids)) >= arity else members
                return rng.choice((0, 4)) if fault() else rng.randint(1, 3), tuple(members)

            interactions = {
                keyword: [row(arity) for _ in range(rng.randint(0, 3))]
                for keyword, _, arity in INTERACTION_SECTIONS.values()
            }
            counts = {"atoms": len(ids), **{k: len(rows) for k, rows in interactions.items()}}
            counts.update({f"{noun} types": 3 for _, noun, _ in INTERACTION_SECTIONS.values()})
            counts["atom types"] = 4
            type_counts = {
                key: value + fault() for key, value in counts.items() if rng.random() < 0.7
            }
            topology = reference_topology(atoms, masses, interactions, type_counts)
            expected = outcome(validate_reference, atoms, masses, interactions, type_counts)
            assert outcome(topology.validate) == expected
            raised[None if expected is None else expected[0]] += 1
        # Every check fails somewhere, and some topologies pass.
        assert set(raised) == {None, MalformedLine, MissingMass, DanglingReference, MalformedHeader}

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(FIXTURE_TEXTS)),
        changes=st.lists(edits, min_size=1, max_size=3),
        crlf=st.booleans(),
    )
    def test_mutated_fixtures_match_reference(self, name, changes, crlf):
        text = mutate(FIXTURE_TEXTS[name], changes, crlf)
        assert outcome(parse_data_file, text) == outcome(parse_data_file_reference, text)
        for known in (DATA_SECTIONS, _TEMPLATE_SECTIONS):
            assert outcome(_split_sections, text, known) == outcome(
                _split_sections_reference, text, known
            )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        changes=st.lists(edits, min_size=0, max_size=3),
        crlf=st.booleans(),
    )
    def test_mutated_templates_split_as_reference(self, seed, changes, crlf):
        # parse_molecule_template reads through the same section splitter.
        text = mutate(write_molecule_template(random_template(random.Random(seed))), changes, crlf)
        assert outcome(_split_sections, text, _TEMPLATE_SECTIONS) == outcome(
            _split_sections_reference, text, _TEMPLATE_SECTIONS
        )
