"""Family file format: round-trips and line-precise parse errors."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassmd.errors import GrassmdError, InvalidArgs, NotPrimePower
from grassmd.famfile import format_family, parse_family
from grassmd.gfq import field_new
from grassmd.constructions import resolving_from_partition
from grassmd.subspaces import SubspaceFamily, enumerate_k_subspaces
from oracles import parse_family_by_block
from strategies import rref_families


def test_round_trip():
    ctx = field_new(3)
    fam = resolving_from_partition(ctx, 4, 2)
    text = format_family(3, 4, 2, fam, comments=("one", "two"))
    assert text.startswith("# one\n# two\n3 4 2 49\n")
    ctx2, n, k, parsed = parse_family(text)
    assert (ctx2.q, n, k) == (3, 4, 2)
    assert [m.basis.data for m in parsed] == [m.basis.data for m in fam]
    # formatting the parse gives identical bytes (minus comments)
    assert format_family(3, 4, 2, parsed) == format_family(3, 4, 2, fam)


def test_parse_ignores_comments_and_blank_lines():
    text = "# header comment\n\n2 3 2 1\n1 0 0\n# inline note\n0 1 0\n\n"
    ctx, n, k, fam = parse_family(text)
    assert (ctx.q, n, k, len(fam)) == (2, 3, 2, 1)


def test_an_empty_family_is_built_from_its_basis_array(monkeypatch):
    # a `q n k 0` file's family comes from its (0, k, n) array, as every
    # other file's does, never from the `Subspace`-list constructor
    def no_list(self, members):
        raise AssertionError("SubspaceFamily(members) was called")

    monkeypatch.setattr(SubspaceFamily, "__init__", no_list)
    ctx, n, k, fam = parse_family("3 5 2 0\n")
    assert (ctx.q, n, k, len(fam)) == (3, 5, 2, 0)
    assert fam.ctx is ctx and fam.bases.shape == (0, 2, 5)


def test_format_rejects_mismatched_family():
    ctx = field_new(2)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2)[:2])
    with pytest.raises(InvalidArgs):
        format_family(2, 4, 3, fam)  # wrong k
    with pytest.raises(InvalidArgs):
        format_family(3, 4, 2, fam)  # wrong field


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("2 3 2\n", "header"),
        ("2 3 2 one\n", "non-integer"),
        ("2 3 2 1\n1 0 0\n", "expected"),  # truncated block
        ("2 3 2 1\n1 0 0\n0 1 0\n1 0 0\n0 0 1\n", "expected"),  # trailing rows
        ("2 3 2 1\n1 0 2\n0 1 0\n", "entry"),  # 2 is not a GF(2) element
        ("2 3 1 1\n1 0 99999999999999999999\n", "entry"),  # beyond int64, too
        pytest.param("2 3 1 1\n1 0 " + "1" * 5000 + "\n", "line 2: non-integer",
                     id="5000-digit entry"),  # past int()'s digit limit
        ("2 3 2 1\n0 1 0\n1 0 0\n", "echelon"),  # not in canonical form
        ("2 3 2 2\n1 0 0\n0 1 0\n1 0 0\n0 1 0\n", "duplicate"),
        # tokens int() reads but the format never writes
        ("2 4 2 1\n1 0 0_0 0\n0 +1 0 0\n", "line 2: non-integer"),
        ("2 3 2 1\n1 0 +0\n0 1 0\n", "line 2: non-integer"),
        ("2 3 2 1\n1 0 \u0660\n0 1 0\n", "line 2: non-integer"),  # ARABIC-INDIC ZERO
        ("2 3 2 \uff11\n1 0 0\n0 1 0\n", "line 1: non-integer"),  # FULLWIDTH ONE
        # numbers are separated by U+0020 spaces alone
        ("2 3 2 1\n1\t0 0\n0 1 0\n", "line 2: non-integer"),
        ("2 3 2 1\n1 0 0\n0 1 0\t\n", "line 3: non-integer"),
        ("2 3 2 1\n1 0 0\n\t\n0 1 0\n", "line 3: non-integer"),
        ("2 3 1 1\n1\u00a00 0\n", "line 2: non-integer"),  # NO-BREAK SPACE
        # negative values are tokens that the value checks refuse
        ("2 3 2 1\n1 0 -1\n0 1 0\n", "entry -1 is not"),
        ("2 3 -2 1\n", "bad header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InvalidArgs) as exc:
        parse_family(text)
    assert fragment in str(exc.value).lower()


# the characters other than LF and CR at which str.splitlines breaks a line
FOREIGN_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", FOREIGN_LINE_BREAKS)
def test_only_lf_and_cr_end_a_line(char):
    # inside a data line the character is a foreign token; a comment keeps it
    with pytest.raises(InvalidArgs, match=r"^line 2: non-integer token in '1 0 0"):
        parse_family(f"2 3 2 1\n1 0 0{char}0 1 0\n")
    ctx, n, k, fam = parse_family(f"# a{char}0 1 0\n2 3 2 1\n1 0 0\n0 1 0\n")
    assert (n, k, len(fam)) == (3, 2, 1)


def test_crlf_and_cr_files_parse_as_lf_files():
    text = "# note\n2 3 2 2\n1 0 0\n0 1 0\n\n1 0 0\n0 0 1\n"
    expected = parse_family(text)
    for newline in ("\r\n", "\r"):
        assert parse_family(text.replace("\n", newline)) == expected
        assert parse_family_by_block(text.replace("\n", newline)) == expected


def test_parse_rejects_non_prime_power_field():
    with pytest.raises(NotPrimePower):
        parse_family("6 3 2 1\n1 0 0\n0 1 0\n")


@st.composite
def family_texts(draw):
    """A valid family file: random distinct RREF members of one shape."""
    members = list({m.basis.data: m for m in draw(rref_families())}.values())
    first = members[0]
    return format_family(first.ctx.q, first.n, first.dim, SubspaceFamily(members))


@settings(max_examples=100, deadline=None)
@given(family_texts())
def test_format_parse_round_trip_property(text):
    ctx, n, k, fam = parse_family(text)
    assert text.startswith(f"{ctx.q} {n} {k} {len(fam)}\n")
    assert format_family(ctx.q, n, k, fam) == text


@st.composite
def mutated_texts(draw):
    """A valid family file with one to three line-level mutations."""
    lines = draw(family_texts()).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "drop", "repeat", "junk"]))
        toks = lines[i].split()
        if kind == "token" and toks:
            j = draw(st.integers(0, len(toks) - 1))
            toks[j] = draw(st.one_of(st.integers(-2, 20).map(str), st.text(max_size=3)))
            lines[i] = " ".join(toks)
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=20))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=200), mutated_texts()))
def test_parse_fuzz_raises_only_grassmd_errors(text):
    try:
        parse_family(text)
    except GrassmdError:
        pass


def parse_outcome(parse, text):
    """(ctx, n, k, family) of a parse, or the class and message of its error."""
    try:
        return parse(text)
    except GrassmdError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), family_texts(), mutated_texts()))
@example("2 3 2 2\n1 0 5\n0 1 0\n1 0\n0 1 0\n")  # an entry, then a short row
@example("2 3 2 2\n0 1 0\n1 0 0\n1 0 0 0\n0 1 0\n")  # not RREF, then a long row
@example("2 3 2 3\n1 0 0\n0 1 0\n0 1 0\n0 0 1\n1 0 0\n0 1 0\n")  # a repeat
@example("2 3 1 3\n1 0 0\n1 0 0\n-1 1 0\n")  # a repeat, then an entry
@example("2 3 1 3\n1 0 0\n1 0 0\n1 0\n")  # a repeat, then a short row
@example("2 3 1 3\n1 0 0\n-1 1 0\n1 0 0\n")  # an entry, then a repeat
@example("2 3 2 1\n1 0 +1\n0 1 0_0\n")  # tokens int() reads but the format does not
@example("2 3 1 1\n1 0 \uff10\n")  # a non-ASCII digit
@example("2 3 1 1\n1\u00a00 0\n")  # a non-ASCII separator: both refuse it
@example("2 3 1 1\n1 0 " + "1" * 5000 + "\n")  # a token past int()'s digit limit
@example("2 3000000000 3000000000 0\n")  # no member, and no array is k x n
@example("2 1000000000000000000000 2 1\n1 0\n0 1\n")  # rows short of an n past int64
def test_parse_matches_the_block_by_block_oracle(text):
    # the array parser accepts the same texts, returns equal families and
    # refuses the rest with the same error, first offending block first
    assert parse_outcome(parse_family, text) == parse_outcome(parse_family_by_block, text)
