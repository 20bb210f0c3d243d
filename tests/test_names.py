"""The names the classical and exceptional readers accept, pinned row by row.

Each row reads one name with one of the four name readers and pins the
member it returns, or the refusal's code and message.  The message pinned
is the row's text followed by the reader's tail, ``TAIL``.  The names are
every accepted spelling in lower, upper and mixed case, padded with spaces,
tabs and no-break spaces, with and without underscores, then lookalikes:
letters whose case mapping reaches ASCII (the long s, the dotless i, the
Kelvin sign, the sharp s, the ff ligature) and fullwidth letters, none of
which names anything; then the empty name and two names that are no string,
which are read through their ``str``.
"""

import pytest

from weylstrata.atlas import exc_group_from_name
from weylstrata.classical import Series, series_from_name
from weylstrata.errors import DomainError
from weylstrata.jordan import JordanFamily, family_from_name
from weylstrata.weyl import WeylSeries, weyl_series_from_name

READERS = {
    "series": series_from_name,
    "weyl": weyl_series_from_name,
    "family": family_from_name,
    "exc": exc_group_from_name,
}
TAIL = {
    "series": "; expected GL, Sp, SO_odd, or SO_even",
    "weyl": "; expected A, B, C, or D",
    "family": (
        "; expected one of ['Z1', 'Z1P', 'Z2', 'Z2P'] or "
        "['symplectic', 'symplectic_char2', 'orthogonal', 'orthogonal_char2']"
    ),
    "exc": "",
}

# (reader, name, the member returned, or (code, message before the tail))
ROWS = [
    # series
    ('series', 'GL', Series.GL),
    ('series', 'gl', Series.GL),
    ('series', ' GL ', Series.GL),
    ('series', '\tGL\t', Series.GL),
    ('series', '\xa0GL\xa0', Series.GL),
    ('series', 'G_L', ('bad_series', "unknown series 'G_L'")),
    ('series', 'Sp', Series.SP),
    ('series', 'sp', Series.SP),
    ('series', 'SP', Series.SP),
    ('series', 'sP', Series.SP),
    ('series', ' Sp ', Series.SP),
    ('series', '\tSp\t', Series.SP),
    ('series', '\xa0Sp\xa0', Series.SP),
    ('series', 'S_p', ('bad_series', "unknown series 'S_p'")),
    ('series', 'SO_odd', Series.SO_ODD),
    ('series', 'so_odd', Series.SO_ODD),
    ('series', 'SO_ODD', Series.SO_ODD),
    ('series', 'so_ODD', Series.SO_ODD),
    ('series', ' SO_odd ', Series.SO_ODD),
    ('series', '\tSO_odd\t', Series.SO_ODD),
    ('series', '\xa0SO_odd\xa0', Series.SO_ODD),
    ('series', 'SOodd', Series.SO_ODD),
    ('series', 'S_O_odd', ('bad_series', "unknown series 'S_O_odd'")),
    ('series', 'SO_even', Series.SO_EVEN),
    ('series', 'so_even', Series.SO_EVEN),
    ('series', 'SO_EVEN', Series.SO_EVEN),
    ('series', 'so_EVEN', Series.SO_EVEN),
    ('series', ' SO_even ', Series.SO_EVEN),
    ('series', '\tSO_even\t', Series.SO_EVEN),
    ('series', '\xa0SO_even\xa0', Series.SO_EVEN),
    ('series', 'SOeven', Series.SO_EVEN),
    ('series', 'S_O_even', ('bad_series', "unknown series 'S_O_even'")),
    ('series', 'ſp', ('bad_series', "unknown series 'ſp'")),
    ('series', 'ſo_odd', ('bad_series', "unknown series 'ſo_odd'")),
    ('series', 'ſymplectic', ('bad_series', "unknown series 'ſymplectic'")),
    ('series', 'ı', ('bad_series', "unknown series 'ı'")),
    ('series', '\u212a', ('bad_series', "unknown series '\u212a'")),
    ('series', 'ß', ('bad_series', "unknown series 'ß'")),
    ('series', 'ﬀ', ('bad_series', "unknown series 'ﬀ'")),
    ('series', 'Ｂ', ('bad_series', "unknown series 'Ｂ'")),
    ('series', 'Ｅ8', ('bad_series', "unknown series 'Ｅ8'")),
    ('series', '', ('bad_series', "unknown series ''")),
    ('series', 5, ('bad_series', 'unknown series 5')),
    ('series', None, ('bad_series', 'unknown series None')),
    # weyl
    ('weyl', 'A', WeylSeries.A),
    ('weyl', 'a', WeylSeries.A),
    ('weyl', ' A ', WeylSeries.A),
    ('weyl', '\tA\t', WeylSeries.A),
    ('weyl', '\xa0A\xa0', WeylSeries.A),
    ('weyl', '_A', ('bad_series', "unknown Weyl series '_A'")),
    ('weyl', 'B', WeylSeries.B),
    ('weyl', 'b', WeylSeries.B),
    ('weyl', ' B ', WeylSeries.B),
    ('weyl', '\tB\t', WeylSeries.B),
    ('weyl', '\xa0B\xa0', WeylSeries.B),
    ('weyl', '_B', ('bad_series', "unknown Weyl series '_B'")),
    ('weyl', 'C', WeylSeries.B),
    ('weyl', 'c', WeylSeries.B),
    ('weyl', ' C ', WeylSeries.B),
    ('weyl', '\tC\t', WeylSeries.B),
    ('weyl', '\xa0C\xa0', WeylSeries.B),
    ('weyl', '_C', ('bad_series', "unknown Weyl series '_C'")),
    ('weyl', 'D', WeylSeries.D),
    ('weyl', 'd', WeylSeries.D),
    ('weyl', ' D ', WeylSeries.D),
    ('weyl', '\tD\t', WeylSeries.D),
    ('weyl', '\xa0D\xa0', WeylSeries.D),
    ('weyl', '_D', ('bad_series', "unknown Weyl series '_D'")),
    ('weyl', 'ſp', ('bad_series', "unknown Weyl series 'ſp'")),
    ('weyl', 'ſo_odd', ('bad_series', "unknown Weyl series 'ſo_odd'")),
    ('weyl', 'ſymplectic', ('bad_series', "unknown Weyl series 'ſymplectic'")),
    ('weyl', 'ı', ('bad_series', "unknown Weyl series 'ı'")),
    ('weyl', '\u212a', ('bad_series', "unknown Weyl series '\u212a'")),
    ('weyl', 'ß', ('bad_series', "unknown Weyl series 'ß'")),
    ('weyl', 'ﬀ', ('bad_series', "unknown Weyl series 'ﬀ'")),
    ('weyl', 'Ｂ', ('bad_series', "unknown Weyl series 'Ｂ'")),
    ('weyl', 'Ｅ8', ('bad_series', "unknown Weyl series 'Ｅ8'")),
    ('weyl', '', ('bad_series', "unknown Weyl series ''")),
    ('weyl', 5, ('bad_series', 'unknown Weyl series 5')),
    ('weyl', None, ('bad_series', 'unknown Weyl series None')),
    # family
    ('family', 'Z1', JordanFamily.SYMPLECTIC),
    ('family', 'z1', JordanFamily.SYMPLECTIC),
    ('family', ' Z1 ', JordanFamily.SYMPLECTIC),
    ('family', '\tZ1\t', JordanFamily.SYMPLECTIC),
    ('family', '\xa0Z1\xa0', JordanFamily.SYMPLECTIC),
    ('family', 'Z_1', ('bad_family', "unknown Jordan family 'Z_1'")),
    ('family', 'Z2', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', 'z2', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', ' Z2 ', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', '\tZ2\t', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', '\xa0Z2\xa0', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', 'Z_2', ('bad_family', "unknown Jordan family 'Z_2'")),
    ('family', 'Z1P', JordanFamily.ORTHOGONAL),
    ('family', 'z1p', JordanFamily.ORTHOGONAL),
    ('family', ' Z1P ', JordanFamily.ORTHOGONAL),
    ('family', '\tZ1P\t', JordanFamily.ORTHOGONAL),
    ('family', '\xa0Z1P\xa0', JordanFamily.ORTHOGONAL),
    ('family', 'Z_1P', ('bad_family', "unknown Jordan family 'Z_1P'")),
    ('family', 'Z2P', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', 'z2p', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', ' Z2P ', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', '\tZ2P\t', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', '\xa0Z2P\xa0', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', 'Z_2P', ('bad_family', "unknown Jordan family 'Z_2P'")),
    ('family', 'symplectic', JordanFamily.SYMPLECTIC),
    ('family', 'SYMPLECTIC', JordanFamily.SYMPLECTIC),
    ('family', ' symplectic ', JordanFamily.SYMPLECTIC),
    ('family', '\tsymplectic\t', JordanFamily.SYMPLECTIC),
    ('family', '\xa0symplectic\xa0', JordanFamily.SYMPLECTIC),
    ('family', 's_ymplectic', ('bad_family', "unknown Jordan family 's_ymplectic'")),
    ('family', 'symplectic_char2', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', 'SYMPLECTIC_CHAR2', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', ' symplectic_char2 ', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', '\tsymplectic_char2\t', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', '\xa0symplectic_char2\xa0', JordanFamily.SYMPLECTIC_CHAR2),
    ('family', 'symplecticchar2', ('bad_family', "unknown Jordan family 'symplecticchar2'")),
    ('family', 's_ymplectic_char2', ('bad_family', "unknown Jordan family 's_ymplectic_char2'")),
    ('family', 'orthogonal', JordanFamily.ORTHOGONAL),
    ('family', 'ORTHOGONAL', JordanFamily.ORTHOGONAL),
    ('family', ' orthogonal ', JordanFamily.ORTHOGONAL),
    ('family', '\torthogonal\t', JordanFamily.ORTHOGONAL),
    ('family', '\xa0orthogonal\xa0', JordanFamily.ORTHOGONAL),
    ('family', 'o_rthogonal', ('bad_family', "unknown Jordan family 'o_rthogonal'")),
    ('family', 'orthogonal_char2', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', 'ORTHOGONAL_CHAR2', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', ' orthogonal_char2 ', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', '\torthogonal_char2\t', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', '\xa0orthogonal_char2\xa0', JordanFamily.ORTHOGONAL_CHAR2),
    ('family', 'orthogonalchar2', ('bad_family', "unknown Jordan family 'orthogonalchar2'")),
    ('family', 'o_rthogonal_char2', ('bad_family', "unknown Jordan family 'o_rthogonal_char2'")),
    ('family', 'ſp', ('bad_family', "unknown Jordan family 'ſp'")),
    ('family', 'ſo_odd', ('bad_family', "unknown Jordan family 'ſo_odd'")),
    ('family', 'ſymplectic', ('bad_family', "unknown Jordan family 'ſymplectic'")),
    ('family', 'ı', ('bad_family', "unknown Jordan family 'ı'")),
    ('family', '\u212a', ('bad_family', "unknown Jordan family '\u212a'")),
    ('family', 'ß', ('bad_family', "unknown Jordan family 'ß'")),
    ('family', 'ﬀ', ('bad_family', "unknown Jordan family 'ﬀ'")),
    ('family', 'Ｂ', ('bad_family', "unknown Jordan family 'Ｂ'")),
    ('family', 'Ｅ8', ('bad_family', "unknown Jordan family 'Ｅ8'")),
    ('family', '', ('bad_family', "unknown Jordan family ''")),
    ('family', 5, ('bad_family', 'unknown Jordan family 5')),
    ('family', None, ('bad_family', 'unknown Jordan family None')),
    # exc
    ('exc', 'G2', 'G2'),
    ('exc', 'g2', 'G2'),
    ('exc', ' G2 ', 'G2'),
    ('exc', '\tG2\t', 'G2'),
    ('exc', '\xa0G2\xa0', 'G2'),
    ('exc', 'G_2', 'G2'),
    ('exc', 'F4', 'F4'),
    ('exc', 'f4', 'F4'),
    ('exc', ' F4 ', 'F4'),
    ('exc', '\tF4\t', 'F4'),
    ('exc', '\xa0F4\xa0', 'F4'),
    ('exc', 'F_4', 'F4'),
    ('exc', 'E6', 'E6'),
    ('exc', 'e6', 'E6'),
    ('exc', ' E6 ', 'E6'),
    ('exc', '\tE6\t', 'E6'),
    ('exc', '\xa0E6\xa0', 'E6'),
    ('exc', 'E_6', 'E6'),
    ('exc', 'E7', 'E7'),
    ('exc', 'e7', 'E7'),
    ('exc', ' E7 ', 'E7'),
    ('exc', '\tE7\t', 'E7'),
    ('exc', '\xa0E7\xa0', 'E7'),
    ('exc', 'E_7', 'E7'),
    ('exc', 'E8', 'E8'),
    ('exc', 'e8', 'E8'),
    ('exc', ' E8 ', 'E8'),
    ('exc', '\tE8\t', 'E8'),
    ('exc', '\xa0E8\xa0', 'E8'),
    ('exc', 'E_8', 'E8'),
    ('exc', 'ſp', ('bad_group', "unknown exceptional group 'ſp'")),
    ('exc', 'ſo_odd', ('bad_group', "unknown exceptional group 'ſo_odd'")),
    ('exc', 'ſymplectic', ('bad_group', "unknown exceptional group 'ſymplectic'")),
    ('exc', 'ı', ('bad_group', "unknown exceptional group 'ı'")),
    ('exc', '\u212a', ('bad_group', "unknown exceptional group '\u212a'")),
    ('exc', 'ß', ('bad_group', "unknown exceptional group 'ß'")),
    ('exc', 'ﬀ', ('bad_group', "unknown exceptional group 'ﬀ'")),
    ('exc', 'Ｂ', ('bad_group', "unknown exceptional group 'Ｂ'")),
    ('exc', 'Ｅ8', ('bad_group', "unknown exceptional group 'Ｅ8'")),
    ('exc', '', ('bad_group', "unknown exceptional group ''")),
    ('exc', 5, ('bad_group', 'unknown exceptional group 5')),
    ('exc', None, ('bad_group', 'unknown exceptional group None')),
]


@pytest.mark.parametrize("reader, name, expected", ROWS, ids=[f"{r}-{n!r}" for r, n, _ in ROWS])
def test_name_is_pinned(reader, name, expected):
    if isinstance(expected, tuple):
        with pytest.raises(DomainError) as err:
            READERS[reader](name)
        assert (err.value.code, str(err.value)) == (expected[0], expected[1] + TAIL[reader])
    else:
        got = READERS[reader](name)
        assert (type(got), got) == (type(expected), expected)


def test_every_reader_and_accepted_member_is_pinned():
    accepted = {(reader, expected) for reader, _, expected in ROWS if not isinstance(expected, tuple)}
    assert {member for reader, member in accepted if reader == "series"} == set(Series)
    assert {member for reader, member in accepted if reader == "weyl"} == set(WeylSeries)
    assert {member for reader, member in accepted if reader == "family"} == set(JordanFamily)
    assert {member for reader, member in accepted if reader == "exc"} == {"G2", "F4", "E6", "E7", "E8"}
