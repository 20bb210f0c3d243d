"""The refusals of the point-query entry points and listings, pinned row by row.

Each row calls one public entry point with an input that one of its checks
refuses, and pins the exception's type, its ``code`` and its message.  Rows
whose input has two faults pin which check words the refusal, so the order
of the checks is pinned too.  The integer gates are tried with 2.0, True,
"4" and None.  A few rows break the library on purpose, through a patched
rewrite or replacement table, to reach the checks on what the maps return.
"""

import copy
import pickle

import pytest

from weylstrata import classical, jordan
from weylstrata.atlas import Atlas, AtlasRow, CarterLabel, RepLabel, load_atlas
from weylstrata.classical import (
    EigenOrbit, GroupDescriptor, OrbitKind, Series, SpectralDatum, classify, dimension_set, enumerate_strata,
    positive_roots, stratum_excess, stratum_of_label,
)
from weylstrata.errors import ConsistencyError, DomainError
from weylstrata.jordan import JordanFamily, LabeledPartition, apply_bijection, codomain, in_family
from weylstrata.jordan_inverse import invert_bijection
from weylstrata.partitions import Bipartition, Partition, bp_sum, has_excess, n_invariant, parse_entries
from weylstrata.weyl import (
    SignedCycleType, WeylSeries, WeylType, enumerate_classes, fixed_space_dim, jordan_of_class, parse_class,
    strata_fibers, stratum_of_class,
)
from weylstrata.verify import run_suite

GL, SP, SO_ODD, SO_EVEN = Series.GL, Series.SP, Series.SO_ODD, Series.SO_EVEN
GEN, INV = OrbitKind.GENERIC, OrbitKind.INVOLUTIVE
A, B, D = WeylSeries.A, WeylSeries.B, WeylSeries.D
SYMPLECTIC, SYMPLECTIC_CHAR2 = JordanFamily.SYMPLECTIC, JordanFamily.SYMPLECTIC_CHAR2
ORTHOGONAL, ORTHOGONAL_CHAR2 = JordanFamily.ORTHOGONAL, JordanFamily.ORTHOGONAL_CHAR2


_E8_REP, _A1 = RepLabel("E8", 1, 0), CarterLabel("A_1", 1)


def gen(ident, parts):
    return EigenOrbit(ident, GEN, Partition(parts))


def inv(ident, jordan_type):
    return EigenOrbit(ident, INV, jordan_type if isinstance(jordan_type, LabeledPartition) else Partition(jordan_type))


def _rewrite_to(entries):
    # classify's rewrite, replaced by one that returns entries for every orbit
    return classical, "_rewrite", lambda rule, runs: tuple.__new__(Bipartition, entries)


def _shifted_table(shift):
    # the replacement table with every characteristic-2 symplectic offset moved by shift
    excess, offsets = jordan._REPLACEMENTS[SYMPLECTIC_CHAR2, 0]
    table = dict(jordan._REPLACEMENTS)
    table[SYMPLECTIC_CHAR2, 0] = (excess, {key: (d1 + shift, d2 + shift) for key, (d1, d2) in offsets.items()})
    return jordan, "_REPLACEMENTS", table


def pin(ident, call, kind, code, message, patch=None):
    return pytest.param(call, patch, kind, code, message, id=ident)


PATCHES = {
    "sum (1, 0, 3)": lambda: _rewrite_to((1, 0, 3)),
    "sum (1,)": lambda: _rewrite_to((1,)),
    "offsets - 2": lambda: _shifted_table(-2),
}

ROWS = [
    # GroupDescriptor: the series, then the characteristic, then the dimension
    pin('group-series', lambda: GroupDescriptor("E", 4),
        DomainError, 'bad_series', "unknown series 'E'; expected GL, Sp, SO_odd, or SO_even"),
    pin('group-char-float', lambda: GroupDescriptor(SP, 4, 2.0),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got 2.0'),
    pin('group-char-bool', lambda: GroupDescriptor(SP, 4, True),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got True'),
    pin('group-char-str', lambda: GroupDescriptor(SP, 4, "4"),
        DomainError, 'bad_characteristic', "characteristic must be an integer, got '4'"),
    pin('group-char-none', lambda: GroupDescriptor(SP, 4, None),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got None'),
    pin('group-char-composite', lambda: GroupDescriptor(SP, 4, 4),
        DomainError, 'bad_characteristic', 'characteristic must be 0 or a prime, got 4'),
    pin('group-char-negative', lambda: GroupDescriptor(SP, 4, -3),
        DomainError, 'bad_characteristic', 'characteristic must be 0 or a prime, got -3'),
    pin('group-char-too-large', lambda: GroupDescriptor(SP, 4, 10**30),
        DomainError, 'bad_characteristic', 'characteristic 1000000000000000000000000000000 is too large: primality is decided exactly only below 3317044064679887385961981'),
    pin('group-dim-float', lambda: GroupDescriptor(SP, 2.0),
        DomainError, 'bad_dimension', 'dimension must be an integer, got 2.0'),
    pin('group-dim-bool', lambda: GroupDescriptor(GL, True),
        DomainError, 'bad_dimension', 'dimension must be an integer, got True'),
    pin('group-dim-str', lambda: GroupDescriptor(SP, "4"),
        DomainError, 'bad_dimension', "dimension must be an integer, got '4'"),
    pin('group-dim-none', lambda: GroupDescriptor(SP, None),
        DomainError, 'bad_dimension', 'dimension must be an integer, got None'),
    pin('group-dim-negative', lambda: GroupDescriptor(GL, -1),
        DomainError, 'bad_dimension', 'dimension must be nonnegative, got -1'),
    pin('group-dim-parity-sp', lambda: GroupDescriptor(SP, 5),
        DomainError, 'bad_dimension', 'Sp needs even dimension, got 5'),
    pin('group-dim-parity-so-odd', lambda: GroupDescriptor(SO_ODD, 4, 2),
        DomainError, 'bad_dimension', 'SO_odd needs odd dimension, got 4'),
    pin('group-dim-parity-so-even', lambda: GroupDescriptor(SO_EVEN, 3, 3),
        DomainError, 'bad_dimension', 'SO_even needs even dimension, got 3'),
    pin('group-two-series-char', lambda: GroupDescriptor("E", 4, 4),
        DomainError, 'bad_series', "unknown series 'E'; expected GL, Sp, SO_odd, or SO_even"),
    pin('group-two-char-dim', lambda: GroupDescriptor(SP, 2.0, 4),
        DomainError, 'bad_characteristic', 'characteristic must be 0 or a prime, got 4'),
    pin('group-two-charint-dimint', lambda: GroupDescriptor(SP, "4", 2.0),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got 2.0'),
    pin('group-two-dim-negative-odd', lambda: GroupDescriptor(SP, -3),
        DomainError, 'bad_dimension', 'dimension must be nonnegative, got -3'),
    # EigenOrbit: the id, then the kind with its id and Jordan type, then emptiness
    pin('orbit-id', lambda: EigenOrbit("", GEN, Partition([1])),
        DomainError, 'bad_orbit', "orbit id must be a nonempty string, got ''"),
    pin('orbit-id-type', lambda: EigenOrbit(1, GEN, Partition([1])),
        DomainError, 'bad_orbit', 'orbit id must be a nonempty string, got 1'),
    pin('orbit-inv-id', lambda: EigenOrbit("x", INV, Partition([1])),
        DomainError, 'bad_orbit', "involutive orbit ids must be '1' or '-1', got 'x'"),
    pin('orbit-inv-type', lambda: EigenOrbit("1", INV, (2, 1, 1)),
        DomainError, 'bad_orbit', 'involutive Jordan types are Partition or LabeledPartition records, got (2, 1, 1)'),
    pin('orbit-kind', lambda: EigenOrbit("x", "generic", Partition([1])),
        DomainError, 'bad_orbit', "orbit kind must be an OrbitKind, got 'generic'"),
    pin('orbit-gen-id', lambda: EigenOrbit("-1", GEN, Partition([1])),
        DomainError, 'bad_orbit', "generic orbits may not use the involutive id '-1'"),
    pin('orbit-gen-type', lambda: EigenOrbit("x", GEN, LabeledPartition([2, 2], {2: 0})),
        DomainError, 'bad_orbit', 'generic orbits carry a plain partition Jordan type'),
    pin('orbit-empty-gen', lambda: EigenOrbit("x", GEN, Partition([])),
        DomainError, 'bad_orbit', "orbit 'x' has empty Jordan type"),
    pin('orbit-empty-inv', lambda: EigenOrbit("1", INV, Partition([])),
        DomainError, 'bad_orbit', "orbit '1' has empty Jordan type"),
    pin('orbit-empty-labeled', lambda: EigenOrbit("-1", INV, LabeledPartition([], {})),
        DomainError, 'bad_orbit', "orbit '-1' has empty Jordan type"),
    pin('orbit-two-id-kind', lambda: EigenOrbit("", "x", Partition([1])),
        DomainError, 'bad_orbit', "orbit id must be a nonempty string, got ''"),
    pin('orbit-two-kind-empty', lambda: EigenOrbit("x", None, Partition([])),
        DomainError, 'bad_orbit', 'orbit kind must be an OrbitKind, got None'),
    pin('orbit-two-inv-id-type', lambda: EigenOrbit("2", INV, [1]),
        DomainError, 'bad_orbit', "involutive orbit ids must be '1' or '-1', got '2'"),
    pin('orbit-two-gen-id-empty', lambda: EigenOrbit("1", GEN, Partition([])),
        DomainError, 'bad_orbit', "generic orbits may not use the involutive id '1'"),
    # SpectralDatum: the argument types, the ids, then orbit by orbit, then the bookkeeping
    pin('datum-group', lambda: SpectralDatum("sp4", []),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got 'sp4'"),
    pin('datum-orbit', lambda: SpectralDatum(GroupDescriptor(SP, 2), [3]),
        DomainError, 'bad_orbit', 'orbits must be EigenOrbit records, got 3'),
    pin('datum-orbits-not-iterable', lambda: SpectralDatum(GroupDescriptor(SP, 4), 5),
        DomainError, 'bad_orbit', 'orbits must be an iterable of EigenOrbit records, got 5'),
    pin('datum-ids', lambda: SpectralDatum(GroupDescriptor(GL, 2), [gen("x", [1]), gen("x", [1])]),
        DomainError, 'bad_orbit', "orbit ids must be distinct, got ['x', 'x']"),
    pin('datum-gl-inv', lambda: SpectralDatum(GroupDescriptor(GL, 2), [inv("1", [2])]),
        DomainError, 'bad_orbit', 'GL spectral data uses only generic orbits'),
    pin('datum-minus1-char2', lambda: SpectralDatum(GroupDescriptor(SP, 4, 2), [inv("-1", LabeledPartition([2, 2], {2: 1}))]),
        DomainError, 'bad_orbit', 'the eigenvalue -1 does not exist in characteristic 2'),
    pin('datum-family', lambda: SpectralDatum(GroupDescriptor(SP, 4), [inv("1", [3, 1])]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (3, 1) is not in the symplectic family"),
    pin('datum-family-labeled', lambda: SpectralDatum(GroupDescriptor(SP, 4, 2), [inv("1", [2, 2])]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (2, 2) is not in the symplectic_char2 family"),
    pin('datum-family-unlabeled', lambda: SpectralDatum(GroupDescriptor(SP, 4), [inv("1", LabeledPartition([2, 2], {2: 1}))]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (2, 2)[2:1] is not in the symplectic family"),
    pin('datum-family-so-even-char2', lambda: SpectralDatum(GroupDescriptor(SO_EVEN, 4, 2), [inv("1", LabeledPartition([2, 1, 1], {}))]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (2, 1, 1) is not in the orthogonal_char2 family"),
    pin('datum-parity-so-odd', lambda: SpectralDatum(GroupDescriptor(SO_ODD, 5), [inv("1", [2, 2]), inv("-1", [1])]),
        DomainError, 'bad_parity', "involutive orbit '1' of SO_odd must have odd weight, got 4"),
    pin('datum-parity-so-even', lambda: SpectralDatum(GroupDescriptor(SO_EVEN, 4), [inv("1", [3]), inv("-1", [1])]),
        DomainError, 'bad_parity', "involutive orbit '1' of SO_even must have even weight, got 3"),
    pin('datum-bookkeeping', lambda: SpectralDatum(GroupDescriptor(SP, 6), [inv("1", [2, 2])]),
        DomainError, 'bookkeeping', 'orbit weights account for dimension 4, expected 6'),
    pin('datum-bookkeeping-gl', lambda: SpectralDatum(GroupDescriptor(GL, 3), [gen("x", [2, 2])]),
        DomainError, 'bookkeeping', 'orbit weights account for dimension 4, expected 3'),
    pin('datum-bookkeeping-so-odd-char2', lambda: SpectralDatum(GroupDescriptor(SO_ODD, 7, 2), [inv("1", LabeledPartition([2, 2], {2: 1}))]),
        DomainError, 'bookkeeping', 'orbit weights account for dimension 4, expected 6'),
    pin('datum-so-odd-char2-minus1', lambda: SpectralDatum(GroupDescriptor(SO_ODD, 5, 2), [inv("-1", LabeledPartition([2, 2], {2: 0}))]),
        DomainError, 'bad_orbit', 'the eigenvalue -1 does not exist in characteristic 2'),
    pin('datum-two-group-orbit', lambda: SpectralDatum(None, [3]),
        DomainError, 'bad_group', 'the group must be a GroupDescriptor, got None'),
    pin('datum-two-group-orbits-iterable', lambda: SpectralDatum(5, 5),
        DomainError, 'bad_group', 'the group must be a GroupDescriptor, got 5'),
    pin('datum-two-orbit-ids', lambda: SpectralDatum(GroupDescriptor(GL, 2), [gen("x", [1]), gen("x", [1]), 3]),
        DomainError, 'bad_orbit', 'orbits must be EigenOrbit records, got 3'),
    pin('datum-two-ids-bookkeeping', lambda: SpectralDatum(GroupDescriptor(GL, 5), [gen("x", [1]), gen("x", [1])]),
        DomainError, 'bad_orbit', "orbit ids must be distinct, got ['x', 'x']"),
    pin('datum-two-gl-bookkeeping', lambda: SpectralDatum(GroupDescriptor(GL, 9), [gen("x", [1]), inv("1", [2])]),
        DomainError, 'bad_orbit', 'GL spectral data uses only generic orbits'),
    pin('datum-two-minus1-family', lambda: SpectralDatum(GroupDescriptor(SP, 6, 2), [inv("-1", [3, 1])]),
        DomainError, 'bad_orbit', 'the eigenvalue -1 does not exist in characteristic 2'),
    pin('datum-two-family-parity', lambda: SpectralDatum(GroupDescriptor(SO_EVEN, 6), [inv("1", [2, 1])]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (2, 1) is not in the orthogonal family"),
    pin('datum-two-parity-bookkeeping', lambda: SpectralDatum(GroupDescriptor(SO_ODD, 9), [inv("1", [2, 2])]),
        DomainError, 'bad_parity', "involutive orbit '1' of SO_odd must have odd weight, got 4"),
    pin('datum-two-first-orbit-wins', lambda: SpectralDatum(GroupDescriptor(SP, 8), [inv("1", [3, 1]), inv("-1", [2, 1])]),
        DomainError, 'not_in_family', "involutive orbit '1': Jordan type (3, 1) is not in the symplectic family"),
    # classify: the datum's type, then the checks on the rewritten contributions and their sum
    pin('classify-datum', lambda: classify("x"),
        DomainError, 'bad_datum', "the datum must be a SpectralDatum, got 'x'"),
    pin('classify-datum-group', lambda: classify(GroupDescriptor(SP, 4)),
        DomainError, 'bad_datum', 'the datum must be a SpectralDatum, got GroupDescriptor(series=<Series.SP: \'Sp\'>, dimension=4, characteristic=0)'),
    pin('classify-not-bipartition', lambda: classify(SpectralDatum(GroupDescriptor(SP, 8), [inv("1", [2, 2]), gen("x0", [1, 1])])),
        ConsistencyError, 'consistency_error', 'the orbit contributions add up to (2, 1, 3), not a bipartition', patch='sum (1, 0, 3)'),
    pin('classify-weight', lambda: classify(SpectralDatum(GroupDescriptor(SP, 8), [inv("1", [2, 2]), gen("x0", [1, 1])])),
        DomainError, 'weight_mismatch', 'weight mismatch: bipartition has weight 3, expected 4', patch='sum (1,)'),
    pin('classify-negative-row', lambda: classify(SpectralDatum(GroupDescriptor(SP, 4, 2), [inv("1", LabeledPartition([2, 2], {2: 1}))])),
        ConsistencyError, 'consistency_error', 'the symplectic_char2 map emitted a negative entry: [-1, -1]', patch='offsets - 2'),
    # the group listings and positive_roots: the group's type
    pin('strata-group', lambda: enumerate_strata("sp4"),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got 'sp4'"),
    pin('strata-group-series', lambda: enumerate_strata(Series.SP),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got <Series.SP: 'Sp'>"),
    pin('dimension-set-group', lambda: dimension_set("sp4"),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got 'sp4'"),
    pin('dimension-set-group-weyl', lambda: dimension_set(WeylType(B, 2)),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got WeylType(series=<WeylSeries.B: 'B'>, rank=2)"),
    pin('roots-group', lambda: positive_roots("sp4"),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got 'sp4'"),
    pin('roots-group-none', lambda: positive_roots(None),
        DomainError, 'bad_group', 'the group must be a GroupDescriptor, got None'),
    # stratum_excess: the series' type, a name included
    pin('excess-series-name', lambda: stratum_excess("GL"),
        DomainError, 'bad_series', "the series must be a Series, got 'GL'"),
    pin('excess-series-none', lambda: stratum_excess(None),
        DomainError, 'bad_series', 'the series must be a Series, got None'),
    pin('excess-series-weyl', lambda: stratum_excess(WeylSeries.B),
        DomainError, 'bad_series', "the series must be a Series, got <WeylSeries.B: 'B'>"),
    # stratum_of_label: the group's type, then the label, its weight and its excess
    pin('label-group', lambda: stratum_of_label("gl2", Bipartition([1])),
        DomainError, 'bad_group', "the group must be a GroupDescriptor, got 'gl2'"),
    pin('label-two-group-label', lambda: stratum_of_label(None, [1, 2, 3]),
        DomainError, 'bad_group', 'the group must be a GroupDescriptor, got None'),
    # WeylType: the series, then the rank
    pin('weyl-series', lambda: WeylType("E", 2),
        DomainError, 'bad_series', "unknown Weyl series 'E'; expected A, B, C, or D"),
    pin('weyl-rank-float', lambda: WeylType(B, 2.0),
        DomainError, 'bad_rank', 'rank must be an integer, got 2.0'),
    pin('weyl-rank-bool', lambda: WeylType(B, True),
        DomainError, 'bad_rank', 'rank must be an integer, got True'),
    pin('weyl-rank-str', lambda: WeylType(B, "4"),
        DomainError, 'bad_rank', "rank must be an integer, got '4'"),
    pin('weyl-rank-none', lambda: WeylType(A, None),
        DomainError, 'bad_rank', 'rank must be an integer, got None'),
    pin('weyl-rank-a', lambda: WeylType(A, 0),
        DomainError, 'bad_rank', 'rank must be at least 1 for type A'),
    pin('weyl-rank-d', lambda: WeylType(D, -1),
        DomainError, 'bad_rank', 'rank must be at least 0 for type D'),
    pin('weyl-two-series-rank', lambda: WeylType("E", 2.0),
        DomainError, 'bad_series', "unknown Weyl series 'E'; expected A, B, C, or D"),
    pin('weyl-two-rank-type-value', lambda: WeylType(A, -1.0),
        DomainError, 'bad_rank', 'rank must be an integer, got -1.0'),
    # parse_class: the Weyl group's type, then the text, then the class against the type
    pin('parse-weyl-type', lambda: parse_class("B2", "1;1"),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got 'B2'"),
    pin('parse-two-weyl-type-text', lambda: parse_class(None, "x"),
        DomainError, 'bad_group', 'the Weyl group must be a WeylType, got None'),
    pin('parse-a-entries', lambda: parse_class(WeylType(A, 2), "2,x"),
        DomainError, 'parse_error', "expected comma-separated integers, got '2,x'"),
    pin('parse-a-empty-piece', lambda: parse_class(WeylType(A, 2), "2,,1"),
        DomainError, 'parse_error', "expected comma-separated integers, got '2,,1'"),
    pin('parse-a-positive', lambda: parse_class(WeylType(A, 2), "3,0"),
        DomainError, 'bad_class', "cycle lengths must be positive, got '3,0'"),
    pin('parse-a-weight', lambda: parse_class(WeylType(A, 2), "2,2"),
        DomainError, 'bad_class', 'type A rank 2 classes are partitions of 3, got weight 4'),
    pin('parse-b-semicolons', lambda: parse_class(WeylType(B, 2), "1,1"),
        DomainError, 'parse_error', "signed cycle type needs exactly one ';', got '1,1'"),
    pin('parse-b-two-semicolons', lambda: parse_class(WeylType(B, 2), "1;1;"),
        DomainError, 'parse_error', "signed cycle type needs exactly one ';', got '1;1;'"),
    pin('parse-b-positive', lambda: parse_class(WeylType(B, 2), "2;-1"),
        DomainError, 'bad_class', "cycle lengths must be positive, got '-1'"),
    pin('parse-b-rank', lambda: parse_class(WeylType(B, 2), "2;1"),
        DomainError, 'bad_class', 'signed cycle type has rank 3, expected 2'),
    pin('parse-d-odd-negative', lambda: parse_class(WeylType(D, 3), "2;1"),
        DomainError, 'bad_class', 'type D classes have an even number of negative cycles, got 2;1'),
    pin('parse-two-entries-positive', lambda: parse_class(WeylType(B, 2), "0;x"),
        DomainError, 'bad_class', "cycle lengths must be positive, got '0'"),
    pin('parse-two-rank-odd-negative', lambda: parse_class(WeylType(D, 3), "1;1"),
        DomainError, 'bad_class', 'signed cycle type has rank 2, expected 3'),
    # the Weyl listings: the Weyl group's type
    pin('classes-weyl-type', lambda: enumerate_classes("B2"),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got 'B2'"),
    pin('classes-weyl-type-none', lambda: enumerate_classes(None),
        DomainError, 'bad_group', 'the Weyl group must be a WeylType, got None'),
    pin('fibers-weyl-type', lambda: strata_fibers("B2"),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got 'B2'"),
    pin('fibers-weyl-type-group', lambda: strata_fibers(GroupDescriptor(SP, 4)),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got GroupDescriptor(series=<Series.SP: 'Sp'>, dimension=4, characteristic=0)"),
    # stratum_of_class and fixed_space_dim: the Weyl group's type, then the class against it, then the rewrite
    pin('class-weyl-type', lambda: stratum_of_class("B2", Partition([2])),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got 'B2'"),
    pin('class-weyl-type-group', lambda: stratum_of_class(GroupDescriptor(SP, 4), SignedCycleType([2], [])),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got GroupDescriptor(series=<Series.SP: 'Sp'>, dimension=4, characteristic=0)"),
    pin('fixed-weyl-type', lambda: fixed_space_dim("B2", Partition([2])),
        DomainError, 'bad_group', "the Weyl group must be a WeylType, got 'B2'"),
    pin('fixed-two-weyl-type-class', lambda: fixed_space_dim(None, "3;"),
        DomainError, 'bad_group', 'the Weyl group must be a WeylType, got None'),
    pin('class-a-type', lambda: stratum_of_class(WeylType(A, 2), SignedCycleType([3], [])),
        DomainError, 'bad_class', 'type A classes are partitions, got SignedCycleType(positive=(3,), negative=())'),
    pin('class-a-weight', lambda: stratum_of_class(WeylType(A, 2), Partition([2])),
        DomainError, 'bad_class', 'type A rank 2 classes are partitions of 3, got weight 2'),
    pin('class-b-type', lambda: stratum_of_class(WeylType(B, 2), Partition([2])),
        DomainError, 'bad_class', 'type B classes are signed cycle types, got (2,)'),
    pin('class-b-rank', lambda: stratum_of_class(WeylType(B, 2), SignedCycleType([2], [1])),
        DomainError, 'bad_class', 'signed cycle type has rank 3, expected 2'),
    pin('class-d-odd-negative', lambda: stratum_of_class(WeylType(D, 3), SignedCycleType([2], [1])),
        DomainError, 'bad_class', 'type D classes have an even number of negative cycles, got 2;1'),
    pin('class-two-rank-odd-negative', lambda: stratum_of_class(WeylType(D, 3), SignedCycleType([1], [1])),
        DomainError, 'bad_class', 'signed cycle type has rank 2, expected 3'),
    pin('class-rank-zero', lambda: stratum_of_class(WeylType(B, 0), SignedCycleType([1], [])),
        DomainError, 'bad_class', 'signed cycle type has rank 1, expected 0'),
    pin('class-broken-table', lambda: stratum_of_class(WeylType(B, 2), SignedCycleType([1], [1])),
        ConsistencyError, 'consistency_error', 'the symplectic_char2 map emitted a negative entry: [-1, -2, -1]', patch='offsets - 2'),
    # in_family: the family, then the datum's type
    pin('in-family-datum-list', lambda: in_family(ORTHOGONAL, [1, 3]),
        DomainError, 'bad_datum', 'Jordan datum must be a Partition or LabeledPartition, got [1, 3]'),
    pin('in-family-datum-str', lambda: in_family(SYMPLECTIC, "2,2"),
        DomainError, 'bad_datum', "Jordan datum must be a Partition or LabeledPartition, got '2,2'"),
    pin('in-family-two-family-datum', lambda: in_family("Z1", [1, 3]),
        DomainError, 'bad_family', "Jordan family must be a JordanFamily, got 'Z1'"),
    # apply_bijection: the family, then the datum's type, then membership, then the rewrite
    pin('apply-datum-list', lambda: apply_bijection(SYMPLECTIC, [2, 2]),
        DomainError, 'bad_datum', 'Jordan datum must be a Partition or LabeledPartition, got [2, 2]'),
    pin('apply-datum-tuple', lambda: apply_bijection(SYMPLECTIC_CHAR2, (2, 2)),
        DomainError, 'bad_datum', 'Jordan datum must be a Partition or LabeledPartition, got (2, 2)'),
    pin('apply-two-family-datum', lambda: apply_bijection(None, [2, 2]),
        DomainError, 'bad_family', 'Jordan family must be a JordanFamily, got None'),
    pin('apply-bipartition-no-partition', lambda: apply_bijection(SYMPLECTIC, Bipartition([2, 2, 0, 2])),
        DomainError, 'not_in_family', '(2, 2, 0, 2) is not in the symplectic family'),
    pin('apply-family-str', lambda: apply_bijection("Z2", Partition([2, 2])),
        DomainError, 'bad_family', "Jordan family must be a JordanFamily, got 'Z2'"),
    pin('apply-family-none', lambda: apply_bijection(None, Partition([2, 2])),
        DomainError, 'bad_family', 'Jordan family must be a JordanFamily, got None'),
    pin('apply-not-member', lambda: apply_bijection(SYMPLECTIC, Partition([3, 1])),
        DomainError, 'not_in_family', '(3, 1) is not in the symplectic family'),
    pin('apply-labeled-for-plain', lambda: apply_bijection(SYMPLECTIC, LabeledPartition([2, 2], {2: 1})),
        DomainError, 'not_in_family', '(2, 2)[2:1] is not in the symplectic family'),
    pin('apply-plain-for-labeled', lambda: apply_bijection(SYMPLECTIC_CHAR2, Partition([2, 2])),
        DomainError, 'not_in_family', '(2, 2) is not in the symplectic_char2 family'),
    pin('apply-odd-count', lambda: apply_bijection(ORTHOGONAL_CHAR2, LabeledPartition([2, 1, 1], {})),
        DomainError, 'not_in_family', '(2, 1, 1) is not in the orthogonal_char2 family'),
    pin('apply-orthogonal-even', lambda: apply_bijection(ORTHOGONAL, Partition([2, 1])),
        DomainError, 'not_in_family', '(2, 1) is not in the orthogonal family'),
    pin('apply-two-family-member', lambda: apply_bijection("Z1", Partition([3])),
        DomainError, 'bad_family', "Jordan family must be a JordanFamily, got 'Z1'"),
    pin('apply-two-member-parity', lambda: apply_bijection(SYMPLECTIC, Partition([3])),
        DomainError, 'not_in_family', '(3,) is not in the symplectic family'),
    pin('apply-broken-table', lambda: apply_bijection(SYMPLECTIC_CHAR2, LabeledPartition([2, 2], {2: 0})),
        ConsistencyError, 'consistency_error', 'the symplectic_char2 map emitted a negative entry: [-2, 0]', patch='offsets - 2'),
    # LabeledPartition: the parts, then parity, then the label keys, then the bits
    pin('labeled-not-iterable', lambda: LabeledPartition(5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('labeled-entries-float', lambda: LabeledPartition([2, 2.0], {}),
        DomainError, 'bad_entries', 'entries must be integers, got 2.0'),
    pin('labeled-entries-bool', lambda: LabeledPartition([True], {}),
        DomainError, 'bad_entries', 'entries must be integers, got True'),
    pin('labeled-entries-str', lambda: LabeledPartition(["4"], {}),
        DomainError, 'bad_entries', "entries must be integers, got '4'"),
    pin('labeled-entries-none', lambda: LabeledPartition([None], {}),
        DomainError, 'bad_entries', 'entries must be integers, got None'),
    pin('labeled-decrease', lambda: LabeledPartition([1, 2], {}),
        DomainError, 'bad_partition', 'partition parts must weakly decrease, got [1, 2]'),
    pin('labeled-positive', lambda: LabeledPartition([2, -2], {}),
        DomainError, 'bad_partition', 'partition parts must be positive, got -2 in [2, -2]'),
    pin('labeled-parity', lambda: LabeledPartition([3, 2, 2], {2: 1}),
        DomainError, 'bad_parity', 'odd value 3 occurs 1 times in (3, 2, 2); odd values must occur an even number of times'),
    pin('labeled-missing-key', lambda: LabeledPartition([2, 2], {}),
        DomainError, 'bad_labels', 'labels must be given for exactly the eligible values [2] of (2, 2), got keys []'),
    pin('labeled-extra-key', lambda: LabeledPartition([2, 2, 1, 1], {2: 1, 1: 0}),
        DomainError, 'bad_labels', 'labels must be given for exactly the eligible values [2] of (2, 2, 1, 1), got keys [1, 2]'),
    pin('labeled-ineligible-key', lambda: LabeledPartition([4, 2, 2], {4: 0, 2: 1}),
        DomainError, 'bad_labels', 'labels must be given for exactly the eligible values [2] of (4, 2, 2), got keys [2, 4]'),
    pin('labeled-bit-two', lambda: LabeledPartition([2, 2], {2: 2}),
        DomainError, 'bad_labels', 'label for value 2 must be 0 or 1, got 2'),
    pin('labeled-bit-bool', lambda: LabeledPartition([2, 2], {2: True}),
        DomainError, 'bad_labels', 'label for value 2 must be 0 or 1, got True'),
    pin('labeled-bit-str', lambda: LabeledPartition([2, 2], {2: "1"}),
        DomainError, 'bad_labels', "label for value 2 must be 0 or 1, got '1'"),
    pin('labeled-bit-none', lambda: LabeledPartition([2, 2], None),
        DomainError, 'bad_labels', 'labels must be given for exactly the eligible values [2] of (2, 2), got keys []'),
    pin('labeled-two-parts-parity', lambda: LabeledPartition([1, 3, 3], {}),
        DomainError, 'bad_partition', 'partition parts must weakly decrease, got [1, 3, 3]'),
    pin('labeled-two-parity-keys', lambda: LabeledPartition([4, 4, 3], {9: 0}),
        DomainError, 'bad_parity', 'odd value 3 occurs 1 times in (4, 4, 3); odd values must occur an even number of times'),
    pin('labeled-two-parities', lambda: LabeledPartition([5, 3, 3, 3], {}),
        DomainError, 'bad_parity', 'odd value 5 occurs 1 times in (5, 3, 3, 3); odd values must occur an even number of times'),
    pin('labeled-two-keys-bits', lambda: LabeledPartition([2, 2], {2: 5, 3: 1}),
        DomainError, 'bad_labels', 'labels must be given for exactly the eligible values [2] of (2, 2), got keys [2, 3]'),
    pin('labeled-two-bits-first', lambda: LabeledPartition([4, 4, 2, 2], {2: 7, 4: 9}),
        DomainError, 'bad_labels', 'label for value 2 must be 0 or 1, got 7'),
    pin('labeled-labels-int', lambda: LabeledPartition([2, 2], 5),
        DomainError, 'bad_labels', 'labels must map values to bits, got 5'),
    pin('labeled-labels-str', lambda: LabeledPartition([2, 2], "x"),
        DomainError, 'bad_labels', "labels must map values to bits, got 'x'"),
    # only None means no labels: a falsy value that is no mapping is refused, as 5 is
    pin('labeled-labels-zero', lambda: LabeledPartition([3, 3], 0),
        DomainError, 'bad_labels', 'labels must map values to bits, got 0'),
    pin('labeled-labels-empty-str', lambda: LabeledPartition([3, 3], ""),
        DomainError, 'bad_labels', "labels must map values to bits, got ''"),
    pin('labeled-labels-empty-list', lambda: LabeledPartition([3, 3], []),
        DomainError, 'bad_labels', 'labels must map values to bits, got []'),
    pin('labeled-labels-pairs', lambda: LabeledPartition([2, 2], [(2, 1)]),
        DomainError, 'bad_labels', 'labels must map values to bits, got [(2, 1)]'),
    # Partition: the entry types, then the parts in order
    pin('partition-not-iterable', lambda: Partition(5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('partition-float', lambda: Partition([2, 2.0]),
        DomainError, 'bad_entries', 'entries must be integers, got 2.0'),
    pin('partition-bool', lambda: Partition([True]),
        DomainError, 'bad_entries', 'entries must be integers, got True'),
    pin('partition-str', lambda: Partition(["4"]),
        DomainError, 'bad_entries', "entries must be integers, got '4'"),
    pin('partition-none', lambda: Partition([None]),
        DomainError, 'bad_entries', 'entries must be integers, got None'),
    pin('partition-decrease', lambda: Partition([1, 2]),
        DomainError, 'bad_partition', 'partition parts must weakly decrease, got [1, 2]'),
    pin('partition-positive', lambda: Partition([2, -1]),
        DomainError, 'bad_partition', 'partition parts must be positive, got -1 in [2, -1]'),
    pin('partition-interior-zero', lambda: Partition([2, 0, 1]),
        DomainError, 'bad_partition', 'partition parts must be positive, got 0 in [2, 0, 1]'),
    pin('partition-two-type-order', lambda: Partition([1, 2, 2.0]),
        DomainError, 'bad_entries', 'entries must be integers, got 2.0'),
    pin('partition-two-decrease-first', lambda: Partition([1, 2, -1]),
        DomainError, 'bad_partition', 'partition parts must weakly decrease, got [1, 2, -1]'),
    pin('partition-two-zero-first', lambda: Partition([1, 0, 2]),
        DomainError, 'bad_partition', 'partition parts must be positive, got 0 in [1, 0, 2]'),
    # Bipartition: the entry types, then signs, then the two tracks
    pin('bipartition-not-iterable', lambda: Bipartition(5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('bipartition-float', lambda: Bipartition([2, 2.0]),
        DomainError, 'bad_entries', 'entries must be integers, got 2.0'),
    pin('bipartition-negative', lambda: Bipartition([1, -1]),
        DomainError, 'bad_bipartition', 'bipartition entries must be nonnegative, got [1, -1]'),
    pin('bipartition-climb', lambda: Bipartition([1, 0, 2]),
        DomainError, 'bad_bipartition', 'entries at positions 1 and 3 must weakly decrease, got [1, 0, 2]'),
    pin('bipartition-climb-even', lambda: Bipartition([1, 0, 1, 2]),
        DomainError, 'bad_bipartition', 'entries at positions 2 and 4 must weakly decrease, got [1, 0, 1, 2]'),
    pin('bipartition-two-negative-first', lambda: Bipartition([1, 5, 2, -1]),
        DomainError, 'bad_bipartition', 'bipartition entries must be nonnegative, got [1, 5, 2, -1]'),
    pin('bipartition-two-climbs', lambda: Bipartition([0, 0, 1, 2]),
        DomainError, 'bad_bipartition', 'entries at positions 1 and 3 must weakly decrease, got [0, 0, 1, 2]'),
    # SignedCycleType, n_invariant and has_excess read their sequences through Partition or Bipartition
    pin('signed-not-iterable', lambda: SignedCycleType(5, 5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('n-invariant-not-iterable', lambda: n_invariant(5, 5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('has-excess-not-iterable', lambda: has_excess(5, (2, 2)),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    # Atlas: the rows, each an AtlasRow, then the text
    pin('atlas-rows-not-iterable', lambda: Atlas(5, ""),
        DomainError, 'bad_atlas', 'atlas rows must be an iterable of AtlasRow records, got 5'),
    pin('atlas-rows-entry', lambda: Atlas("Sp", ""),
        DomainError, 'bad_atlas', "atlas rows must be AtlasRow records, got 'S'"),
    pin('atlas-text', lambda: Atlas([], 5),
        DomainError, 'bad_atlas', 'atlas text must be a string, got 5'),
    pin('atlas-two-rows-text', lambda: Atlas(5, 5),
        DomainError, 'bad_atlas', 'atlas rows must be an iterable of AtlasRow records, got 5'),
    # AtlasRow: the group, then the classes, the rep (a RepLabel of that group) and the note
    pin('atlas-row-group-int', lambda: AtlasRow(5, 5, 5),
        DomainError, 'bad_atlas', 'row group must be one of G2, F4, E6, E7, E8, got 5'),
    pin('atlas-row-group-lower', lambda: AtlasRow("e8", (), _E8_REP),
        DomainError, 'bad_atlas', "row group must be one of G2, F4, E6, E7, E8, got 'e8'"),
    pin('atlas-row-classes-int', lambda: AtlasRow("E8", 5, 5),
        DomainError, 'bad_atlas', 'row classes must be a tuple of CarterLabel records, got 5'),
    pin('atlas-row-classes-list', lambda: AtlasRow("E8", [_A1], _E8_REP),
        DomainError, 'bad_atlas', "row classes must be a tuple of CarterLabel records, got [CarterLabel(raw='A_1', "
        "parsed_rank=1)]"),
    pin('atlas-row-classes-entry', lambda: AtlasRow("E8", (_A1, "A_2"), _E8_REP),
        DomainError, 'bad_atlas', "row classes must be a tuple of CarterLabel records, got (CarterLabel(raw='A_1', "
        "parsed_rank=1), 'A_2')"),
    pin('atlas-row-rep-int', lambda: AtlasRow("E8", (_A1,), 5),
        DomainError, 'bad_atlas', 'row rep must be a RepLabel of E8, got 5'),
    pin('atlas-row-rep-group', lambda: AtlasRow("E7", (_A1,), _E8_REP),
        DomainError, 'bad_atlas', "row rep must be a RepLabel of E7, got RepLabel(group='E8', d=1, n=0, star=0, "
        "synthetic_id=0)"),
    pin('atlas-row-note-none', lambda: AtlasRow("E8", (_A1,), _E8_REP, None),
        DomainError, 'bad_atlas', 'row note must be a string, got None'),
    pin('atlas-row-two-classes-rep', lambda: AtlasRow("E8", 5, 5, 5),
        DomainError, 'bad_atlas', 'row classes must be a tuple of CarterLabel records, got 5'),
    # Atlas.strata_for_characteristic, through check_characteristic: the integer gate, then primality
    pin('atlas-char-float', lambda: load_atlas().strata_for_characteristic("E8", 2.0),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got 2.0'),
    pin('atlas-char-bool', lambda: load_atlas().strata_for_characteristic("E8", True),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got True'),
    pin('atlas-char-str', lambda: load_atlas().strata_for_characteristic("E8", "2"),
        DomainError, 'bad_characteristic', "characteristic must be an integer, got '2'"),
    pin('atlas-char-none', lambda: load_atlas().strata_for_characteristic("E8", None),
        DomainError, 'bad_characteristic', 'characteristic must be an integer, got None'),
    pin('atlas-char-composite', lambda: load_atlas().strata_for_characteristic("E8", 4),
        DomainError, 'bad_characteristic', 'characteristic must be 0 or a prime, got 4'),
    # load_atlas: a path is a string or an os.PathLike
    pin('atlas-path-int', lambda: load_atlas(5),
        DomainError, 'bad_path', 'atlas path must be a string or an os.PathLike, got 5'),
    pin('atlas-path-bytes', lambda: load_atlas(b"atlas.txt"),
        DomainError, 'bad_path', "atlas path must be a string or an os.PathLike, got b'atlas.txt'"),
    # Atlas.row, and the lookups that read it, take a RepLabel or its text; format_rep a RepLabel
    pin('atlas-row-int', lambda: load_atlas().row("E8", 5),
        DomainError, 'bad_rep', 'representation must be a RepLabel, got 5'),
    pin('atlas-cross-section-int', lambda: load_atlas().cross_section("E8", 5),
        DomainError, 'bad_rep', 'representation must be a RepLabel, got 5'),
    pin('atlas-rep-hint-int', lambda: load_atlas().rep_of_class("E8", "A_1", rep_hint=5),
        DomainError, 'bad_rep', 'representation must be a RepLabel, got 5'),
    pin('atlas-format-rep-str', lambda: load_atlas().format_rep("1_0"),
        DomainError, 'bad_rep', "representation must be a RepLabel, got '1_0'"),
    # RepLabel: the group, then the degree, the n-invariant, the star and the synthetic id,
    # each through the integer gate before its range
    pin('rep-degree-float', lambda: RepLabel("E8", 1.0, 0),
        DomainError, 'bad_rep', 'degree must be an integer, got 1.0'),
    pin('rep-degree-bool', lambda: RepLabel("E8", True, 0),
        DomainError, 'bad_rep', 'degree must be an integer, got True'),
    pin('rep-degree-str', lambda: RepLabel("E8", "1", 0),
        DomainError, 'bad_rep', "degree must be an integer, got '1'"),
    pin('rep-degree-none', lambda: RepLabel("E8", None, 0),
        DomainError, 'bad_rep', 'degree must be an integer, got None'),
    pin('rep-degree-zero', lambda: RepLabel("E8", 0, 0),
        DomainError, 'bad_rep', 'degree must be positive, got 0'),
    pin('rep-n-float', lambda: RepLabel("E8", 1, 2.0),
        DomainError, 'bad_rep', 'n-invariant must be an integer, got 2.0'),
    pin('rep-n-negative', lambda: RepLabel("E8", 1, -1),
        DomainError, 'bad_rep', 'n-invariant must be nonnegative, got -1'),
    pin('rep-star-bool', lambda: RepLabel("E8", 1, 0, False),
        DomainError, 'bad_rep', 'star must be an integer, got False'),
    pin('rep-star-float', lambda: RepLabel("E8", 1, 0, 2.0),
        DomainError, 'bad_rep', 'star must be an integer, got 2.0'),
    pin('rep-id-bool', lambda: RepLabel("E8", 1, 0, 0, True),
        DomainError, 'bad_rep', 'synthetic id must be an integer, got True'),
    pin('rep-id-str', lambda: RepLabel("E8", 1, 0, 0, "1"),
        DomainError, 'bad_rep', "synthetic id must be an integer, got '1'"),
    pin('rep-two-group-degree', lambda: RepLabel("H9", "1", 0),
        DomainError, 'bad_group', "unknown exceptional group 'H9'"),
    pin('rep-two-degree-n', lambda: RepLabel("E8", "1", -1),
        DomainError, 'bad_rep', "degree must be an integer, got '1'"),
    pin('rep-two-star-id', lambda: RepLabel("E8", 1, 0, 1.0, "1"),
        DomainError, 'bad_rep', 'star must be an integer, got 1.0'),
    # CarterLabel: the label is a string, then its rank a nonnegative int
    pin('carter-label-int', lambda: CarterLabel(5, "x"),
        DomainError, 'bad_carter_label', 'class label must be a string, got 5'),
    pin('carter-rank-str', lambda: CarterLabel("A_1", "x"),
        DomainError, 'bad_carter_label', "parsed rank must be an integer, got 'x'"),
    pin('carter-rank-negative', lambda: CarterLabel("A_1", -1),
        DomainError, 'bad_carter_label', 'parsed rank must be nonnegative, got -1'),
    # parse_entries reads a string; bp_sum reads both arguments through Bipartition
    pin('parse-entries-int', lambda: parse_entries(5),
        DomainError, 'parse_error', 'expected comma-separated integers, got 5'),
    pin('parse-entries-none', lambda: parse_entries(None),
        DomainError, 'parse_error', 'expected comma-separated integers, got None'),
    pin('bp-sum-str', lambda: bp_sum((1,), "x"),
        DomainError, 'bad_entries', "entries must be integers, got 'x'"),
    pin('bp-sum-climb', lambda: bp_sum((1, 0, 2), (1,)),
        DomainError, 'bad_bipartition', 'entries at positions 1 and 3 must weakly decrease, got [1, 0, 2]'),
    pin('bp-sum-not-iterable', lambda: bp_sum(5, 5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    # jordan_of_class takes a signed cycle type
    pin('jordan-of-class-str', lambda: jordan_of_class("1;1"),
        DomainError, 'bad_class', "a class must be a signed cycle type, got '1;1'"),
    # codomain, through _rule: the family, then the weight, then its parity
    pin('codomain-family', lambda: codomain("Z2", 8),
        DomainError, 'bad_family', "Jordan family must be a JordanFamily, got 'Z2'"),
    pin('codomain-weight-float', lambda: codomain(SYMPLECTIC, 2.0),
        DomainError, 'bad_weight', 'weight must be an integer, got 2.0'),
    pin('codomain-weight-bool', lambda: codomain(SYMPLECTIC, True),
        DomainError, 'bad_weight', 'weight must be an integer, got True'),
    pin('codomain-weight-str', lambda: codomain(SYMPLECTIC, "4"),
        DomainError, 'bad_weight', "weight must be an integer, got '4'"),
    pin('codomain-weight-none', lambda: codomain(ORTHOGONAL, None),
        DomainError, 'bad_weight', 'weight must be an integer, got None'),
    pin('codomain-weight-negative', lambda: codomain(ORTHOGONAL, -1),
        DomainError, 'bad_weight', 'weight must be nonnegative, got -1'),
    pin('codomain-parity', lambda: codomain(SYMPLECTIC_CHAR2, 3),
        DomainError, 'bad_parity', 'the symplectic_char2 family is defined for even weights, got 3'),
    pin('codomain-parity-z2p', lambda: codomain(ORTHOGONAL_CHAR2, 5),
        DomainError, 'bad_parity', 'the orthogonal_char2 family is defined for even weights, got 5'),
    pin('codomain-two-family-weight', lambda: codomain("Z2", 2.0),
        DomainError, 'bad_family', "Jordan family must be a JordanFamily, got 'Z2'"),
    pin('codomain-two-negative-odd', lambda: codomain(SYMPLECTIC, -3),
        DomainError, 'bad_weight', 'weight must be nonnegative, got -3'),
    # invert_bijection, through _rule: the family, then the weight, then the target
    pin('invert-target-not-iterable', lambda: invert_bijection(SYMPLECTIC, 4, 5),
        DomainError, 'bad_entries', 'entries must be an iterable of integers, got 5'),
    pin('invert-two-family-target', lambda: invert_bijection(5, 5, 5),
        DomainError, 'bad_family', 'Jordan family must be a JordanFamily, got 5'),
    pin('invert-two-weight-target', lambda: invert_bijection(SYMPLECTIC, 2.0, 5),
        DomainError, 'bad_weight', 'weight must be an integer, got 2.0'),
    # run_suite: every name, then the atlas path when a named check reads it, before any check runs
    pin('suite-path-int', lambda: run_suite(None, 0),
        DomainError, 'bad_path', 'atlas path must be a string or an os.PathLike, got 0'),
    pin('suite-two-names-path', lambda: run_suite(("e8-counts", "nope"), 0),
        DomainError, 'bad_suite', "unknown check 'nope'; have golden-sp2, golden-so2, bijectivity, sp4-strata, "
        "dimension-sets, minimal-dimension, e8-counts, star-inventory, endpoints, cross-sections, surjectivity, "
        "gl-oracle"),
]


@pytest.mark.parametrize("call, patch, kind, code, message", ROWS)
def test_refusal_is_pinned(monkeypatch, call, patch, kind, code, message):
    if patch is not None:
        monkeypatch.setattr(*PATCHES[patch]())
    with pytest.raises(kind) as err:
        call()
    assert (type(err.value), err.value.code, str(err.value)) == (kind, code, message)


def test_a_domain_error_needs_its_code():
    with pytest.raises(TypeError):
        DomainError("x")
    assert ConsistencyError("x").code == "consistency_error"


@pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda err: pickle.loads(pickle.dumps(err))])
def test_a_copied_error_keeps_its_code(rebuild):
    for err in (DomainError("no", code="bad_x"), ConsistencyError("broken")):
        again = rebuild(err)
        assert (type(again), again.code, str(again)) == (type(err), err.code, str(err))
