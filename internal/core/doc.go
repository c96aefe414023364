// Package core implements the foundational definitions of order dependency
// (OD) theory from "Fundamentals of Order Dependencies" (Szlichta, Godfrey,
// Gryz; PVLDB 5(11), 2012): attribute lists, relation instances, the
// lexicographic tuple operators ≼, ≺ and =X (Definitions 1-3), order
// dependencies and order compatibility (Definitions 4-5), and the split/swap
// falsification witnesses (Definitions 13-14, Theorem 15).
//
// Unlike functional dependencies, order dependencies are stated over lists of
// attributes: [A, B] ↦ [C] and [B, A] ↦ [C] are different statements. List is
// therefore the central type of the package, and set views are derived from
// it rather than the other way around.
//
// The package also provides two-row comparison patterns (Pattern). An OD is a
// constraint on pairs of tuples, so a relation satisfies a set of ODs exactly
// when each of its two-row subrelations does. A two-row subrelation is fully
// described by one comparison sign per attribute, which makes Pattern the
// semantic ground truth used by the implication prover (internal/prover) and
// the completeness constructions (internal/armstrong).
//
// Checking an OD against data is a sort plus an adjacent-pair scan. Both run
// on rank codes, not Values: on first use a Relation encodes each column into
// int32 codes numbering its distinct values in Value.Compare order. Sorting
// by a list is then a stable radix sort (one counting pass per column, least
// significant first), which yields exactly the order a stable comparison
// sort gives, and the scan compares integers. Value.Compare is a total
// preorder — ints and floats compare exactly, NaN equals NaN and sorts below
// every number — so the codes are order-isomorphic to the values. The codes
// belong to the relation and are dropped by AddRow. SatisfiesDirected reads
// a descending attribute's codes in reverse, which is how mixed ASC/DESC
// lists (internal/polar) are checked.
package core
