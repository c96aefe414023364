// Package polar extends order dependencies to polarized (mixed
// ascending/descending) attribute lists — the SQL ORDER BY A ASC, B DESC
// shape that the paper's Section 2.1 explicitly sets aside and the authors
// treat in the follow-on work it cites as [19] ("Chasing polarized order
// dependencies").
//
// A polarized list annotates each attribute with a direction; comparison
// multiplies each attribute's outcome by its polarity. Everything from the
// unpolarized theory lifts, and this package reuses the unpolarized kernels
// rather than copying them:
//
//   - Satisfies runs core's sort-and-scan check (Relation.SatisfiesDirected),
//     which reads the relation's rank codes in reverse on descending
//     attributes.
//   - Prover compiles each attribute to a directed prover.Term (Dir Less for
//     descending) and calls prover.Counterexample, the same sign-pattern
//     search that decides plain ODs. Two-tuple locality survives
//     polarization, so the search stays complete. It runs without the plain
//     prover's FD split shortcut and lazy widening, which apply only to
//     ascending lists (see internal/prover).
//   - ReduceOrder applies the polarized Left Eliminate rewrite to ORDER BY
//     lists.
//
// Plain ODs embed as all-ascending polarized ODs, and flipping every
// polarity on both sides of a dependency preserves it (negation duality) —
// both facts are property-tested against internal/core, and satisfaction
// and implication are checked against pairwise oracles taken straight from
// Definition 4.
package polar
