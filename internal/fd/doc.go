// Package fd implements functional dependency (FD) theory: Armstrong's
// axioms via the attribute-set closure algorithm, implication testing, and
// minimal covers.
//
// FDs are the set-based counterpart of order dependencies. The paper's
// Theorem 13 identifies the FD set(X) → set(Y) with the OD X ↦ XY, and its
// Theorem 16 shows the OD axiom system subsumes Armstrong's system. The
// implication prover (internal/prover) uses this package to decide the
// "split" half of an OD implication question, and the completeness
// construction (internal/armstrong) uses closures to build Ullman's two-row
// split tables (the paper's Figure 7).
//
// Closures run the counter-based algorithm of Beeri and Bernstein over dense
// attribute IDs (Index). Compile interns an FD set once for callers that
// close many sets under it; Closure and Implies compile per call.
package fd
