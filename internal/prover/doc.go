// Package prover decides logical implication for order dependencies: given a
// set M of prescribed ODs, does M ⊨ X ↦ Y hold in every relation instance?
// The paper names an efficient OD theorem prover as its primary future-work
// item (Section 6); this package implements a sound and complete one.
//
// The procedure rests on two facts.
//
// First, ODs are two-tuple-local: Definition 4 quantifies over pairs of
// tuples, so a relation satisfies M exactly when each of its two-row
// subrelations does. Hence M ⊨ φ iff no two-row relation satisfies M while
// falsifying φ. A two-row relation is fully described, up to order
// isomorphism, by a core.Pattern — one sign from {<, =, >} per attribute —
// and only attributes mentioned in M and φ matter (all others can be set
// to "=" without affecting any comparison). The search space is therefore
// 3^n for n mentioned attributes. General OD implication is co-NP-complete
// (shown in the authors' follow-on work), so an exponent in n is expected.
// Two reductions keep n small in practice: a pattern and its negation
// satisfy the same ODs, so the search fixes the first non-equal sign to
// "<", halving the space; and the search runs against a lazily widened
// working subset of M — it starts from the question's own attributes alone
// and draws in an OD only when a candidate counterexample actually needs it
// (see decide) — so n tracks the question, not the size of the prescribed
// set, and cascades of entangled constraints cannot inflate the universe
// past what the answer requires.
//
// Second, by Theorem 15 an OD can only fail via a split (an FD violation) or
// a swap. The split half reduces to Armstrong closure over the FDs implied
// by M (Lemma 1, Theorem 13), which the prover checks first in polynomial
// time; when it fails, the familiar two-row Ullman table is returned as the
// counterexample without any search.
//
// The search runs on compiled ODs: each list element is a Term, an index into
// the pattern's sign array plus the direction it is compared in. Plain ODs
// compile every term to Greater (ascending). internal/polar compiles
// descending attributes to Less and calls Counterexample, which runs the
// bare search. The split shortcut and the lazy widening apply only to
// ascending lists. The shortcut reasons through the FD projection
// set(X) → set(Y), which misses what mixed directions force:
// {[A] ↦ [B], [A] ↦ [-B]} makes B constant, yet A → B does not imply
// ∅ → B. Widening validates candidates with core.Pattern.HoldsOD, which reads
// every list ascending.
//
// Searches accept a context.Context and may be cancelled mid-enumeration;
// with WithWorkers the sign-enumeration tree is split across a goroutine
// pool that aborts wholesale on the first counterexample found.
package prover
