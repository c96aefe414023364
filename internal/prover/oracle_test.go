package prover

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
)

// compileOD resolves an OD's attributes to positions of the pattern's
// universe, every term ascending.
func compileOD(od core.OD, pat *core.Pattern) Compiled {
	terms := func(l core.List) []Term {
		out := make([]Term, 0, len(l))
		for _, a := range l {
			out = append(out, Term{Idx: int32(pat.Universe().Index(a)), Dir: core.Greater})
		}
		return out
	}
	return Compiled{LHS: terms(od.LHS), RHS: terms(od.RHS)}
}

// fixpointClosure closes attrs under the FDs set(X) → set(Y) of m by
// sweeping until nothing fires.
func fixpointClosure(attrs core.AttrSet, m []core.OD) core.AttrSet {
	closure := attrs.Clone()
	for changed := true; changed; {
		changed = false
		for _, od := range m {
			if !od.LHS.Set().SubsetOf(closure) {
				continue
			}
			for _, a := range od.RHS {
				if !closure.Contains(a) {
					closure.Add(a)
					changed = true
				}
			}
		}
	}
	return closure
}

// referenceDecide is decide over attribute names: an AttrSet closure, a
// core.Pattern per round compiled through its universe, and widening
// through Pattern.HoldsOD. It searches sequentially and returns the verdict
// with its node and widening counts — the oracle the ID-indexed decide must
// match exactly.
func referenceDecide(m []core.OD, od core.OD, maxAttrs int) (Verdict, uint64, uint64, error) {
	var explored, widenings uint64
	verdict := func(implied bool, w *core.Pattern, attrs int) Verdict {
		cost := explored / uint64(max(1, attrs))
		return Verdict{Implied: implied, Witness: w, Cost: max(cost, 1)}
	}
	expand := func(w *core.Pattern) *core.Pattern {
		attrs := core.AttrsOf(m).Union(od.Attrs()).Sorted()
		out := core.MustPattern(attrs)
		for _, a := range attrs {
			if err := out.SetSign(a, w.Sign(a)); err != nil {
				panic(err)
			}
		}
		return out
	}
	var working []core.OD
	inWorking := make([]bool, len(m))
	closure := fixpointClosure(od.LHS.Set(), m)
	splitRefuted := !od.RHS.Set().SubsetOf(closure)
	for {
		attrs := core.AttrsOf(working).Union(od.Attrs()).Sorted()
		if len(attrs) > maxAttrs {
			return Verdict{}, explored, widenings, fmt.Errorf(
				"prover: question needs %d entangled attributes, exceeding the limit of %d (raise with WithMaxAttrs)",
				len(attrs), maxAttrs)
		}
		widen := func(w *core.Pattern) bool {
			for i, od := range m {
				explored++
				if !inWorking[i] && !w.HoldsOD(od) {
					inWorking[i] = true
					working = append(working, od)
					widenings++
					return true
				}
			}
			return false
		}
		pat := core.MustPattern(attrs)
		if splitRefuted {
			for _, a := range attrs {
				if !closure.Contains(a) {
					if err := pat.SetSign(a, core.Less); err != nil {
						panic(err)
					}
				}
			}
			if widen(pat) {
				continue
			}
			return verdict(false, expand(pat), len(attrs)), explored, widenings, nil
		}
		cods := make([]Compiled, len(working))
		for i, w := range working {
			cods[i] = compileOD(w, pat)
		}
		found, nodes, err := searchSequential(context.Background(), pat.Signs(), cods, compileOD(od, pat))
		explored += nodes
		if err != nil {
			return Verdict{}, explored, widenings, err
		}
		if !found {
			return verdict(true, nil, len(attrs)), explored, widenings, nil
		}
		if widen(pat) {
			continue
		}
		return verdict(false, expand(pat), len(attrs)), explored, widenings, nil
	}
}

// TestDecideMatchesReference runs the ID-indexed decide and the
// name-based reference side by side on random OD sets and on wide chain
// shards: verdicts, witnesses, Cost, node and widening counts, and guard
// errors must all be identical.
func TestDecideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1512))
	sets := randomSets(rng, 150)
	sets = append(sets,
		pinnedSet{name: "warehouse", m: warehouseODs(), questions: warehouseQuestions(rng, 100), maxAttrs: DefaultMaxAttrs},
		chainSet(rng, "chain72", 8, 3),
		chainSet(rng, "chain144", 16, 2),
	)
	// A wide set with a small guard, so the guard trips on cheap questions.
	tight := chainSet(rng, "tight", 10, 2)
	tight.maxAttrs = 4
	sets = append(sets, tight)
	for _, set := range sets {
		var ctrs Counters
		p := New(set.m, WithCounters(&ctrs), WithMaxAttrs(set.maxAttrs))
		for _, q := range set.questions {
			before := ctrs.Snapshot()
			got, gotErr := p.DecideCtx(context.Background(), q)
			after := ctrs.Snapshot()
			want, nodes, widenings, wantErr := referenceDecide(set.m, q, set.maxAttrs)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %s: error %v, reference %v", set.name, q, gotErr, wantErr)
			}
			if gotNodes, gotWidenings := after.Nodes-before.Nodes, after.Widenings-before.Widenings; gotNodes != nodes || gotWidenings != widenings {
				t.Fatalf("%s: %s: nodes/widenings %d/%d, reference %d/%d", set.name, q, gotNodes, gotWidenings, nodes, widenings)
			}
			if gotErr != nil {
				continue
			}
			if got.Implied != want.Implied || got.Cost != want.Cost {
				t.Fatalf("%s: %s: implied=%v cost=%d, reference implied=%v cost=%d", set.name, q, got.Implied, got.Cost, want.Implied, want.Cost)
			}
			if !got.Implied && got.Witness.String() != want.Witness.String() {
				t.Fatalf("%s: %s: witness %s, reference %s", set.name, q, got.Witness, want.Witness)
			}
		}
	}
}
