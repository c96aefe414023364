package prover

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"odlib/internal/core"
)

// deepSwapInstance builds a refuted implication whose only counterexamples
// need a Greater sign on the second-sorted attribute — the region depth-
// first enumeration reaches last. With k padding attributes the sequential
// search grinds ≈ 3.5·3^k nodes before the refutation; a prefix-sharded
// pool finds it almost immediately in the late block.
//
//	M      = { [aa,p*] ↦ [aa,p*,ab] } ∪ { [ab] ↦ [p_i] for every i }
//	target = [aa,p1..pk] ↦ [ab]
//
// Counterexamples are exactly {aa<, ab>, p_i ∈ {=,>}}: the FD-form OD kills
// every split, and [ab] ↦ [p_i] kills the swaps reachable while ab is still
// Equal or Less.
func deepSwapInstance(k int) (m []core.OD, target core.OD) {
	pad := make(core.List, k)
	for i := range pad {
		pad[i] = core.Attribute(fmt.Sprintf("p%02d", i))
	}
	lhs := append(core.List{"aa"}, pad...)
	m = append(m, core.NewOD(lhs, append(lhs.Clone(), "ab")))
	for _, p := range pad {
		m = append(m, core.NewOD(core.L("ab"), core.List{p}))
	}
	return m, core.NewOD(lhs, core.L("ab"))
}

// chainInstance builds a transitive chain A00 ↦ … ↦ A<n-1>; the span
// question is implied (the search must exhaust the tree), the reversed tail
// question is refuted late-ish in DFS order.
func chainInstance(n int) (m []core.OD, implied, tailReversal core.OD) {
	attr := func(i int) core.Attribute { return core.Attribute(fmt.Sprintf("a%02d", i)) }
	for i := 0; i+1 < n; i++ {
		m = append(m, core.NewOD(core.List{attr(i)}, core.List{attr(i + 1)}))
	}
	implied = core.NewOD(core.List{attr(0)}, core.List{attr(n - 1)})
	tailReversal = core.NewOD(core.List{attr(n - 1)}, core.List{attr(n - 2)})
	return
}

// checkWitness asserts w certifies M ⊭ od.
func checkWitness(t *testing.T, m []core.OD, od core.OD, w *core.Pattern) {
	t.Helper()
	if w == nil {
		t.Fatalf("refutation of %s without witness", od)
	}
	if !w.HoldsAll(m) {
		t.Fatalf("witness %v does not satisfy M", w)
	}
	if w.HoldsOD(od) {
		t.Fatalf("witness %v does not falsify %s", w, od)
	}
}

// TestParallelMatchesSequentialRandomized is the differential harness over
// random OD sets large enough to engage the worker pool: sequential decide,
// 4-worker decide and 16-worker decide must agree on every verdict, and
// every refutation must come with a valid witness (the pools may return
// different counterexamples; all must certify).
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	universe := make(core.List, 9)
	for i := range universe {
		universe[i] = core.Attribute(fmt.Sprintf("a%02d", i))
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m []core.OD
		for j := 0; j < 2+rng.Intn(4); j++ {
			m = append(m, core.RandOD(rng, universe, 3))
		}
		seq := New(m)
		par4 := New(m, WithWorkers(4))
		par16 := New(m, WithWorkers(16))
		for q := 0; q < 6; q++ {
			// Wide questions force the full universe into the search so the
			// parallel path actually engages (>= parallelMinAttrs).
			phi := core.NewOD(core.RandList(rng, universe, 6), core.RandList(rng, universe, 6))
			wantOK, wantW, err := seq.ImpliesWitness(phi)
			if err != nil {
				t.Fatalf("seed %d: sequential: %v", seed, err)
			}
			if !wantOK {
				checkWitness(t, m, phi, wantW)
			}
			for _, p := range []*Prover{par4, par16} {
				gotOK, gotW, err := p.ImpliesWitness(phi)
				if err != nil {
					t.Fatalf("seed %d: parallel: %v", seed, err)
				}
				if gotOK != wantOK {
					t.Fatalf("seed %d: %s: parallel(%d workers)=%v, sequential=%v under %s",
						seed, phi, p.Workers(), gotOK, wantOK, core.ODsString(m))
				}
				if !gotOK {
					checkWitness(t, m, phi, gotW)
				}
			}
		}
	}
}

// TestParallelDeepSwap pins the workload the pool exists for: a refutation
// whose counterexample sits in the Greater region. Both modes must refute
// with valid witnesses. The pool's node cut has two sources: block placement,
// which is deterministic, and the stop flag, whose effect depends on the
// scheduler. The 2x bound is asserted on the first — the witness block
// alone must reach its witness in under half the nodes sequential
// enumeration needs over the same universe — and the stop path is checked
// by a property that holds on any schedule: a cancelled pool unwinds within
// one poll interval per block.
func TestParallelDeepSwap(t *testing.T) {
	const workers = 8
	m, target := deepSwapInstance(8)

	seq := New(m)
	ok, w, err := seq.ImpliesWitness(target)
	if err != nil || ok {
		t.Fatalf("sequential: ok=%v err=%v, want refuted", ok, err)
	}
	checkWitness(t, m, target, w)

	par := New(m, WithWorkers(workers))
	ok, w, err = par.ImpliesWitness(target)
	if err != nil || ok {
		t.Fatalf("parallel: ok=%v err=%v, want refuted", ok, err)
	}
	checkWitness(t, m, target, w)

	// The search over every OD of M: the round in which decide finds its
	// counterexample once widening has drawn the whole instance in.
	pat := core.MustPattern(core.AttrsOf(m).Union(target.Attrs()).Sorted())
	cods := make([]Compiled, len(m))
	for i, od := range m {
		cods[i] = compileOD(od, pat)
	}
	tgt := compileOD(target, pat)
	ctx := context.Background()
	whole := &searchState{ctx: ctx, cods: cods, target: tgt}
	if !whole.search(pat.Clone().Signs(), 0, false) {
		t.Fatal("sequential search over all of M found no counterexample")
	}

	prefixes := enumeratePrefixes(len(pat.Signs()), workers)
	parts := min(workers, len(prefixes))
	witnessNodes := uint64(0)
	for i := 0; i < parts; i++ {
		s := &searchState{ctx: ctx, cods: cods, target: tgt}
		if s.searchBlock(pat.Clone().Signs(), blockOf(prefixes, i, parts)) &&
			(witnessNodes == 0 || s.nodes < witnessNodes) {
			witnessNodes = s.nodes
		}
	}
	if witnessNodes == 0 {
		t.Fatal("no prefix block found a counterexample")
	}
	if witnessNodes*2 >= whole.nodes {
		t.Errorf("the witness block reaches its witness after %d nodes, sequential after %d — expected at least a 2x cut from block placement",
			witnessNodes, whole.nodes)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	found, nodes, err := par.searchParallel(cancelled, len(pat.Signs()), cods, tgt)
	if !errors.Is(err, context.Canceled) || found != nil {
		t.Fatalf("cancelled pool: found=%v err=%v, want context.Canceled", found, err)
	}
	if limit := uint64(parts * (stopCheckMask + 1)); nodes > limit {
		t.Errorf("cancelled pool visited %d nodes, more than one poll interval per block (%d)", nodes, limit)
	}
	t.Logf("witness block %d nodes, sequential %d, cancelled pool %d", witnessNodes, whole.nodes, nodes)
}

// TestLazyWideningAvoidsCascadeGuard is the regression the refactor exists
// for: a hub attribute entangled with far more ODs than the attribute limit
// admits. Eager seeding pulled every spoke into the universe and tripped
// the guard; lazy widening answers the reversal with the two attributes the
// answer actually needs.
func TestLazyWideningAvoidsCascadeGuard(t *testing.T) {
	const spokes = 20 // hub universe of 21 attributes, well past DefaultMaxAttrs
	var m []core.OD
	for i := 0; i < spokes; i++ {
		m = append(m, core.NewOD(core.L("hub"), core.List{core.Attribute(fmt.Sprintf("s%02d", i))}))
	}
	p := New(m) // DefaultMaxAttrs
	q := core.NewOD(core.L("s00"), core.L("hub"))
	ok, w, err := p.ImpliesWitness(q)
	if err != nil {
		t.Fatalf("lazy widening should keep the cascade out of the universe: %v", err)
	}
	if ok {
		t.Fatalf("%s should be refuted", q)
	}
	checkWitness(t, m, q, w)

	// The implied direction must still widen its way to a proof.
	ok, err = p.Implies(core.NewOD(core.L("hub"), core.L("s07")))
	if err != nil || !ok {
		t.Fatalf("declared spoke should be implied: ok=%v err=%v", ok, err)
	}
}

// TestCancellationStopsDecide drives a search-exhausting implied question
// and cancels mid-flight: the decide must return the context error well
// before the full tree is enumerated, count the cancellation, and never
// poison the cache with a partial verdict.
func TestCancellationStopsDecide(t *testing.T) {
	m, implied, _ := chainInstance(14)
	for _, workers := range []int{1, 4} {
		var c Counters
		p := New(m, WithWorkers(workers), WithCounters(&c))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, _, err := p.ImpliesWitnessCtx(ctx, implied)
		cancel()
		if err == nil {
			// The box outran the deadline; nothing to assert against.
			t.Skipf("search finished before the deadline (workers=%d)", workers)
		}
		if ctx.Err() == nil {
			t.Fatalf("workers=%d: error %v without context expiry", workers, err)
		}
		if got := c.Cancelled.Load(); got == 0 {
			t.Errorf("workers=%d: cancellation not counted", workers)
		}
		// A fresh, uncancelled ask must succeed: the aborted attempt may not
		// have cached anything.
		ok, err := p.Implies(implied)
		if err != nil || !ok {
			t.Fatalf("workers=%d: post-cancel decide: ok=%v err=%v", workers, ok, err)
		}
	}
}

// TestAlreadyCancelledContext must not run any search at all.
func TestAlreadyCancelledContext(t *testing.T) {
	m, implied, _ := chainInstance(10)
	var c Counters
	p := New(m, WithCounters(&c))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ImpliesCtx(ctx, implied); err == nil {
		t.Fatal("expected context error")
	}
	if nodes := c.Nodes.Load(); nodes > 0 {
		t.Errorf("dead context still burned %d nodes", nodes)
	}
}

// TestParallelPoolRaceStress exercises the worker pool under the race
// detector: many goroutines decide refuted and implied questions through
// the same prover concurrently (DecideCtx shares no cache), with a
// mid-flight cancellation thrown in.
func TestParallelPoolRaceStress(t *testing.T) {
	m, target := deepSwapInstance(8)
	chainM, implied, tailRev := chainInstance(9)
	all := append(append([]core.OD{}, m...), chainM...)
	p := New(all, WithWorkers(8), WithCounters(&Counters{}))

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var q core.OD
				switch (g + i) % 3 {
				case 0:
					q = target
				case 1:
					q = implied
				default:
					q = tailRev
				}
				ctx := context.Background()
				if i == 5 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(g+1)*time.Millisecond)
					defer cancel()
				}
				v, err := p.DecideCtx(ctx, q)
				if err != nil {
					continue // cancellation is the only allowed error here
				}
				if q.Equal(implied) != v.Implied {
					t.Errorf("goroutine %d: wrong verdict for %s: %v", g, q, v.Implied)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
