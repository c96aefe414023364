package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/prover"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

func mustODs(t *testing.T, text string) []core.OD {
	t.Helper()
	ods, err := core.ParseStatements(text)
	if err != nil {
		t.Fatal(err)
	}
	return ods
}

// TestExample1OrderBy reproduces the paper's Example 1. The FD
// month → quarter alone reduces ORDER BY year, month, quarter but cannot
// touch ORDER BY year, quarter, month; the OD [month] ↦ [quarter] reduces
// both to year, month.
func TestExample1OrderBy(t *testing.T) {
	fdOnly := NewConstraints([]fd.FD{fd.New(L("month"), L("quarter"))}, nil)

	got := ReduceOrderFD(L("year", "month", "quarter"), fdOnly)
	if !got.Reduced.Equal(L("year", "month")) {
		t.Errorf("FD reduce of [year,month,quarter] = %v", got.Reduced)
	}
	got = ReduceOrderFD(L("year", "quarter", "month"), fdOnly)
	if !got.Reduced.Equal(L("year", "quarter", "month")) {
		t.Errorf("FD reduce must not touch [year,quarter,month]: %v", got.Reduced)
	}

	withOD := NewConstraints(nil, mustODs(t, "[month] -> [quarter]"))
	res, err := ReduceOrder(L("year", "quarter", "month"), withOD)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("year", "month")) {
		t.Errorf("OD reduce of [year,quarter,month] = %v", res.Reduced)
	}
	if len(res.Steps) != 1 || res.Steps[0].Rule != "od-left-eliminate" || !res.Steps[0].Seg.Equal(L("quarter")) {
		t.Errorf("unexpected steps: %+v", res.Steps)
	}
	if err := res.Check(withOD); err != nil {
		t.Errorf("reduction does not check out: %v", err)
	}
	// The other direction reduces too (FD implied by the OD, Lemma 1).
	res, err = ReduceOrder(L("year", "month", "quarter"), withOD)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("year", "month")) {
		t.Errorf("OD reduce of [year,month,quarter] = %v", res.Reduced)
	}
}

// TestInterveningAttributeBlocks reproduces the paper's caveat: with D ↦ B,
// ABD reduces to AD but ABCD must stay intact — C intervenes.
func TestInterveningAttributeBlocks(t *testing.T) {
	c := NewConstraints(nil, mustODs(t, "[D] -> [B]"))
	res, err := ReduceOrder(L("A", "B", "D"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("A", "D")) {
		t.Errorf("ABD should reduce to AD, got %v", res.Reduced)
	}
	res, err = ReduceOrder(L("A", "B", "C", "D"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("A", "B", "C", "D")) {
		t.Errorf("ABCD must not reduce, got %v", res.Reduced)
	}
	// With D ↦ BC, the multi-attribute postfix eliminates B and then C.
	c = NewConstraints(nil, mustODs(t, "[D] -> [B, C]"))
	res, err = ReduceOrder(L("A", "B", "C", "D"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("A", "D")) {
		t.Errorf("ABCD should reduce to AD with D ↦ BC, got %v", res.Reduced)
	}
	if err := res.Check(c); err != nil {
		t.Errorf("reduction does not check out: %v", err)
	}
}

func TestReduceOrderDuplicates(t *testing.T) {
	c := NewConstraints(nil, nil)
	res, err := ReduceOrder(L("A", "B", "A", "B"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("A", "B")) {
		t.Errorf("duplicates should normalize away: %v", res.Reduced)
	}
}

func TestEquivalentAndCovers(t *testing.T) {
	c := NewConstraints(nil, mustODs(t, "[A] -> [B]"))
	ok, err := Equivalent(L("A", "B"), L("A"), c)
	if err != nil || !ok {
		t.Errorf("[A,B] should equal [A] given A ↦ B: %v %v", ok, err)
	}
	ok, err = Equivalent(L("B"), L("A"), c)
	if err != nil || ok {
		t.Errorf("[B] must not equal [A]: %v %v", ok, err)
	}
	// Covers is directional: [A] covers ORDER BY [B] but not vice versa.
	ok, err = Covers(L("A"), L("B"), c)
	if err != nil || !ok {
		t.Errorf("[A] should cover [B]: %v %v", ok, err)
	}
	ok, err = Covers(L("B"), L("A"), c)
	if err != nil || ok {
		t.Errorf("[B] must not cover [A]: %v %v", ok, err)
	}
	// Strengthening covers: sorting by [A, C] satisfies ORDER BY A.
	empty := NewConstraints(nil, nil)
	ok, err = Covers(L("A", "C"), L("A"), empty)
	if err != nil || !ok {
		t.Errorf("strengthened order should cover: %v %v", ok, err)
	}
	ok, err = Equivalent(L("A", "B"), L("A", "B"), empty)
	if err != nil || !ok {
		t.Errorf("identical lists are equivalent: %v %v", ok, err)
	}
}

func TestReduceGroupBy(t *testing.T) {
	c := NewConstraints([]fd.FD{fd.New(L("month"), L("quarter"))}, nil)
	res := ReduceGroupBy(L("year", "quarter", "month"), c)
	if !res.Reduced.Equal(L("year", "month")) {
		t.Errorf("group-by should drop quarter anywhere: %v", res.Reduced)
	}
	// Unlike order reduction, position does not matter for group-by.
	res = ReduceGroupBy(L("quarter", "year", "month"), c)
	if !res.Reduced.Equal(L("year", "month")) {
		t.Errorf("group-by reduce = %v", res.Reduced)
	}
}

func TestGroupBySatisfiedBy(t *testing.T) {
	c := NewConstraints([]fd.FD{fd.New(L("month"), L("quarter"))}, nil)
	// Sorting by year, month refines the partition year, quarter, month.
	ok, err := GroupBySatisfiedBy(L("year", "month"), L("year", "quarter", "month"), c)
	if err != nil || !ok {
		t.Errorf("stream group-by should be satisfied: %v %v", ok, err)
	}
	// Sorting by year alone does not.
	ok, err = GroupBySatisfiedBy(L("year"), L("year", "month"), c)
	if err != nil || ok {
		t.Errorf("year alone cannot partition by month: %v %v", ok, err)
	}
	// Sorting by a strengthening works (year, month, day).
	c2 := NewConstraints(nil, nil)
	ok, err = GroupBySatisfiedBy(L("year", "month", "day"), L("year", "month"), c2)
	if err != nil || !ok {
		t.Errorf("strengthened sort should satisfy group-by: %v %v", ok, err)
	}
}

// TestReductionProofs: every reduction emits a machine-checkable equivalence
// proof.
func TestReductionProofs(t *testing.T) {
	c := NewConstraints(
		[]fd.FD{fd.New(L("month"), L("quarter"))},
		mustODs(t, "[month] -> [week]"),
	)
	res, err := ReduceOrder(L("year", "week", "month", "quarter"), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.Equal(L("year", "month")) {
		t.Fatalf("reduce = %v, want [year, month]", res.Reduced)
	}
	proof, err := res.Proof(c)
	if err != nil {
		t.Fatalf("proof generation failed: %v", err)
	}
	if err := proof.Verify(); err != nil {
		t.Fatalf("proof fails verification: %v", err)
	}
	concl, err := proof.Conclusion()
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewOD(L("year", "week", "month", "quarter"), L("year", "month"))
	if !concl.Equal(want) {
		t.Errorf("proof concludes %s, want %s", concl, want)
	}
	// Trivial reduction proof.
	res2, err := ReduceOrder(L("A", "B"), NewConstraints(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := res2.Proof(NewConstraints(nil, nil))
	if err != nil || p2.Verify() != nil {
		t.Errorf("trivial proof failed: %v", err)
	}
}

// TestReduceOrderSoundRandom: reductions are order-preserving on random
// instances — any relation satisfying the constraints orders identically by
// the input and reduced lists.
func TestReduceOrderSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	universe := L("A", "B", "C", "D")
	for i := 0; i < 80; i++ {
		var ods []core.OD
		for j := 0; j < 1+rng.Intn(2); j++ {
			ods = append(ods, core.RandOD(rng, universe, 2))
		}
		c := NewConstraints(nil, ods)
		order := core.RandList(rng, universe, 4)
		res, err := ReduceOrder(order, c)
		if err != nil {
			t.Fatal(err)
		}
		// Semantic check via the prover with the full OD set.
		p := prover.New(ods)
		ok, err := p.ImpliesAll(core.Equivalence(res.Input, res.Reduced))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("unsound reduction %v -> %v under %s", res.Input, res.Reduced, core.ODsString(ods))
		}
		// And on data: random relations satisfying the ODs order equally.
		for k := 0; k < 10; k++ {
			r := core.RandRelation(rng, universe, 5, 2)
			okM, _, err := r.SatisfiesAll(ods)
			if err != nil {
				t.Fatal(err)
			}
			if !okM {
				continue
			}
			eq, _, err := r.Equivalent(res.Input, res.Reduced)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("reduction broken on data for %v -> %v under %s:\n%s",
					res.Input, res.Reduced, core.ODsString(ods), r)
			}
		}
	}
}

// BenchmarkReduceOrderShard reduces one ORDER BY against a catalog-shard
// sized constraint set: chains of nine attributes, each link [cK_i] ↦
// [cK_i+1], 8 chains (72 attributes) and 16 chains (144). The reduction
// asks an FD closure question per prefix it tests and one implication
// search; the Constraints value is reused across iterations, as a catalog
// snapshot reuses it across requests.
func BenchmarkReduceOrderShard(b *testing.B) {
	for _, chains := range []int{8, 16} {
		var ods []core.OD
		for k := 0; k < chains; k++ {
			for i := 0; i < 8; i++ {
				ods = append(ods, core.NewOD(L(fmt.Sprintf("c%02d_%d", k, i)), L(fmt.Sprintf("c%02d_%d", k, i+1))))
			}
		}
		order := L("c00_0", "c00_1", "c00_2", "c03_0")
		b.Run(fmt.Sprintf("attrs=%d", 9*chains), func(b *testing.B) {
			c := NewConstraints(nil, ods)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ReduceOrder(order, c)
				if err != nil || !res.Reduced.Equal(L("c00_0", "c03_0")) {
					b.Fatalf("ReduceOrder = %v, %v", res.Reduced, err)
				}
			}
		})
	}
}
