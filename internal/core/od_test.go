package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1 is the example relation of Figure 1 in the paper.
func figure1(t *testing.T) *Relation {
	t.Helper()
	return mustRel(t, L("A", "B", "C", "D", "E", "F"),
		[]int64{3, 2, 0, 4, 7, 9},
		[]int64{3, 2, 1, 3, 8, 9},
	)
}

// TestFigure1 reproduces Example 2 and Example 3: [A,B,C] ↦ [F,E,D] is
// consistent with the relation of Figure 1 while [A,B,C] ↦ [F,D,E] is
// falsified, and [A,B] ~ [F,C] holds while [A,C] ~ [F,D] is falsified.
func TestFigure1(t *testing.T) {
	r := figure1(t)

	ok, _, err := r.Satisfies(OD{LHS: L("A", "B", "C"), RHS: L("F", "E", "D")})
	if err != nil || !ok {
		t.Errorf("[A,B,C] -> [F,E,D] should hold (err=%v)", err)
	}
	ok, v, err := r.Satisfies(OD{LHS: L("A", "B", "C"), RHS: L("F", "D", "E")})
	if err != nil || ok {
		t.Errorf("[A,B,C] -> [F,D,E] should be falsified (err=%v)", err)
	}
	if v == nil || v.Kind != Swap {
		t.Errorf("expected a swap witness, got %+v", v)
	}

	ok, _, err = r.OrderCompatible(L("A", "B"), L("F", "C"))
	if err != nil || !ok {
		t.Errorf("[A,B] ~ [F,C] should hold (err=%v)", err)
	}
	ok, _, err = r.OrderCompatible(L("A", "C"), L("F", "D"))
	if err != nil || ok {
		t.Errorf("[A,C] ~ [F,D] should be falsified (err=%v)", err)
	}
}

func TestODBasics(t *testing.T) {
	od := NewOD(L("A", "B"), L("C"))
	if od.String() != "[A, B] -> [C]" || od.Key() != od.String() {
		t.Errorf("String = %q", od.String())
	}
	if !od.Reverse().Equal(NewOD(L("C"), L("A", "B"))) {
		t.Error("Reverse wrong")
	}
	if !od.Attrs().Equal(NewAttrSet("A", "B", "C")) {
		t.Error("Attrs wrong")
	}
	if !od.FDForm().Equal(NewOD(L("A", "B"), L("A", "B", "C"))) {
		t.Error("FDForm wrong")
	}
	eq := Equivalence(L("A"), L("B"))
	if len(eq) != 2 || !eq[0].Equal(NewOD(L("A"), L("B"))) || !eq[1].Equal(NewOD(L("B"), L("A"))) {
		t.Errorf("Equivalence = %v", eq)
	}
	oc := OrderCompat(L("A"), L("B"))
	if len(oc) != 2 || !oc[0].Equal(NewOD(L("A", "B"), L("B", "A"))) {
		t.Errorf("OrderCompat = %v", oc)
	}
	if !ConstantOD("A").Equal(NewOD(nil, L("A"))) {
		t.Error("ConstantOD wrong")
	}
	s := AttrsOf([]OD{od, NewOD(L("D"), nil)})
	if !s.Equal(NewAttrSet("A", "B", "C", "D")) {
		t.Errorf("AttrsOf = %v", s)
	}
	ods := []OD{NewOD(L("B"), nil), NewOD(L("A"), nil)}
	SortODs(ods)
	if !ods[0].LHS.Equal(L("A")) {
		t.Error("SortODs wrong")
	}
	if got := ODsString(ods); got != "{[A] -> []; [B] -> []}" {
		t.Errorf("ODsString = %q", got)
	}
}

func TestTrivialODs(t *testing.T) {
	trivial := []OD{
		{L("A"), nil},
		{L("A", "B"), L("A")},
		{L("A", "B"), L("A", "B")},
		{L("A", "B", "A"), L("A", "B")},
		{L("A", "B"), L("A", "A", "B", "A")},
		{nil, nil},
	}
	for _, od := range trivial {
		if !od.Trivial() {
			t.Errorf("%s should be trivial", od)
		}
	}
	nontrivial := []OD{
		{L("A"), L("B")},
		{L("A", "B"), L("B")},
		{L("A"), L("A", "B")},
		{L("A", "B"), L("B", "A")},
		{nil, L("A")},
	}
	for _, od := range nontrivial {
		if od.Trivial() {
			t.Errorf("%s should not be trivial", od)
		}
	}
}

// TestTrivialMatchesSemantics checks the syntactic triviality test against
// exhaustive two-row semantics: an OD is trivial iff no pattern falsifies it.
func TestTrivialMatchesSemantics(t *testing.T) {
	universe := L("A", "B", "C")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		od := RandOD(rng, universe, 3)
		falsifiable := false
		p := MustPattern(universe)
		var rec func(k int)
		rec = func(k int) {
			if falsifiable {
				return
			}
			if k == len(universe) {
				if !p.HoldsOD(od) {
					falsifiable = true
				}
				return
			}
			for _, s := range []Sign{Less, Equal, Greater} {
				p.Signs()[k] = s
				rec(k + 1)
			}
			p.Signs()[k] = Equal
		}
		rec(0)
		if od.Trivial() == falsifiable {
			t.Fatalf("%s: Trivial=%v but falsifiable=%v", od, od.Trivial(), falsifiable)
		}
	}
}

func TestSatisfiesWitnessKinds(t *testing.T) {
	// Split: same A, different B.
	r := mustRel(t, L("A", "B"), []int64{1, 1}, []int64{1, 2})
	ok, v, err := r.Satisfies(OD{LHS: L("A"), RHS: L("B")})
	if err != nil || ok || v.Kind != Split {
		t.Errorf("expected split, got ok=%v v=%+v err=%v", ok, v, err)
	}
	// The split witness must order S before T in ≼X (they tie) and differ on B.
	bS, _ := r.Value(v.S, "B")
	bT, _ := r.Value(v.T, "B")
	if bS.Compare(bT) >= 0 {
		t.Errorf("split witness rows misordered: %v vs %v", bS, bT)
	}

	// Swap: A ascends, B descends.
	r = mustRel(t, L("A", "B"), []int64{1, 2}, []int64{2, 1})
	ok, v, err = r.Satisfies(OD{LHS: L("A"), RHS: L("B")})
	if err != nil || ok || v.Kind != Swap {
		t.Errorf("expected swap, got ok=%v v=%+v err=%v", ok, v, err)
	}
	if v.Error() == "" {
		t.Error("violation error string empty")
	}

	// Errors for unknown attributes.
	if _, _, err := r.Satisfies(OD{LHS: L("Z"), RHS: L("A")}); err == nil {
		t.Error("unknown LHS attribute should error")
	}
	if _, _, err := r.Satisfies(OD{LHS: L("A"), RHS: L("Z")}); err == nil {
		t.Error("unknown RHS attribute should error")
	}
	if _, _, err := r.SatisfiesNaive(OD{LHS: L("A"), RHS: L("Z")}); err == nil {
		t.Error("unknown attribute should error in naive check")
	}
}

// TestSatisfiesAgreesWithNaive cross-validates the sort-based OD check
// against the quadratic Definition-4 check on random instances whose cells
// mix nulls, ints, floats, NaN, ±Inf, values near 2^53 and strings.
func TestSatisfiesAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := L("A", "B", "C", "D")
	f := func(seed int64) bool {
		rng.Seed(seed)
		r := randMixedRelation(rng, universe, 2+rng.Intn(10))
		od := RandOD(rng, universe, 3)
		fast, _, err1 := r.Satisfies(od)
		slow, _, err2 := r.SatisfiesNaive(od)
		return err1 == nil && err2 == nil && fast == slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestODLemma1 verifies Lemma 1: an OD implies the corresponding FD. Whenever
// a random relation satisfies X ↦ Y, tuples equal on set(X) are equal on
// set(Y).
func TestODLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := L("A", "B", "C")
	for i := 0; i < 300; i++ {
		r := RandRelation(rng, universe, 8, 2)
		od := RandOD(rng, universe, 2)
		ok, _, err := r.Satisfies(od)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for s := 0; s < r.Len(); s++ {
			for u := 0; u < r.Len(); u++ {
				eqX, _ := r.EqOn(s, u, od.LHS)
				eqY, _ := r.EqOn(s, u, od.RHS)
				if eqX && !eqY {
					t.Fatalf("Lemma 1 violated for %s on\n%s", od, r)
				}
			}
		}
	}
}

// TestTheorem15Semantics verifies Theorem 15 semantically: r ⊨ X ↦ Y iff
// r ⊨ X ↦ XY and r ⊨ X ~ Y.
func TestTheorem15Semantics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	universe := L("A", "B", "C")
	for i := 0; i < 300; i++ {
		r := RandRelation(rng, universe, 6, 2)
		od := RandOD(rng, universe, 2)
		direct, _, err := r.Satisfies(od)
		if err != nil {
			t.Fatal(err)
		}
		fdPart, _, err := r.Satisfies(od.FDForm())
		if err != nil {
			t.Fatal(err)
		}
		ocPart, _, err := r.OrderCompatible(od.LHS, od.RHS)
		if err != nil {
			t.Fatal(err)
		}
		if direct != (fdPart && ocPart) {
			t.Fatalf("Theorem 15 violated for %s: direct=%v fd=%v oc=%v on\n%s",
				od, direct, fdPart, ocPart, r)
		}
	}
}

func TestEquivalentHelper(t *testing.T) {
	r := mustRel(t, L("A", "B"), []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	ok, _, err := r.Equivalent(L("A"), L("B"))
	if err != nil || !ok {
		t.Errorf("A and B order the same way: ok=%v err=%v", ok, err)
	}
	ok, _, _ = r.Equivalent(L("A"), L("B", "A"))
	if !ok {
		t.Error("[A] <-> [B,A] should hold here")
	}
}
