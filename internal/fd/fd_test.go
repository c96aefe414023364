package fd

import (
	"math/rand"
	"testing"

	"odlib/internal/core"
)

func L(attrs ...string) core.List { return core.L(attrs...) }

func TestClosure(t *testing.T) {
	fds := []FD{
		New(L("A"), L("B")),
		New(L("B"), L("C")),
		New(L("C", "D"), L("E")),
	}
	tests := []struct {
		in   core.List
		want core.List
	}{
		{L("A"), L("A", "B", "C")},
		{L("A", "D"), L("A", "B", "C", "D", "E")},
		{L("D"), L("D")},
		{nil, nil},
	}
	for _, tc := range tests {
		got := Closure(tc.in.Set(), fds)
		if !got.Equal(tc.want.Set()) {
			t.Errorf("Closure(%v) = %v, want %v", tc.in, got, tc.want.Set())
		}
	}
}

func TestImplies(t *testing.T) {
	fds := []FD{
		New(L("A"), L("B")),
		New(L("B"), L("C")),
	}
	if !Implies(fds, New(L("A"), L("C"))) {
		t.Error("transitivity should be implied")
	}
	if !Implies(fds, New(L("A", "D"), L("B"))) {
		t.Error("augmentation should be implied")
	}
	if !Implies(fds, New(L("C"), L("C"))) {
		t.Error("reflexivity should be implied")
	}
	if Implies(fds, New(L("C"), L("A"))) {
		t.Error("reverse should not be implied")
	}
	if Implies(nil, New(L("A"), L("B"))) {
		t.Error("nothing follows from the empty set but trivialities")
	}
	if !Implies(nil, New(L("A", "B"), L("A"))) {
		t.Error("trivial FD follows from the empty set")
	}
}

func TestFDBasics(t *testing.T) {
	f := New(L("A", "B"), L("C"))
	if f.String() != "{A, B} -> {C}" {
		t.Errorf("String = %q", f.String())
	}
	if f.Trivial() {
		t.Error("not trivial")
	}
	if !New(L("A", "B"), L("A")).Trivial() {
		t.Error("should be trivial")
	}
	if !f.Attrs().Equal(core.NewAttrSet("A", "B", "C")) {
		t.Error("Attrs wrong")
	}
	od := core.NewOD(L("B", "A"), L("C", "C"))
	if got := FromOD(od); !got.LHS.Equal(core.NewAttrSet("A", "B")) || !got.RHS.Equal(core.NewAttrSet("C")) {
		t.Errorf("FromOD = %v", got)
	}
	if got := FromODs([]core.OD{od}); len(got) != 1 {
		t.Errorf("FromODs = %v", got)
	}
	if got := String([]FD{f}); got != "{{A, B} -> {C}}" {
		t.Errorf("set String = %q", got)
	}
}

func TestEquivalent(t *testing.T) {
	a := []FD{New(L("A"), L("B")), New(L("B"), L("C"))}
	b := []FD{New(L("A"), L("B", "C")), New(L("B"), L("C"))}
	if !Equivalent(a, b) {
		t.Error("sets should be equivalent")
	}
	c := []FD{New(L("A"), L("B"))}
	if Equivalent(a, c) {
		t.Error("sets should differ")
	}
}

func TestMinimalCover(t *testing.T) {
	fds := []FD{
		New(L("A"), L("B", "C")),
		New(L("B"), L("C")),
		New(L("A", "B"), L("C")), // redundant
		New(L("A", "C"), L("C")), // trivial after split
	}
	mc := MinimalCover(fds)
	if !Equivalent(fds, mc) {
		t.Fatalf("cover not equivalent: %s vs %s", String(fds), String(mc))
	}
	for _, f := range mc {
		if len(f.RHS) != 1 {
			t.Errorf("non-singleton RHS in cover: %s", f)
		}
		if f.Trivial() {
			t.Errorf("trivial FD in cover: %s", f)
		}
	}
	// No FD in the cover is implied by the others.
	for i := range mc {
		rest := append(append([]FD{}, mc[:i]...), mc[i+1:]...)
		if Implies(rest, mc[i]) {
			t.Errorf("redundant FD in cover: %s", mc[i])
		}
	}
	// Left-reduction: {A,B} -> C must have lost B if A -> B is present.
	for _, f := range mc {
		if f.LHS.Contains("B") && f.LHS.Contains("A") {
			t.Errorf("unreduced LHS in cover: %s", f)
		}
	}
}

func TestMinimalCoverQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	universe := L("A", "B", "C", "D")
	for i := 0; i < 100; i++ {
		var fds []FD
		n := 1 + rng.Intn(4)
		for j := 0; j < n; j++ {
			fds = append(fds, FD{
				LHS: core.RandList(rng, universe, 2).Set(),
				RHS: core.RandList(rng, universe, 2).Set(),
			})
		}
		mc := MinimalCover(fds)
		if !Equivalent(fds, mc) {
			t.Fatalf("cover not equivalent: %s vs %s", String(fds), String(mc))
		}
	}
}

func TestSatisfies(t *testing.T) {
	r := core.MustRelation(L("A", "B"))
	for _, row := range [][]int64{{1, 1}, {1, 1}, {2, 5}} {
		if err := r.AddIntRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	ok, _, err := Satisfies(r, New(L("A"), L("B")))
	if err != nil || !ok {
		t.Errorf("FD should hold: %v %v", ok, err)
	}
	if err := r.AddIntRow(2, 6); err != nil {
		t.Fatal(err)
	}
	ok, w, err := Satisfies(r, New(L("A"), L("B")))
	if err != nil || ok {
		t.Errorf("FD should fail: %v %v", ok, err)
	}
	va, _ := r.Value(w[0], "A")
	vb, _ := r.Value(w[1], "A")
	if !va.Equal(vb) {
		t.Errorf("witness rows should agree on A: %v %v", va, vb)
	}
	if _, _, err := Satisfies(r, New(L("Z"), L("A"))); err == nil {
		t.Error("unknown attribute should error")
	}
}

// fdHoldsPairwise decides r ⊨ f straight from the definition of an FD: every
// two rows equal on f.LHS are equal on f.RHS. It shares no code with
// Satisfies, which checks the OD X ↦ XY.
func fdHoldsPairwise(t *testing.T, r *core.Relation, f FD) bool {
	t.Helper()
	lhs, rhs := f.LHS.Sorted(), f.RHS.Sorted()
	for i := 0; i < r.Len(); i++ {
		for j := i + 1; j < r.Len(); j++ {
			if rowsEqualOn(t, r, i, j, lhs) && !rowsEqualOn(t, r, i, j, rhs) {
				return false
			}
		}
	}
	return true
}

func rowsEqualOn(t *testing.T, r *core.Relation, i, j int, x core.List) bool {
	t.Helper()
	for _, a := range x {
		vi, err := r.Value(i, a)
		if err != nil {
			t.Fatal(err)
		}
		vj, err := r.Value(j, a)
		if err != nil {
			t.Fatal(err)
		}
		if !vi.Equal(vj) {
			return false
		}
	}
	return true
}

// TestFDODCorrespondence is Theorem 13 checked semantically: Satisfies
// decides the FD set(X) → set(Y) through the OD X ↦ XY, so it must agree
// with the pairwise FD definition, and every witness
// must be two rows equal on X and different on Y.
func TestFDODCorrespondence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	universe := L("A", "B", "C")
	for i := 0; i < 300; i++ {
		r := core.RandRelation(rng, universe, 6, 2)
		f := New(core.RandList(rng, universe, 2), core.RandList(rng, universe, 2))
		holds, w, err := Satisfies(r, f)
		if err != nil {
			t.Fatal(err)
		}
		if want := fdHoldsPairwise(t, r, f); holds != want {
			t.Fatalf("Satisfies(%s) = %v, pairwise definition %v on\n%s", f, holds, want, r)
		}
		if !holds && (!rowsEqualOn(t, r, w[0], w[1], f.LHS.Sorted()) || rowsEqualOn(t, r, w[0], w[1], f.RHS.Sorted())) {
			t.Fatalf("witness rows %v do not falsify %s on\n%s", w, f, r)
		}
	}
}
