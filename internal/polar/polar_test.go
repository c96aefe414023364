package polar

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"odlib/internal/core"
	"odlib/internal/prover"
)

func TestListBasics(t *testing.T) {
	l := L("A", "-B", "+C")
	if l.String() != "[A, -B, C]" {
		t.Errorf("String = %q", l.String())
	}
	if !l.Names().Equal(core.L("A", "B", "C")) {
		t.Errorf("Names = %v", l.Names())
	}
	if !l.Flip().Equal(L("-A", "B", "-C")) {
		t.Errorf("Flip = %v", l.Flip())
	}
	if !l.Prefix(2).Equal(L("A", "-B")) || !l.Suffix(2).Equal(L("+C")) {
		t.Error("Prefix/Suffix wrong")
	}
	if !FromPlain(core.L("A", "B")).Equal(L("A", "B")) {
		t.Error("FromPlain wrong")
	}
	if A("X").Flip() != D("X") || D("X").String() != "-X" || Asc.String() != "asc" || Desc.String() != "desc" {
		t.Error("Attr helpers wrong")
	}
}

func TestParse(t *testing.T) {
	l, err := ParseList("[A, -B]")
	if err != nil || !l.Equal(L("A", "-B")) {
		t.Errorf("ParseList = %v, %v", l, err)
	}
	if _, err := ParseList("[A"); err == nil {
		t.Error("unbalanced brackets must fail")
	}
	if _, err := ParseList("A B"); err == nil {
		t.Error("bad attribute must fail")
	}
	od, err := ParseOD("[A, -B] -> [-C]")
	if err != nil || od.String() != "[A, -B] -> [-C]" {
		t.Errorf("ParseOD = %v, %v", od, err)
	}
	if _, err := ParseOD("[A] [B]"); err == nil {
		t.Error("missing arrow must fail")
	}
	empty, err := ParseList("[]")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty list parse = %v, %v", empty, err)
	}
}

func TestSatisfiesMixedPolarity(t *testing.T) {
	// income ascends while debt descends: [income] ↦ [-debt].
	r := core.MustRelation(core.L("income", "debt"))
	for _, row := range [][]int64{{100, 90}, {200, 70}, {300, 50}} {
		if err := r.AddIntRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := Satisfies(r, NewOD(L("income"), L("-debt")))
	if err != nil || !ok {
		t.Errorf("[income] -> [-debt] should hold: %v %v", ok, err)
	}
	ok, err = Satisfies(r, NewOD(L("income"), L("debt")))
	if err != nil || ok {
		t.Errorf("[income] -> [debt] should fail: %v %v", ok, err)
	}
	if _, err := Satisfies(r, NewOD(L("nope"), L("debt"))); err == nil {
		t.Error("unknown attribute must fail")
	}
}

// TestPlainEmbedding: all-ascending polarized ODs agree with core ODs on
// random relations.
func TestPlainEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := core.L("A", "B", "C")
	for i := 0; i < 200; i++ {
		r := core.RandRelation(rng, universe, 6, 2)
		od := core.RandOD(rng, universe, 2)
		plain, _, err := r.Satisfies(od)
		if err != nil {
			t.Fatal(err)
		}
		polarized, err := Satisfies(r, NewOD(FromPlain(od.LHS), FromPlain(od.RHS)))
		if err != nil {
			t.Fatal(err)
		}
		if plain != polarized {
			t.Fatalf("embedding broken for %s on\n%s", od, r)
		}
	}
}

// TestNegationDuality: flipping every polarity on both sides preserves
// satisfaction.
func TestNegationDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := core.L("A", "B", "C")
	mk := func() List {
		l := core.RandList(rng, universe, 2)
		out := FromPlain(l)
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = out[i].Flip()
			}
		}
		return out
	}
	for i := 0; i < 200; i++ {
		r := core.RandRelation(rng, universe, 6, 2)
		od := NewOD(mk(), mk())
		a, err := Satisfies(r, od)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Satisfies(r, od.Flip())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("negation duality broken for %s on\n%s", od, r)
		}
	}
}

func TestProverBasics(t *testing.T) {
	p := NewProver([]OD{
		{L("A"), L("-B")},
		{L("-B"), L("C")},
	})
	// [A] ↦ [B] and [A] ↦ [-B] together force B constant, which the FD
	// projection A → B cannot see: these rows fail if the polarized search
	// ever takes the plain prover's FD split shortcut.
	mirror := NewProver([]OD{
		{L("A"), L("B")},
		{L("A"), L("-B")},
	})
	cases := []struct {
		p    *Prover
		od   string
		want bool
	}{
		{p, "[A] -> [C]", true},         // transitivity through the flipped middle
		{p, "[A] -> [-B, C]", true},     // union
		{p, "[A, -B] -> [A]", true},     // reflexivity
		{p, "[A] -> [B]", false},        // wrong polarity
		{p, "[C] -> [A]", false},        // wrong direction
		{p, "[-A] -> [B]", true},        // flip of A ↦ -B
		{p, "[D, A] -> [D, C]", true},   // prefix
		{p, "[-D, A] -> [-D, C]", true}, // polarized prefix
		{mirror, "[] -> [B]", true},     // B is constant
		{mirror, "[C] -> [B]", true},    // a constant is ordered by anything
		{mirror, "[C] -> [A]", false},   // A is unconstrained
	}
	for _, tc := range cases {
		od, err := ParseOD(tc.od)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.p.Implies(od)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Implies(%s) under %v = %v, want %v", tc.od, tc.p.ods, got, tc.want)
		}
	}
}

// TestProverAgreesWithCore: on all-ascending questions the polarized prover
// coincides with the unpolarized one.
func TestProverAgreesWithCore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	universe := core.L("A", "B", "C")
	for i := 0; i < 100; i++ {
		var plain []core.OD
		var lifted []OD
		for j := 0; j < 1+rng.Intn(2); j++ {
			od := core.RandOD(rng, universe, 2)
			plain = append(plain, od)
			lifted = append(lifted, NewOD(FromPlain(od.LHS), FromPlain(od.RHS)))
		}
		q := core.RandOD(rng, universe, 2)
		want, err := prover.New(plain).Implies(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewProver(lifted).Implies(NewOD(FromPlain(q.LHS), FromPlain(q.RHS)))
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("provers disagree on %s under %s: core=%v polar=%v",
				q, core.ODsString(plain), want, got)
		}
	}
}

// TestProverSoundOnData: implied polarized ODs hold on every random
// relation satisfying the constraints.
func TestProverSoundOnData(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	universe := core.L("A", "B")
	mk := func() List {
		out := FromPlain(core.RandList(rng, universe, 2))
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = out[i].Flip()
			}
		}
		return out
	}
	for i := 0; i < 80; i++ {
		m := []OD{{mk(), mk()}}
		q := OD{mk(), mk()}
		implied, err := NewProver(m).Implies(q)
		if err != nil {
			t.Fatal(err)
		}
		if !implied {
			continue
		}
		for k := 0; k < 20; k++ {
			r := core.RandRelation(rng, universe, 5, 2)
			okM, err := Satisfies(r, m[0])
			if err != nil {
				t.Fatal(err)
			}
			if !okM {
				continue
			}
			okQ, err := Satisfies(r, q)
			if err != nil {
				t.Fatal(err)
			}
			if !okQ {
				t.Fatalf("unsound: %s ⊨ %s per prover, falsified by\n%s", m[0], q, r)
			}
		}
	}
}

func TestReduceOrderPolarized(t *testing.T) {
	// ORDER BY income DESC, debt ASC reduces to income DESC when
	// [-income] ↦ [debt] (debt rises as income falls).
	p := NewProver([]OD{{L("-income"), L("debt")}})
	reduced, err := p.ReduceOrder(L("-income", "debt"))
	if err != nil {
		t.Fatal(err)
	}
	if !reduced.Equal(L("-income")) {
		t.Errorf("reduced = %v, want [-income]", reduced)
	}
	// The mixed Example 1: ORDER BY year ASC, quarter DESC, month DESC
	// reduces given [-month] ↦ [-quarter] (flip of month ↦ quarter).
	p2 := NewProver([]OD{{L("month"), L("quarter")}})
	reduced, err = p2.ReduceOrder(L("year", "-quarter", "-month"))
	if err != nil {
		t.Fatal(err)
	}
	if !reduced.Equal(L("year", "-month")) {
		t.Errorf("reduced = %v, want [year, -month]", reduced)
	}
	// Duplicate names normalize regardless of polarity.
	reduced, err = NewProver(nil).ReduceOrder(L("A", "-A", "B"))
	if err != nil {
		t.Fatal(err)
	}
	if !reduced.Equal(L("A", "B")) {
		t.Errorf("normalize = %v", reduced)
	}
}

// TestProverCancellation: a cancelled search returns the context's error
// and leaves no verdict behind.
func TestProverCancellation(t *testing.T) {
	var wide List
	for i := 0; i < 10; i++ {
		wide = append(wide, A(string(rune('A'+i))))
	}
	od := NewOD(wide, wide.Prefix(1))
	p := NewProver(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ImpliesCtx(ctx, od); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if ok, err := p.Implies(od); err != nil || !ok {
		t.Fatalf("after cancellation: ok=%v err=%v, want implied", ok, err)
	}
}

func TestProverGuard(t *testing.T) {
	var big List
	for i := 0; i < DefaultMaxAttrs+1; i++ {
		big = append(big, A(string(rune('A'+i))))
	}
	p := NewProver(nil)
	if _, err := p.Implies(NewOD(big, big.Prefix(1))); err == nil {
		t.Error("attribute guard must trigger")
	}
}

// satisfiesPairwise decides r ⊨ od straight from Definition 4, with each
// attribute's comparison multiplied by its direction: every ordered pair of
// rows s ≼X t must have s ≼Y t. It shares no code with Satisfies.
func satisfiesPairwise(t *testing.T, r *core.Relation, od OD) bool {
	t.Helper()
	cmp := func(i, j int, l List) int {
		for _, a := range l {
			vi, err := r.Value(i, a.Name)
			if err != nil {
				t.Fatal(err)
			}
			vj, err := r.Value(j, a.Name)
			if err != nil {
				t.Fatal(err)
			}
			if c := vi.Compare(vj) * int(a.Dir); c != 0 {
				return c
			}
		}
		return 0
	}
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			if cmp(i, j, od.LHS) <= 0 && cmp(i, j, od.RHS) > 0 {
				return false
			}
		}
	}
	return true
}

// randPolarList draws a list of up to maxLen attributes from universe, each
// with a random direction; repeats (also with opposite directions) occur.
func randPolarList(rng *rand.Rand, universe core.List, maxLen int) List {
	out := FromPlain(core.RandList(rng, universe, maxLen))
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = out[i].Flip()
		}
	}
	return out
}

// TestSatisfiesAgreesWithPairwise checks the directed satisfaction check
// against the pairwise oracle on random relations with many ties, mixed
// directions and mixed value kinds (nulls, ints, floats, strings).
func TestSatisfiesAgreesWithPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	universe := core.L("A", "B", "C", "D")
	values := []core.Value{core.Null(), core.Int(0), core.Int(1), core.Float(0.5), core.Float(1), core.Str("a"), core.Str("b")}
	for i := 0; i < 500; i++ {
		r := core.MustRelation(universe)
		for k := rng.Intn(9); k > 0; k-- {
			row := make([]core.Value, len(universe))
			for c := range row {
				row[c] = values[rng.Intn(1+rng.Intn(len(values)))]
			}
			if err := r.AddRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		od := NewOD(randPolarList(rng, universe, 3), randPolarList(rng, universe, 3))
		got, err := Satisfies(r, od)
		if err != nil {
			t.Fatal(err)
		}
		if want := satisfiesPairwise(t, r, od); got != want {
			t.Fatalf("Satisfies(%s) = %v, pairwise oracle %v on\n%s", od, got, want, r)
		}
	}
}

// impliesBruteForce decides m ⊨ q over the universe by trying every two-row
// relation up to order isomorphism — all 3^n sign patterns, with no
// negation-invariance halving — against the pairwise oracle.
func impliesBruteForce(t *testing.T, universe core.List, m []OD, q OD) bool {
	t.Helper()
	pat := core.MustPattern(universe)
	signs := pat.Signs()
	for {
		r := pat.Relation()
		holdsM := true
		for _, c := range m {
			holdsM = holdsM && satisfiesPairwise(t, r, c)
		}
		if holdsM && !satisfiesPairwise(t, r, q) {
			return false
		}
		k := 0
		for k < len(signs) && signs[k] == core.Greater {
			signs[k] = core.Less
			k++
		}
		if k == len(signs) {
			return true
		}
		signs[k]++
	}
}

// TestProverAgreesWithBruteForce checks polarized implication against the
// brute-force oracle on random mixed-direction constraint sets.
func TestProverAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		universe := core.L("A", "B", "C", "D")[:3+rng.Intn(2)]
		var m []OD
		for j := rng.Intn(4); j > 0; j-- {
			m = append(m, NewOD(randPolarList(rng, universe, 2), randPolarList(rng, universe, 2)))
		}
		p := NewProver(m)
		for k := 0; k < 4; k++ {
			q := NewOD(randPolarList(rng, universe, 2), randPolarList(rng, universe, 2))
			got, err := p.Implies(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := impliesBruteForce(t, universe, m, q); got != want {
				t.Fatalf("Implies(%s) under %v = %v, brute force %v", q, m, got, want)
			}
		}
	}
}
