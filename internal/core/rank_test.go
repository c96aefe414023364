package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randCell draws a cell from every kind and the numeric edge cases that
// trouble comparison: nulls, small ints and floats that collide with them,
// NaN, ±Inf, values around 2^53 (where float64 stops representing every
// integer) and strings.
func randCell(rng *rand.Rand) Value {
	const p53 = 1 << 53
	switch rng.Intn(9) {
	case 0:
		return Null()
	case 1, 2:
		return Int(int64(rng.Intn(3)))
	case 3:
		return Float(float64(rng.Intn(5)) / 2)
	case 4:
		return Float(math.NaN())
	case 5:
		return Float(math.Inf(2*rng.Intn(2) - 1))
	case 6:
		return Int(p53 + int64(rng.Intn(3)) - 1)
	case 7:
		return Float(p53 + float64(2*rng.Intn(2)))
	default:
		return Str(string(rune('a' + rng.Intn(2))))
	}
}

// randMixedRelation builds a relation whose cells come from randCell.
func randMixedRelation(rng *rand.Rand, attrs List, rows int) *Relation {
	r := MustRelation(attrs)
	for i := 0; i < rows; i++ {
		vals := make([]Value, len(attrs))
		for j := range vals {
			vals[j] = randCell(rng)
		}
		if err := r.AddRow(vals...); err != nil {
			panic(err)
		}
	}
	return r
}

// TestValueCompareTotalPreorder pins the two comparison faults a rank
// encoding cannot survive — NaN equal to every number, and Int/Float
// comparison rounding through float64 — and checks antisymmetry and
// transitivity on random edge-case triples.
func TestValueCompareTotalPreorder(t *testing.T) {
	const p53 = 1 << 53
	nan := Float(math.NaN())
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{nan, nan, 0},
		{nan, Int(math.MinInt64), -1},
		{nan, Float(math.Inf(-1)), -1},
		{Null(), nan, -1},
		{nan, Str(""), -1},
		{Int(p53), Float(p53), 0},
		{Int(p53 + 1), Float(p53), 1},
		{Int(p53 + 1), Float(p53 + 2), -1},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(-3), Float(-2.5), -1},
		{Int(2), Float(2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		{Int(5), Float(math.Inf(1)), -1},
		{Int(5), Float(math.Inf(-1)), 1},
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Compare(tc.a); got != -tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		a, b, c := randCell(rng), randCell(rng), randCell(rng)
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare not antisymmetric on %v, %v", a, b)
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("Compare not transitive: %v <= %v <= %v but %v > %v", a, b, c, a, c)
		}
	}
}

// TestSatisfiesNaNCounterexample is the smallest disagreement the old NaN
// comparison produced: sorted by B, the adjacent pairs hide the swap
// between rows 1 and 2 that Definition 4 finds.
func TestSatisfiesNaNCounterexample(t *testing.T) {
	r := MustRelation(L("A", "B"))
	for _, row := range [][]Value{{Float(math.NaN()), Int(1)}, {Int(1), Int(0)}, {Int(0), Int(1)}} {
		if err := r.AddRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	od := NewOD(L("B"), L("A"))
	fast, _, err := r.Satisfies(od)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := r.SatisfiesNaive(od)
	if err != nil {
		t.Fatal(err)
	}
	if fast || slow {
		t.Errorf("%s: Satisfies=%v SatisfiesNaive=%v, want both false", od, fast, slow)
	}
}

// comparatorSortedIndex is the reference order SortedIndexOn must
// reproduce: a stable comparison sort by Value.Compare along x.
func comparatorSortedIndex(r *Relation, x List) []int {
	cols := make([]int, len(x))
	for i, a := range x {
		cols[i] = r.pos[a]
	}
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := r.rows[idx[a]], r.rows[idx[b]]
		for _, c := range cols {
			if cmp := ra[c].Compare(rb[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return idx
}

// TestSortedIndexOnMatchesComparatorSort checks the radix sort over rank
// codes against the stable comparator sort on random mixed-kind relations and
// on all-int relations with many ties, for empty, single, multi-column and
// repeated-attribute contexts.
func TestSortedIndexOnMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	universe := L("A", "B", "C", "D")
	for trial := 0; trial < 300; trial++ {
		r := randMixedRelation(rng, universe, rng.Intn(40))
		if trial%2 == 1 {
			r = RandRelation(rng, universe, rng.Intn(40), 3) // all-int columns, many ties
		}
		for _, x := range []List{nil, RandList(rng, universe, 1), RandList(rng, universe, 3), RandList(rng, universe, 5)} {
			got, err := r.SortedIndexOn(x)
			if err != nil {
				t.Fatal(err)
			}
			want := comparatorSortedIndex(r, x)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: SortedIndexOn(%v) = %v, comparator sort %v\n%s", trial, x, got, want, r)
			}
			p, err := r.SortPartitionOn(x)
			if err != nil {
				t.Fatal(err)
			}
			for k, tie := range p.Tie {
				c, _ := r.CompareOn(p.Index[k], p.Index[k+1], x)
				if tie != (c == 0) {
					t.Fatalf("trial %d: Tie[%d] over %v = %v, CompareOn = %d", trial, k, x, tie, c)
				}
			}
		}
	}
}

// TestSatisfiesDirectedMatchesNegatedColumns checks SatisfiesDirected on
// random integer relations against Satisfies on a copy whose descending
// columns are negated: each trial picks a direction per attribute, and
// negating a column reverses its order exactly as a descending sort does.
func TestSatisfiesDirectedMatchesNegatedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	universe := L("A", "B", "C")
	for trial := 0; trial < 500; trial++ {
		r := RandRelation(rng, universe, rng.Intn(12), 3)
		dir := make(map[Attribute]Sign)
		neg := MustRelation(universe)
		for _, a := range universe {
			dir[a] = Sign(2*rng.Intn(2) - 1)
		}
		for i := 0; i < r.Len(); i++ {
			row := make([]int64, len(universe))
			for c, a := range universe {
				row[c] = r.Row(i)[c].Int * int64(dir[a])
			}
			if err := neg.AddIntRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		dirs := func(l List) []Sign {
			out := make([]Sign, len(l))
			for i, a := range l {
				out[i] = dir[a]
			}
			return out
		}
		od := RandOD(rng, universe, 3)
		got, err := r.SatisfiesDirected(od.LHS, dirs(od.LHS), od.RHS, dirs(od.RHS))
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _ := neg.Satisfies(od); got != want {
			t.Fatalf("SatisfiesDirected(%s, %v) = %v, negated-column copy %v on\n%s", od, dir, got, want, r)
		}
	}
	r := RandRelation(rng, universe, 3, 3)
	if _, err := r.SatisfiesDirected(L("A", "B"), []Sign{Greater}, nil, nil); err == nil {
		t.Error("SatisfiesDirected accepted one direction for two attributes")
	}
}

// TestAddRowInvalidatesCodes sorts, appends a row that reorders the column
// and sorts again: the second sort must see the new row at its rank.
func TestAddRowInvalidatesCodes(t *testing.T) {
	r := mustRel(t, L("A", "B"), []int64{5, 0}, []int64{3, 1})
	if _, err := r.SortedIndexOn(L("A")); err != nil {
		t.Fatal(err)
	}
	if err := r.AddIntRow(4, 2); err != nil {
		t.Fatal(err)
	}
	got, err := r.SortedIndexOn(L("A"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 0]" {
		t.Errorf("SortedIndexOn after AddRow = %v, want [1 2 0]", got)
	}
	ok, _, err := r.Satisfies(NewOD(L("A"), L("B")))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("[A] -> [B] holds after AddRow; the appended row should make a swap")
	}
}

// TestSortCacheFreshRelationRace has many goroutines miss the cache of a
// relation nobody has sorted yet, so they race to encode the same columns.
// Run under -race; every partition must still match the comparator order.
func TestSortCacheFreshRelationRace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	universe := L("A", "B", "C", "D")
	r := randMixedRelation(rng, universe, 64)
	want := map[string]string{}
	contexts := []List{L("A"), L("B"), L("C", "A"), L("D", "B"), L("A", "B", "C", "D")}
	ref := randMixedRelation(rand.New(rand.NewSource(23)), universe, 64)
	for _, x := range contexts {
		want[x.Key()] = fmt.Sprint(comparatorSortedIndex(ref, x))
	}
	c := NewSortCache(r, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := contexts[(g+i)%len(contexts)]
				p, err := c.Get(x)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(p.Index); got != want[x.Key()] {
					t.Errorf("partition over %v = %s, want %s", x, got, want[x.Key()])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchRelation is the generated relation of the discovery benchmark:
// 4000 rows over six columns, values drawn from {0..5}, seed 7.
func benchRelation() *Relation {
	return RandRelation(rand.New(rand.NewSource(7)), L("a", "b", "c", "d", "e", "f"), 4000, 6)
}

// BenchmarkSortPartitionOn sorts the generated relation by a two-column
// context, the common case of the discovery lattice. The columns are
// encoded before the timer starts, as they are after a pipeline's first
// sort.
func BenchmarkSortPartitionOn(b *testing.B) {
	r := benchRelation()
	x := L("c", "a")
	if _, err := r.SortPartitionOn(x); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SortPartitionOn(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfiesWith scans one candidate against a cached partition of
// the generated relation. The candidate holds, so the scan runs to the end.
func BenchmarkSatisfiesWith(b *testing.B) {
	r := benchRelation()
	x := L("a", "b", "c", "d", "e", "f")
	p, err := r.SortPartitionOn(x)
	if err != nil {
		b.Fatal(err)
	}
	od := NewOD(x, L("a", "b"))
	if ok, _, _ := r.SatisfiesWith(od, p); !ok {
		b.Fatalf("%s should hold", od)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.SatisfiesWith(od, p); err != nil {
			b.Fatal(err)
		}
	}
}
