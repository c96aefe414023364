package fd

import (
	"fmt"
	"math/rand"
	"testing"

	"odlib/internal/core"
)

// fixpointClosure is the textbook closure algorithm: sweep the FDs until
// none fires. It is the oracle for the counter-based Index.Closure.
func fixpointClosure(attrs core.AttrSet, fds []FD) core.AttrSet {
	closure := attrs.Clone()
	applied := make([]bool, len(fds))
	for changed := true; changed; {
		changed = false
		for i, f := range fds {
			if applied[i] || !f.LHS.SubsetOf(closure) {
				continue
			}
			applied[i] = true
			for a := range f.RHS {
				if !closure.Contains(a) {
					closure.Add(a)
					changed = true
				}
			}
		}
	}
	return closure
}

// randFDs draws n FDs over the universe with sides of up to maxLen
// attributes; empty left-hand sides are allowed.
func randFDs(rng *rand.Rand, universe core.List, n, maxLen int) []FD {
	fds := make([]FD, n)
	for i := range fds {
		fds[i] = New(core.RandList(rng, universe, maxLen), core.RandList(rng, universe, maxLen))
	}
	return fds
}

func attrUniverse(n int) core.List {
	u := make(core.List, n)
	for i := range u {
		u[i] = core.Attribute(fmt.Sprintf("a%03d", i))
	}
	return u
}

// TestClosureAgreesWithFixpoint compares Closure, and a Compiled set reused
// across several seeds, with the fixpoint oracle on random FD sets, over
// universes below, at and well past one 64-bit word, seeded with sets that
// include attributes no FD mentions. Implies must agree with the oracle's
// closure test.
func TestClosureAgreesWithFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, size := range []int{3, 8, 63, 64, 65, 150} {
		universe := attrUniverse(size)
		for trial := 0; trial < 60; trial++ {
			fds := randFDs(rng, universe[:size-1], 1+rng.Intn(2*size), 3)
			compiled := Compile(fds)
			for q := 0; q < 4; q++ {
				seed := core.RandList(rng, universe, 4).Set()
				want := fixpointClosure(seed, fds)
				if got := Closure(seed, fds); !got.Equal(want) {
					t.Fatalf("size %d trial %d: Closure(%v) = %v, fixpoint %v under %s", size, trial, seed, got, want, String(fds))
				}
				if got := compiled.Closure(seed); !got.Equal(want) {
					t.Fatalf("size %d trial %d: Compiled.Closure(%v) = %v, fixpoint %v under %s", size, trial, seed, got, want, String(fds))
				}
				f := FD{LHS: seed, RHS: core.RandList(rng, universe, 3).Set()}
				if got, want := compiled.Implies(f), f.RHS.SubsetOf(want); got != want || Implies(fds, f) != want {
					t.Fatalf("size %d trial %d: Implies(%v) = %v, fixpoint %v under %s", size, trial, f, got, want, String(fds))
				}
			}
		}
	}
}

// TestIndexClosureWide checks the dense closure directly on a chain that
// crosses word boundaries, and that IDs past the index's universe pass
// through without determining anything.
func TestIndexClosureWide(t *testing.T) {
	const n = 200
	var fds []DenseFD
	for i := int32(0); i+1 < n; i++ {
		fds = append(fds, DenseFD{LHS: []int32{i}, RHS: []int32{i + 1}})
	}
	x := NewIndex(n, fds)
	seed := NewBits(n + 5)
	seed.Set(60)
	seed.Set(n + 2)
	cl := x.Closure(seed)
	if got := cl.Count(); got != n-60+1 {
		t.Errorf("closure of {60, %d} over the chain has %d IDs, want %d", n+2, got, n-60+1)
	}
	if cl.Has(59) || !cl.Has(n-1) || !cl.Has(n+2) || cl.Has(n+1) {
		t.Errorf("closure membership wrong: 59=%v %d=%v %d=%v %d=%v",
			cl.Has(59), n-1, cl.Has(n-1), n+2, cl.Has(n+2), n+1, cl.Has(n+1))
	}
	if seed.Count() != 2 {
		t.Error("Closure modified its seed")
	}
}

// BenchmarkClosure closes a single attribute under a 144-attribute shard of
// 16 eight-link chains — the FD set a catalog shard of the serving
// benchmark carries — on the bare Index, as the prover does per question;
// on a Compiled set, as the rewriter does per prefix; and through the
// one-shot AttrSet wrapper, which compiles the set on every call.
func BenchmarkClosure(b *testing.B) {
	universe := attrUniverse(144)
	var fds []FD
	var dense []DenseFD
	for c := 0; c < 16; c++ {
		for i := 0; i < 8; i++ {
			a := int32(c*9 + i)
			fds = append(fds, New(core.List{universe[a]}, core.List{universe[a+1]}))
			dense = append(dense, DenseFD{LHS: []int32{a}, RHS: []int32{a + 1}})
		}
	}
	b.Run("index", func(b *testing.B) {
		x := NewIndex(len(universe), dense)
		seed := NewBits(len(universe))
		seed.Set(9 * 7)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.Closure(seed)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		c := Compile(fds)
		seed := core.NewAttrSet(universe[9*7])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Closure(seed)
		}
	})
	b.Run("attrset", func(b *testing.B) {
		seed := core.NewAttrSet(universe[9*7])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Closure(seed, fds)
		}
	})
}
