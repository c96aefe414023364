package prover

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkDecide answers a fixed sample of discovery-lattice questions over
// the warehouse date dimension with no verdict cache: every op is one full
// decide — interning, split test, search and widening.
func BenchmarkDecide(b *testing.B) {
	m, questions := warehouseODs(), warehouseQuestions(rand.New(rand.NewSource(7)), 256)
	p := New(m)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecideCtx(ctx, questions[i%len(questions)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNew builds a prover over a 144-attribute chain shard, the setup
// a catalog pays on every refresh.
func BenchmarkNew(b *testing.B) {
	m := chainSet(rand.New(rand.NewSource(7)), "chain144", 16, 0).m
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(m)
	}
}
