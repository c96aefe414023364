package prover

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odlib/internal/core"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/decide_pinned.golden from the current prover")

// pinnedSet is one prescribed OD set with the questions asked of it.
type pinnedSet struct {
	name      string
	m         []core.OD
	questions []core.OD
	maxAttrs  int
}

// warehouseODs is the declared constraint set of the warehouse date
// dimension, the schema the discovery workload mines.
func warehouseODs() []core.OD {
	ods, err := core.ParseStatements(`[d_date_sk] <-> [d_date];
		[d_date] <-> [d_year, d_moy, d_dom];
		[d_date] -> [d_week_seq];
		[d_moy] -> [d_qoy];
		[d_date_sk] -> [d_year, d_moy]`)
	if err != nil {
		panic(err)
	}
	return ods
}

// warehouseQuestions samples n discovery-lattice candidates X ↦ Y over the
// date dimension (|X| ≤ 2, |Y| ≤ 3, no list repeating an attribute), the
// shape of question the discovery pipeline's pruning catalog asks.
func warehouseQuestions(rng *rand.Rand, n int) []core.OD {
	attrs := core.L("d_date_sk", "d_date", "d_year", "d_qoy", "d_moy", "d_dom", "d_week_seq")
	list := func(maxLen, minLen int) core.List {
		perm := rng.Perm(len(attrs))
		k := minLen + rng.Intn(maxLen-minLen+1)
		out := make(core.List, k)
		for i := range out {
			out[i] = attrs[perm[i]]
		}
		return out
	}
	var out []core.OD
	for len(out) < n {
		od := core.NewOD(list(2, 0), list(3, 1))
		if !od.Trivial() {
			out = append(out, od)
		}
	}
	return out
}

// chainSet builds the shard shape of the serving benchmarks: chains of
// [c<k>_<i>] ↦ [c<k>_<i+1>] links, 9 attributes per chain, plus a few
// cross-chain links so widening has to follow them. Questions are spans,
// reversals, compound lists with a free attribute, and two-chain lists.
func chainSet(rng *rand.Rand, name string, chains, perChain int) pinnedSet {
	const links = 8
	a := func(c, i int) core.Attribute { return core.Attribute(fmt.Sprintf("c%d_%d", c, i)) }
	var m []core.OD
	for c := 0; c < chains; c++ {
		for i := 0; i < links; i++ {
			m = append(m, core.NewOD(core.List{a(c, i)}, core.List{a(c, i+1)}))
		}
	}
	for c := 0; c+1 < chains; c += 3 {
		m = append(m, core.NewOD(core.List{a(c, links)}, core.List{a(c+1, 0)}))
	}
	var qs []core.OD
	for c := 0; c < chains; c++ {
		for k := 0; k < perChain; k++ {
			i := rng.Intn(links)
			j := i + 1 + rng.Intn(links-i)
			kk := rng.Intn(links + 1)
			f := core.Attribute(fmt.Sprintf("f%d", rng.Intn(3)))
			d := (c + 1 + rng.Intn(chains-1)) % chains
			switch k % 6 {
			case 0:
				qs = append(qs, core.NewOD(core.List{a(c, i)}, core.List{a(c, j)}))
			case 1:
				qs = append(qs, core.NewOD(core.List{a(c, j)}, core.List{a(c, i)}))
			case 2:
				qs = append(qs, core.NewOD(core.List{a(c, i), f}, core.List{a(c, j), a(c, kk)}))
			case 3:
				qs = append(qs, core.NewOD(core.List{f, a(c, i)}, core.List{a(c, j)}))
			case 4:
				qs = append(qs, core.NewOD(core.List{a(c, i), a(d, i)}, core.List{a(d, j), a(c, j)}))
			default:
				qs = append(qs, core.NewOD(core.List{a(c, j)}, core.List{a(c, i), a(c, kk)}))
			}
		}
	}
	// One question needing more attributes than the guard allows.
	qs = append(qs, core.NewOD(core.List{a(0, 0), a(1, 0)}, core.List{a(0, links), a(1, links)}))
	// A guard of 12 keeps questions that cascade across chains from
	// searching 3^13 patterns before they trip it.
	return pinnedSet{name: name, m: m, questions: qs, maxAttrs: 12}
}

// randomSets builds small random OD sets, mixing in attributes M never
// mentions and lists with repeats or empty sides.
func randomSets(rng *rand.Rand, n int) []pinnedSet {
	names := core.L("a", "b", "c", "d", "e", "f", "g", "h")
	var out []pinnedSet
	for s := 0; s < n; s++ {
		u := names[:3+rng.Intn(6)]
		var m []core.OD
		for j := 0; j < 1+rng.Intn(7); j++ {
			m = append(m, core.RandOD(rng, u[:len(u)-1], 3))
		}
		var qs []core.OD
		for j := 0; j < 6; j++ {
			qs = append(qs, core.RandOD(rng, u, 3))
		}
		out = append(out, pinnedSet{name: fmt.Sprintf("random%d", s), m: m, questions: qs, maxAttrs: DefaultMaxAttrs})
	}
	return out
}

// pinnedCorpus is the seeded corpus TestDecidePinned replays.
func pinnedCorpus() []pinnedSet {
	rng := rand.New(rand.NewSource(20120611))
	sets := randomSets(rng, 60)
	sets = append(sets,
		pinnedSet{name: "warehouse", m: warehouseODs(), questions: warehouseQuestions(rng, 150), maxAttrs: DefaultMaxAttrs},
		chainSet(rng, "chain72", 8, 6),
		chainSet(rng, "chain144", 16, 4),
	)
	return sets
}

// pinnedLines decides every question of the corpus with one sequential
// prover per set and renders, per question: the verdict, Cost, the
// counter deltas (nodes, widenings, searches) and the witness or error.
func pinnedLines() []string {
	var out []string
	for _, set := range pinnedCorpus() {
		var ctrs Counters
		p := New(set.m, WithCounters(&ctrs), WithMaxAttrs(set.maxAttrs))
		for i, q := range set.questions {
			before := ctrs.Snapshot()
			v, err := p.DecideCtx(context.Background(), q)
			after := ctrs.Snapshot()
			result := ""
			switch {
			case err != nil:
				result = "error " + err.Error()
			case v.Implied:
				result = "implied"
			default:
				result = "refuted " + v.Witness.String()
			}
			out = append(out, fmt.Sprintf("%s/%d %s | cost=%d nodes=%d widenings=%d searches=%d | %s",
				set.name, i, q, v.Cost,
				after.Nodes-before.Nodes, after.Widenings-before.Widenings, after.Searches-before.Searches,
				result))
		}
	}
	return out
}

// TestDecidePinned replays a seeded corpus of implication questions —
// random small sets, the warehouse date dimension, and 72- and
// 144-attribute chain shards — and checks every verdict, witness, Cost and
// counter delta against the recorded golden file. The counters are
// scheduler-independent (the prover runs sequentially), so any difference
// means decide changed behaviour, not just speed. Regenerate with
// -update-pinned only for an intended behaviour change.
func TestDecidePinned(t *testing.T) {
	path := filepath.Join("testdata", "decide_pinned.golden")
	got := pinnedLines()
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d questions, golden file %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("question %d:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d questions differ", bad, len(got))
	}
}
