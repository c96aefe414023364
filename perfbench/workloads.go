package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/warehouse"
)

// Workload sizes. prove-hot's question pool (~3k statements) fits the
// catalog's 64k-entry memo and 16k-entry negative closure, so a warmed run
// never searches; churn's shard is small enough that a standalone prover per
// generation keeps answer checking cheap.
const (
	hotShards      = 8
	hotChains      = 16 // chains per shard
	hotChainLen    = 8  // links per chain: 16×8×8 = 1024 declared ODs
	hotZipfS       = 1.3
	hotPerChain    = 8 // spans, reversals and compound questions sampled per chain, each
	churnChains    = 8
	churnChainLen  = 8
	churnPerChain  = 60 // questions per churn chain
	provesPerWrite = 3
	genRows        = 4000
	genDomain      = 6
)

// question is one /prove statement with the shard it must route to.
type question struct {
	shard string
	od    core.OD
	key   string // od.String()
	body  []byte // the request body, encoded once so clients only send bytes
}

func newQuestion(shard string, od core.OD) question {
	body, _ := json.Marshal(map[string]string{"statement": od.String()})
	return question{shard: shard, od: od, key: od.String(), body: body}
}

// chainAttr names attribute i of chain c in shard s. The part before the
// first underscore is the shard: the router derives it by prefix.
func chainAttr(shard string, c, i int) core.Attribute {
	return core.Attribute(fmt.Sprintf("%s_c%d_%d", shard, c, i))
}

// chainLinks returns the declared ODs [a_i] -> [a_i+1] of one chain.
func chainLinks(shard string, c, n int) []core.OD {
	links := make([]core.OD, n)
	for i := range links {
		links[i] = core.NewOD(core.List{chainAttr(shard, c, i)}, core.List{chainAttr(shard, c, i+1)})
	}
	return links
}

// chainQuestions samples perKind questions of each kind about chain c (n
// links, so n+1 attributes): spans [a_i] -> [a_j] (closure tier), reversed
// spans (refuted; negative closure once warmed), and compound lists —
// [a_i] -> [a_j, a_k], [a_i, f] -> [a_j], [f, a_i] -> [a_j] and
// [a_j] -> [a_i, a_k], with f an attribute no declared OD mentions — which
// only the search decides, after which the memo answers. No question
// entangles more than one chain, so every search stays within the prover's
// attribute limit.
func chainQuestions(rng *rand.Rand, shard string, c, n, perKind int) []question {
	a := func(i int) core.Attribute { return chainAttr(shard, c, i) }
	pair := func() (int, int) {
		i := rng.Intn(n)
		return i, i + 1 + rng.Intn(n-i)
	}
	var qs []question
	for k := 0; k < perKind; k++ {
		i, j := pair()
		qs = append(qs,
			newQuestion(shard, core.NewOD(core.List{a(i)}, core.List{a(j)})),
			newQuestion(shard, core.NewOD(core.List{a(j)}, core.List{a(i)})))
		kk := rng.Intn(n + 1)
		for kk == i || kk == j {
			kk = rng.Intn(n + 1)
		}
		b := core.Attribute(fmt.Sprintf("%s_f%d", shard, rng.Intn(4)))
		var od core.OD
		switch rng.Intn(4) {
		case 0:
			od = core.NewOD(core.List{a(i)}, core.List{a(j), a(kk)})
		case 1:
			od = core.NewOD(core.List{a(i), b}, core.List{a(j)})
		case 2:
			od = core.NewOD(core.List{b, a(i)}, core.List{a(j)})
		default:
			od = core.NewOD(core.List{a(j)}, core.List{a(i), a(kk)})
		}
		qs = append(qs, newQuestion(shard, od))
	}
	return qs
}

// hotInputs is the prove-hot workload: eight prefix-routed shards of chain
// ODs and a question pool per shard.
type hotInputs struct {
	shards   []string
	declared [][]core.OD  // per shard
	pool     [][]question // per shard
	rank     []int        // rank[z] is the shard index of Zipf rank z
}

func genHot(seed int64) *hotInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &hotInputs{rank: rng.Perm(hotShards)}
	for s := 0; s < hotShards; s++ {
		name := fmt.Sprintf("s%d", s)
		in.shards = append(in.shards, name)
		var decl []core.OD
		var pool []question
		for c := 0; c < hotChains; c++ {
			decl = append(decl, chainLinks(name, c, hotChainLen)...)
			pool = append(pool, chainQuestions(rng, name, c, hotChainLen, hotPerChain)...)
		}
		in.declared = append(in.declared, decl)
		in.pool = append(in.pool, pool)
	}
	return in
}

// hotStream draws one client's question sequence: a Zipf(s=1.3) shard, then
// a uniform question of that shard.
type hotStream struct {
	in   *hotInputs
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newHotStream(in *hotInputs, seed int64, client int) *hotStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	return &hotStream{in: in, rng: rng, zipf: rand.NewZipf(rng, hotZipfS, 1, hotShards-1)}
}

func (h *hotStream) next() question {
	s := h.in.rank[h.zipf.Uint64()]
	p := h.in.pool[s]
	return p[h.rng.Intn(len(p))]
}

// churnInputs is the churn workload: one durable shard of chains whose links
// the clients cut and restore, with questions per chain.
type churnInputs struct {
	links [][]core.OD  // per chain
	pool  [][]question // per chain
}

const churnShard = "churn"

func genChurn(seed int64) *churnInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{}
	for c := 0; c < churnChains; c++ {
		in.links = append(in.links, chainLinks(churnShard, c, churnChainLen))
		in.pool = append(in.pool, chainQuestions(rng, churnShard, c, churnChainLen, churnPerChain/3))
	}
	return in
}

func (in *churnInputs) declared() []core.OD {
	var out []core.OD
	for _, l := range in.links {
		out = append(out, l...)
	}
	return out
}

// churnOp is one step of a churn client: a mutation (restore or cut a link
// of one of the client's own chains) or a prove on the chain last mutated.
type churnOp struct {
	mutate bool
	remove bool
	link   linkID
	q      question
}

type linkID struct{ chain, pos int }

// churnStream is one client's op sequence. Each client owns the chains c
// with c % clients == client, so two clients never toggle the same link and
// every mutation is effective: the declared set is the start set minus at
// most one cut link per client. After each mutation come 1 to
// 2·provesPerWrite−1 proves (provesPerWrite on average) on the mutated
// chain, whose memo entries the mutation just invalidated. The varying
// count keeps the clients' mutations from falling into a fixed phase with
// each other: every mutation empties the whole shard's memo, so a fixed
// phase would fix how many of the other client's proves must search.
type churnStream struct {
	in     *churnInputs
	rng    *rand.Rand
	chains []int
	cut    *linkID
	chain  int
	proves int // proves left before the next mutation
}

func newChurnStream(in *churnInputs, seed int64, client, clients int) *churnStream {
	s := &churnStream{in: in, rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1))}
	for c := client; c < churnChains; c += clients {
		s.chains = append(s.chains, c)
	}
	return s
}

func (s *churnStream) next() churnOp {
	if s.proves > 0 {
		s.proves--
		p := s.in.pool[s.chain]
		return churnOp{q: p[s.rng.Intn(len(p))]}
	}
	s.proves = 1 + s.rng.Intn(2*provesPerWrite-1)
	if s.cut != nil {
		l := *s.cut
		s.cut = nil
		s.chain = l.chain
		return churnOp{mutate: true, link: l}
	}
	l := linkID{chain: s.chains[s.rng.Intn(len(s.chains))], pos: s.rng.Intn(churnChainLen)}
	s.cut = &l
	s.chain = l.chain
	return churnOp{mutate: true, remove: true, link: l}
}

func (in *churnInputs) od(l linkID) core.OD { return in.links[l.chain][l.pos] }

// relationJob is one relation a discovery pass mines, with its bounds.
type relationJob struct {
	name string
	rel  *core.Relation
	opts discover.Options
	body []byte
}

// genDiscover builds the two relations of one discovery pass: the
// reasoning-heavy warehouse date dimension (fixed calendar) and the
// data-heavy generated relation (drawn from the seed).
func genDiscover(seed int64) ([]*relationJob, error) {
	cfg := warehouse.DefaultConfig()
	cfg.Days = 365
	cfg.FactRows = 0
	w, err := warehouse.Generate(cfg)
	if err != nil {
		return nil, err
	}
	wh, err := w.DateDimRelation()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	gen := core.RandRelation(rng, core.L("a", "b", "c", "d", "e", "f"), genRows, genDomain)
	jobs := []*relationJob{
		{name: "warehouse", rel: wh, opts: discover.Options{MaxLHS: 2, MaxRHS: 3}},
		{name: "generated", rel: gen, opts: discover.Options{MaxLHS: 2, MaxRHS: 2}},
	}
	for _, j := range jobs {
		if j.body, err = discoverBody(j); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// discoverBody encodes a relation as a POST /discover request.
func discoverBody(j *relationJob) ([]byte, error) {
	attrs := make([]string, len(j.rel.Attrs()))
	for i, a := range j.rel.Attrs() {
		attrs[i] = string(a)
	}
	rows := make([][]any, j.rel.Len())
	for i := range rows {
		row := j.rel.Row(i)
		cells := make([]any, len(row))
		for k, v := range row {
			switch v.Kind {
			case core.KindInt:
				cells[k] = v.Int
			case core.KindFloat:
				cells[k] = v.F
			case core.KindString:
				cells[k] = v.Str
			default:
				return nil, fmt.Errorf("relation %s: unsupported cell kind %d", j.name, v.Kind)
			}
		}
		rows[i] = cells
	}
	return json.Marshal(map[string]any{
		"attrs": attrs, "rows": rows, "maxLHS": j.opts.MaxLHS, "maxRHS": j.opts.MaxRHS,
	})
}
