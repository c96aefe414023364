package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/internal/store"
)

// The traced run replays a recorded op sequence of every workload once per
// layer boundary, each replay from the same start state, timing each call
// into the layer's public functions as one span. A layer's self time is the
// time at its boundary minus the time at the next boundary down for the
// same op. Every replay runs traceRounds times; the difference between
// rounds is the run-to-run spread a negative self time is judged against.
// Each per-layer metric of BENCHMARK.json is reported as measured on the
// requested workload, or, where that workload does not reach the layer, on
// the first workload layers.json says the metric moves.
const (
	traceRounds         = 2
	hotTraceOps         = 2000
	churnTraceOps       = 400
	discoverTracePasses = 3
	counterSeconds      = 2.0 // churn's concurrent counter pass
	scanSamples         = 12  // SatisfiesWith checks timed per context
)

//go:embed layers.json
var layersJSON []byte

// benchMetric is a metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// layerMetric is a per-layer metric of BENCHMARK.json with the
// [end-to-end metric, workload] pairs layers.json says it moves.
type layerMetric struct {
	benchMetric
	moves [][]string
}

// layerMetrics reads the per-layer metrics from the checkout's
// BENCHMARK.json and their moves from layers.json; each file must name the
// same metrics.
func layerMetrics(root string) ([]layerMetric, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var doc struct {
		Moves map[string][][]string `json:"moves"`
	}
	if err := json.Unmarshal(layersJSON, &doc); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	if len(doc.Moves) != len(spec.PerLayer) {
		return nil, fmt.Errorf("layers.json maps %d per-layer metrics, BENCHMARK.json declares %d", len(doc.Moves), len(spec.PerLayer))
	}
	out := make([]layerMetric, len(spec.PerLayer))
	for i, m := range spec.PerLayer {
		moves, ok := doc.Moves[m.Name]
		if !ok {
			return nil, fmt.Errorf("layers.json does not map per-layer metric %s", m.Name)
		}
		for _, mv := range moves {
			if len(mv) != 2 {
				return nil, fmt.Errorf("layers.json: %s moves %v, want [end-to-end metric, workload]", m.Name, mv)
			}
		}
		out[i] = layerMetric{m, moves}
	}
	return out, nil
}

// span is one timed call into a layer.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// pass is one replay at one boundary: each op's time in µs (NaN where the op
// does not reach the boundary) and the mallocs per reached op.
type pass struct {
	us     []float64
	allocs float64
}

// run times each non-nil call as a span of layer; the calls are built
// beforehand so the allocation count covers the layer alone. Spans are
// appended outside the timed region, so a throwaway tracer's run is the
// untraced base of trace.overhead_ratio.
func (t *tracer) run(layer string, calls []func() error) (pass, error) {
	p := pass{us: make([]float64, len(calls))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reached := 0
	for i, call := range calls {
		if call == nil {
			p.us[i] = math.NaN()
			continue
		}
		start := time.Now()
		err := call()
		end := time.Now()
		t.spans = append(t.spans, span{t.workload, i, layer, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
		if err != nil {
			return p, fmt.Errorf("%s, op %d: %w", layer, i, err)
		}
		p.us[i] = float64(end.Sub(start).Nanoseconds()) / 1e3
		reached++
	}
	runtime.ReadMemStats(&m1)
	p.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(reached, 1))
	return p, nil
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// reached returns the ops whose time is known in every given pass.
func reached(n int, ps ...pass) []int {
	var out []int
	for i := 0; i < n; i++ {
		ok := true
		for _, p := range ps {
			ok = ok && !math.IsNaN(p.us[i])
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// selfTime is the median over ops of upper minus the sum of the lower
// boundaries' times for the same op.
func selfTime(ops []int, upper pass, lower ...pass) float64 {
	var d []float64
	for _, i := range ops {
		v := upper.us[i]
		for _, p := range lower {
			v -= p.us[i]
		}
		d = append(d, v)
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// medianOf is the median time over ops at one boundary.
func medianOf(ops []int, p pass) float64 {
	var xs []float64
	for _, i := range ops {
		xs = append(xs, p.us[i])
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// layerValues collects per-layer values across rounds. self marks self-time
// metrics, which the negative check covers.
type layerValues struct {
	rounds []float64
	self   bool
}

type layerSet map[string]*layerValues

// add records one round's value of a metric.
func (s layerSet) add(name string, v float64, self bool) {
	lv := s[name]
	if lv == nil {
		lv = &layerValues{self: self}
		s[name] = lv
	}
	lv.rounds = append(lv.rounds, v)
}

func (lv *layerValues) mean() float64 {
	sum := 0.0
	for _, v := range lv.rounds {
		sum += v
	}
	return sum / float64(len(lv.rounds))
}

// traced is one workload's traced replay: its per-layer values, its tracing
// overhead and the report of its checked answers.
type traced struct {
	ls       layerSet
	overhead float64
	r        *report
}

// traceAll runs every workload's traced replay, then reports the per-layer
// metrics for the requested workload.
func traceAll(cfg config, scratch string) (*report, error) {
	t := newTracer()
	runs := map[string]*traced{}
	r := &report{}
	for _, w := range []struct {
		name string
		fn   func(config, string, *tracer) (*traced, error)
	}{{"prove-hot", traceHot}, {"churn", traceChurn}, {"discover", traceDiscover}} {
		t.workload = w.name
		tr, err := w.fn(cfg, scratch, t)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w.name, err)
		}
		runs[w.name] = tr
		r.attempted += tr.r.attempted
		r.failed += tr.r.failed
		for _, l := range tr.r.lines {
			r.note("[%s] %s", w.name, l)
		}
	}
	if err := emitLayers(r, cfg.root, cfg.workload, runs); err != nil {
		return nil, err
	}
	path, err := t.write(filepath.Join(cfg.root, ".bench_build", "traces"), cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.note("spans: %d written to %s", len(t.spans), path)
	return r, nil
}

// emitLayers sets every per-layer metric of BENCHMARK.json in the report —
// the mean over rounds, taken from the requested workload's replay or, for a
// layer it does not reach, from the first workload the metric moves — and
// flags self times negative by more than the spread between rounds.
func emitLayers(r *report, root, own string, runs map[string]*traced) error {
	ms, err := layerMetrics(root)
	if err != nil {
		return err
	}
	negative := 0
	for w, tr := range runs {
		for name, lv := range tr.ls {
			if !lv.self {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range lv.rounds {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if mean := lv.mean(); mean < 0 && -mean > hi-lo {
				negative++
				r.note("WARNING: %s on %s: self time %.3g is negative beyond its spread between rounds (%.3g)", name, w, mean, hi-lo)
			}
		}
	}
	var borrowed []string
	for _, m := range ms {
		var v float64
		switch m.Name {
		case "trace.overhead_ratio":
			v = runs[own].overhead
		case "trace.negative_layers":
			v = float64(negative)
		default:
			lv := runs[own].ls[m.Name]
			for _, mv := range m.moves {
				if lv != nil {
					break
				}
				from := runs[mv[1]]
				if from == nil {
					return fmt.Errorf("per-layer metric %s moves %v: unknown workload", m.Name, mv)
				}
				if lv = from.ls[m.Name]; lv != nil {
					borrowed = append(borrowed, m.Name+"@"+mv[1])
				}
			}
			if lv == nil {
				return fmt.Errorf("per-layer metric %s: no workload measured it", m.Name)
			}
			v = lv.mean()
		}
		r.set(m.Name, v, m.Unit)
	}
	if len(borrowed) > 0 {
		r.note("layers %s does not reach, reported from the workload they move: %s", own, strings.Join(borrowed, " "))
	}
	return nil
}

// serveCall builds a request for the handler and returns the call that
// serves it into a recorder, failing on a non-2xx status.
func serveCall(h http.Handler, method, path string, body []byte) func() error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	return func() error {
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: %w %d: %s", method, path, errStatus, rec.Code, rec.Body.String())
		}
		return nil
	}
}

// memoStats sums the memo counters over every shard.
func memoStats(s *stack) catalog.MemoStats {
	var sum catalog.MemoStats
	for _, st := range s.rt.Stats() {
		sum.Hits += st.Catalog.Memo.Hits
		sum.Misses += st.Catalog.Memo.Misses
	}
	return sum
}

// memoHitRatio is memo hits over memo lookups between two readings.
func memoHitRatio(a, b catalog.MemoStats) float64 {
	hits, lookups := b.Hits-a.Hits, b.Hits+b.Misses-a.Hits-a.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// proverPasses times a standalone prover on each search-tier op: prover.New
// over the declared set at that op, then DecideCtx, each its own boundary
// so their allocations are counted apart. It records the prover metrics.
func proverPasses(t *tracer, ls layerSet, n int, search func(i int) (decl []core.OD, od core.OD, ok bool)) error {
	provers := make([]*prover.Prover, n)
	var counters prover.Counters
	setups := make([]func() error, n)
	for i := 0; i < n; i++ {
		decl, _, ok := search(i)
		if !ok {
			continue
		}
		setups[i] = func() error {
			provers[i] = prover.New(decl, prover.WithCounters(&counters))
			return nil
		}
	}
	ps, err := t.run("prover.New", setups)
	if err != nil {
		return err
	}
	decides := make([]func() error, n)
	for i := 0; i < n; i++ {
		_, od, ok := search(i)
		if !ok {
			continue
		}
		decides[i] = func() error {
			_, err := provers[i].DecideCtx(context.Background(), od)
			return err
		}
	}
	pd, err := t.run("prover.DecideCtx", decides)
	if err != nil {
		return err
	}
	ops := reached(n, ps, pd)
	if len(ops) == 0 {
		return nil
	}
	c := counters.Snapshot()
	ls.add("prover.setup_us", medianOf(ops, ps), false)
	ls.add("prover.search_us", medianOf(ops, pd), false)
	ls.add("prover.nodes_per_search", float64(c.Nodes)/float64(len(ops)), false)
	ls.add("prover.widenings_per_search", float64(c.Widenings)/float64(len(ops)), false)
	ls.add("prover.allocs_per_search", pd.allocs, false)
	return nil
}

// starvedRatio is starved acquisitions over all acquisitions between two
// pool readings.
func starvedRatio(a, b prover.PoolStats) float64 {
	starved, got := b.Starved-a.Starved, b.Acquired-a.Acquired
	if starved+got == 0 {
		return 0
	}
	return float64(starved) / float64(starved+got)
}

// tierShares records each tier's share of the ops the catalog pass answered.
func tierShares(ls layerSet, tiers []string) {
	counts := map[string]int{}
	for _, t := range tiers {
		counts[t]++
	}
	for _, t := range []string{catalog.TierTrivial, catalog.TierClosure, catalog.TierNegative, catalog.TierMemo, catalog.TierSearch} {
		ls.add("catalog.tier_share."+t, float64(counts[t])/float64(len(tiers)), false)
	}
}

// proveCalls builds the four prove boundaries of one op list on stack s:
// loopback HTTP, ServeHTTP, router.ProveOne and the shard catalog's
// ProveEachCtx, whose tier lands in tiers[i]. ops[i] is nil for ops that
// are not proves.
func proveCalls(s *stack, ops []*question, log proveLog, tiers []string) (httpC, serveC, routerC, catC []func() error, err error) {
	n := len(ops)
	httpC, serveC, routerC, catC = make([]func() error, n), make([]func() error, n), make([]func() error, n), make([]func() error, n)
	ctx := context.Background()
	for i, q := range ops {
		if q == nil {
			continue
		}
		ods, perr := core.ParseStatement(q.key)
		if perr != nil {
			return nil, nil, nil, nil, perr
		}
		cat, cerr := s.rt.Catalog(q.shard)
		if cerr != nil {
			return nil, nil, nil, nil, cerr
		}
		httpC[i] = func() error {
			rep, err := s.prove(*q)
			if err == nil && log != nil {
				log.add(*q, rep)
			}
			return err
		}
		serveC[i] = serveCall(s.handler, http.MethodPost, "/prove", q.body)
		routerC[i] = func() error {
			_, _, _, err := s.rt.ProveOne(ctx, "", ods)
			return err
		}
		catC[i] = func() error {
			res, _ := cat.ProveEachCtx(ctx, [][]core.OD{ods})
			tiers[i] = res[0].Tier
			return res[0].Err
		}
	}
	return httpC, serveC, routerC, catC, nil
}

// overheadRatio is the median over ops of the traced loopback time over the
// untraced one for the same op.
func overheadRatio(ops []int, traced, base pass) float64 {
	var xs []float64
	for _, i := range ops {
		if !math.IsNaN(base.us[i]) {
			xs = append(xs, traced.us[i]/base.us[i])
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func traceHot(cfg config, _ string, t *tracer) (*traced, error) {
	in := genHot(cfg.seed)
	s, gens, err := openHot(in, 1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	stream := newHotStream(in, cfg.seed, 0)
	ops := make([]*question, hotTraceOps)
	for i := range ops {
		q := stream.next()
		ops[i] = &q
	}
	ls := layerSet{}
	log := proveLog{}
	tiers := make([]string, len(ops))
	var overhead float64
	for round := 0; round < traceRounds; round++ {
		httpC, serveC, routerC, catC, err := proveCalls(s, ops, log, tiers)
		if err != nil {
			return nil, err
		}
		base, err := newTracer().run("http", httpC)
		if err != nil {
			return nil, err
		}
		ph, err := t.run("http", httpC)
		if err != nil {
			return nil, err
		}
		ps, err := t.run("server.ServeHTTP", serveC)
		if err != nil {
			return nil, err
		}
		pr, err := t.run("router.ProveOne", routerC)
		if err != nil {
			return nil, err
		}
		m0 := memoStats(s)
		pc, err := t.run("catalog.ProveEachCtx", catC)
		if err != nil {
			return nil, err
		}
		memoHit := memoHitRatio(m0, memoStats(s))
		all := reached(len(ops), ph, ps, pr, pc)
		overhead += overheadRatio(all, ph, base) / traceRounds
		ls.add("server.transport_us", selfTime(all, ph, ps), true)
		ls.add("server.self_us", selfTime(all, ps, pr), true)
		ls.add("server.allocs_per_op", ps.allocs-pr.allocs, false)
		ls.add("router.self_us", selfTime(all, pr, pc), true)
		var fast []int
		for _, i := range all {
			if tiers[i] != catalog.TierSearch {
				fast = append(fast, i)
			}
		}
		ls.add("catalog.self_us", medianOf(fast, pc), false)
		ls.add("catalog.allocs_per_op", pc.allocs, false)
		ls.add("catalog.memo_hit_ratio", memoHit, false)
		tierShares(ls, tiers)
	}
	decl := map[string][]core.OD{}
	for i, sh := range in.shards {
		decl[sh] = in.declared[i]
	}
	if err := proverPasses(t, ls, len(ops), func(i int) ([]core.OD, core.OD, bool) {
		return decl[ops[i].shard], ops[i].od, tiers[i] == catalog.TierSearch
	}); err != nil {
		return nil, err
	}
	r := &report{attempted: log.ops()}
	checkHot(r, in, gens, log)
	return &traced{ls, overhead, r}, nil
}

func (l proveLog) ops() int {
	n := 0
	for _, o := range l {
		n += o.n
	}
	return n
}

func traceChurn(cfg config, scratch string, t *tracer) (*traced, error) {
	in := genChurn(cfg.seed)
	stream := newChurnStream(in, cfg.seed, 0, 1)
	ops := make([]churnOp, churnTraceOps)
	for i := range ops {
		ops[i] = stream.next()
	}
	n := len(ops)
	// declAt[i] is the declared set op i sees, from replaying the sequence.
	declAt := make([][]core.OD, n)
	m := newChurnModel(in, 0)
	for i, op := range ops {
		if op.mutate {
			m.toggle(op.link, op.remove)
		}
		declAt[i] = m.final()
	}
	bodies := mutationBodies(in)
	payload := 0
	for _, op := range ops {
		if op.mutate {
			payload += len(in.od(op.link).String())
		}
	}
	fresh := 0
	open := func(probe *storeProbe) (*stack, error) {
		fresh++
		return openChurn(in, filepath.Join(scratch, fmt.Sprintf("trace-%d", fresh)), 1, probe)
	}

	ls := layerSet{}
	r := &report{}
	tiers := make([]string, n)
	var overhead float64
	for round := 0; round < traceRounds; round++ {
		// Each boundary replays from a freshly opened, identically populated
		// stack; passes[b] is boundary b's replay.
		var passes [4]pass
		var snapshots uint64
		var snapBytes int64
		var base pass
		var memoHit float64
		replay := func(b int) (err error) {
			s, err := open(nil)
			if err != nil {
				return err
			}
			defer func() {
				if cerr := s.close(); err == nil {
					err = cerr
				}
			}()
			g0, err := s.rt.GenerationOf(churnShard)
			if err != nil {
				return err
			}
			cat, err := s.rt.Catalog(churnShard)
			if err != nil {
				return err
			}
			log := newOpLog()
			qs := make([]*question, n)
			for i := range ops {
				if !ops[i].mutate {
					qs[i] = &ops[i].q
				}
			}
			httpC, serveC, routerC, catC, err := proveCalls(s, qs, log.proves, tiers)
			if err != nil {
				return err
			}
			for i, op := range ops {
				if !op.mutate {
					continue
				}
				od := in.od(op.link)
				httpC[i] = func() error {
					rep, err := s.mutate(op.remove, bodies[op.link])
					if err == nil {
						log.muts = append(log.muts, mutObs{link: op.link, remove: op.remove, rep: rep})
					}
					return err
				}
				method := http.MethodPost
				if op.remove {
					method = http.MethodDelete
				}
				serveC[i] = serveCall(s.handler, method, "/ods", bodies[op.link])
				routerC[i] = func() error {
					var err error
					if op.remove {
						_, err = s.rt.Remove("", []core.OD{od})
					} else {
						_, err = s.rt.Declare("", []core.OD{od})
					}
					return err
				}
				catC[i] = func() error {
					_, _, _, _, _ = cat.ApplyEffective([]catalog.Mutation{{Remove: op.remove, ODs: []core.OD{od}}})
					return nil
				}
			}
			before := s.rt.Stats()[churnShard].Store
			switch b {
			case -1:
				base, err = newTracer().run("http", httpC)
			case 0:
				passes[b], err = t.run("http", httpC)
			case 1:
				passes[b], err = t.run("server.ServeHTTP", serveC)
			case 2:
				passes[b], err = t.run("router", routerC)
				snapshots = s.rt.Stats()[churnShard].Store.Snapshots - before.Snapshots
				if fi, serr := os.Stat(filepath.Join(s.dataDir, churnShard, "snapshot.json")); serr == nil {
					snapBytes = fi.Size()
				}
			case 3:
				m0 := memoStats(s)
				passes[b], err = t.run("catalog", catC)
				memoHit = memoHitRatio(m0, memoStats(s))
			}
			if err != nil {
				return err
			}
			if b <= 0 {
				r.attempted += log.ops()
				verifyChurn(r, in, g0, log)
			}
			return nil
		}
		for b := -1; b < 4; b++ {
			if err := replay(b); err != nil {
				return nil, err
			}
		}
		ph, ps, pr, pc := passes[0], passes[1], passes[2], passes[3]
		pst, walBytes, fsyncUs, err := storePass(t, in, ops, filepath.Join(scratch, fmt.Sprintf("store-%d", round)))
		if err != nil {
			return nil, err
		}
		var proves, muts []int
		for _, i := range reached(n, ph, ps, pr, pc) {
			if ops[i].mutate {
				muts = append(muts, i)
			} else {
				proves = append(proves, i)
			}
		}
		overhead += overheadRatio(proves, ph, base) / traceRounds
		ls.add("server.transport_us", selfTime(proves, ph, ps), true)
		ls.add("server.self_us", selfTime(proves, ps, pr), true)
		ls.add("router.self_us", selfTime(proves, pr, pc), true)
		var fast []int
		for _, i := range proves {
			if tiers[i] != catalog.TierSearch {
				fast = append(fast, i)
			}
		}
		ls.add("catalog.self_us", medianOf(fast, pc), false)
		ls.add("catalog.memo_hit_ratio", memoHit, false)
		ls.add("catalog.apply_us", medianOf(muts, pc), false)
		ls.add("router.mutate_self_us", selfTime(reached(n, pr, pst, pc), pr, pst, pc), true)
		ls.add("store.commit_us", medianOf(muts, pst), false)
		ls.add("store.fsync_us", fsyncUs, false)
		ls.add("store.snapshots", float64(snapshots), false)
		ls.add("store.write_amp", (float64(walBytes)+float64(snapshots)*float64(snapBytes))/float64(payload), false)
		var proveTiers []string
		for _, i := range proves {
			proveTiers = append(proveTiers, tiers[i])
		}
		tierShares(ls, proveTiers)
	}
	if err := proverPasses(t, ls, n, func(i int) ([]core.OD, core.OD, bool) {
		return declAt[i], ops[i].q.od, !ops[i].mutate && tiers[i] == catalog.TierSearch
	}); err != nil {
		return nil, err
	}

	// Counter pass: the end-to-end client mix, untimed, for the counters
	// that need concurrency — group commits and pool starvation.
	probe := &storeProbe{}
	s, err := open(probe)
	if err != nil {
		return nil, err
	}
	defer s.close()
	g0, err := s.rt.GenerationOf(churnShard)
	if err != nil {
		return nil, err
	}
	p0 := s.pool.Stats()
	c0, r0 := probe.commits.Load(), probe.records.Load()
	log, _ := churnLoop(s, in, cfg.seed, clientCount(), counterSeconds)
	commits, records := probe.commits.Load()-c0, probe.records.Load()-r0
	ls.add("store.records_per_commit", float64(records)/float64(max(commits, 1)), false)
	ls.add("prover.pool_starved_ratio", starvedRatio(p0, s.pool.Stats()), false)
	r.attempted += log.ops()
	r.fail(log.errs, "counter pass transport or status errors, first: %s", log.errMsg)
	verifyChurn(r, in, g0, log)
	if err := s.close(); err != nil {
		return nil, err
	}
	return &traced{ls, overhead, r}, nil
}

// storePass replays the mutations against a standalone store: Open, then
// per mutation AppendBatch + Wait. It returns the pass, the WAL bytes the
// mutations appended and the mean fsync time in µs.
func storePass(t *tracer, in *churnInputs, ops []churnOp, dir string) (pass, int64, float64, error) {
	probe := &storeProbe{}
	st, _, _, err := store.Open(dir, store.Options{
		Fsync: true, SegmentRecords: segmentRecords, Telemetry: probe.hooks(nil),
	})
	if err != nil {
		return pass{}, 0, 0, err
	}
	calls := make([]func() error, len(ops))
	for i, op := range ops {
		if !op.mutate {
			continue
		}
		od := []core.OD{in.od(op.link)}
		var declares, removes []core.OD
		if op.remove {
			removes = od
		} else {
			declares = od
		}
		calls[i] = func() error {
			p, _, err := st.AppendBatch(declares, removes)
			if err != nil {
				return err
			}
			return p.Wait()
		}
	}
	before := st.Stats().WALBytes
	p, err := t.run("store.AppendBatch+Wait", calls)
	wal := st.Stats().WALBytes - before
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	fsync := 0.0
	if n := probe.fsyncs.Load(); n > 0 {
		fsync = float64(probe.fsyncNs.Load()) / float64(n) / 1e3
	}
	return p, wal, fsync, err
}

func traceDiscover(cfg config, _ string, t *tracer) (*traced, error) {
	jobs, err := genDiscover(cfg.seed)
	if err != nil {
		return nil, err
	}
	s, ref, err := openDiscover(jobs, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ls := layerSet{}
	r := &report{}
	n := discoverTracePasses * len(jobs)
	job := func(i int) int { return i % len(jobs) }
	p0 := s.pool.Stats()
	var overhead float64
	var wrong int
	for round := 0; round < traceRounds; round++ {
		httpC, serveC, pipeC := make([]func() error, n), make([]func() error, n), make([]func() error, n)
		for i := 0; i < n; i++ {
			j := jobs[job(i)]
			want := ref[job(i)]
			httpC[i] = func() error {
				rep, err := s.discover(j.body)
				if err == nil {
					r.attempted++
					if msg := sameDiscovery([]discoverReply{want}, []discoverReply{rep}); msg != "" {
						wrong++
						r.note("FAILED: %s: %s", j.name, msg)
					}
				}
				return err
			}
			serveC[i] = serveCall(s.handler, http.MethodPost, "/discover", j.body)
			pipeC[i] = func() error {
				res, err := discover.Pipeline(context.Background(), j.rel, discover.PipelineOptions{
					Options: j.opts, Workers: runtime.NumCPU(), Pool: s.pool,
				})
				if err == nil && res.Stats != *want.stats {
					err = fmt.Errorf("%s: in-process stats %+v, over HTTP %+v", j.name, res.Stats, *want.stats)
				}
				return err
			}
		}
		base, err := newTracer().run("http", httpC)
		if err != nil {
			return nil, err
		}
		ph, err := t.run("http", httpC)
		if err != nil {
			return nil, err
		}
		ps, err := t.run("server.ServeHTTP", serveC)
		if err != nil {
			return nil, err
		}
		pp, err := t.run("discover.Pipeline", pipeC)
		if err != nil {
			return nil, err
		}
		all := reached(n, ph, ps, pp)
		overhead += overheadRatio(all, ph, base) / traceRounds
		// Transport is not resolved here: a few hundred µs of it are within
		// the pass-to-pass spread of a ~200 ms pipeline. Self time of the
		// server on one pass: both requests' ServeHTTP time
		// minus their pipelines.
		var perPass []float64
		for p := 0; p < discoverTracePasses; p++ {
			sum := 0.0
			for k := range jobs {
				i := p*len(jobs) + k
				sum += ps.us[i] - pp.us[i]
			}
			perPass = append(perPass, sum/1e3)
		}
		ls.add("server.discover_decode_ms", median(perPass), true)
		for k, j := range jobs {
			var own []int
			for _, i := range all {
				if job(i) == k {
					own = append(own, i)
				}
			}
			st := ref[k].stats
			pre := "discover." + j.name + "."
			ls.add(pre+"pipeline_ms", medianOf(own, pp)/1e3, false)
			ls.add(pre+"candidates", float64(st.Candidates), false)
			ls.add(pre+"closure_pruned", float64(st.ClosurePruned), false)
			ls.add(pre+"refutation_pruned", float64(st.RefutationPruned), false)
			ls.add(pre+"data_checks", float64(st.DataChecks), false)
			ls.add(pre+"rows_scanned", float64(st.RowsScanned), false)
			ls.add(pre+"context_hit_ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)), false)
			ls.add(pre+"accepted", float64(st.Accepted), false)
			sortUs, scanUs, err := corePasses(t, j, cfg.seed)
			if err != nil {
				return nil, err
			}
			ls.add("core."+j.name+".sort_us", sortUs, false)
			ls.add("core."+j.name+".scan_us", scanUs, false)
			ls.add("core."+j.name+".self_ms", (sortUs*float64(st.CacheMisses)+scanUs*float64(st.DataChecks))/1e3, false)
		}
	}
	ls.add("prover.pool_starved_ratio", starvedRatio(p0, s.pool.Stats()), false)
	r.fail(wrong, "discovery replies differ from the warm pass")
	if !checkDiscovery(r, jobs, ref) {
		r.fail(r.attempted-wrong, "every pass repeated the wrong warm pass")
	}

	// The pipeline's implication questions go to its own internal catalog,
	// out of reach from here, so the prover's search metrics come from
	// churn; the shared pool's starvation above is discovery's own.
	return &traced{ls, overhead, r}, nil
}

// corePasses times core's sort and scan on one relation: SortPartitionOn
// for every left-hand context the pipeline can enumerate, and SatisfiesWith
// for a seeded sample of right-hand sides per context. It returns the
// median µs of each.
func corePasses(t *tracer, j *relationJob, seed int64) (sortUs, scanUs float64, err error) {
	attrs := j.rel.Attrs()
	lists := func(maxLen int) []core.List {
		var out []core.List
		var grow func(cur core.List)
		grow = func(cur core.List) {
			if len(cur) > 0 {
				out = append(out, cur.Clone())
			}
			if len(cur) == maxLen {
				return
			}
			for _, a := range attrs {
				if !cur.Contains(a) {
					grow(append(cur, a))
				}
			}
		}
		grow(nil)
		return out
	}
	contexts := lists(j.opts.MaxLHS)
	rhs := lists(j.opts.MaxRHS)
	parts := make([]*core.SortedPartition, len(contexts))
	sorts := make([]func() error, len(contexts))
	for i, x := range contexts {
		sorts[i] = func() error {
			var err error
			parts[i], err = j.rel.SortPartitionOn(x)
			return err
		}
	}
	ps, err := t.run("core.SortPartitionOn."+j.name, sorts)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	var scans []func() error
	for i, x := range contexts {
		for k := 0; k < scanSamples; k++ {
			y := rhs[rng.Intn(len(rhs))]
			od := core.NewOD(x, y)
			if od.Trivial() {
				continue
			}
			p := parts[i]
			scans = append(scans, func() error {
				_, _, err := j.rel.SatisfiesWith(od, p)
				return err
			})
		}
	}
	pc, err := t.run("core.SatisfiesWith."+j.name, scans)
	if err != nil {
		return 0, 0, err
	}
	return median(ps.us), median(pc.us), nil
}
