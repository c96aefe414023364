package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/router"
)

// Each run is cut into windows; the gated metrics are medians over them, so
// a few seconds of interference from outside the program move one window,
// not the result. At a 30 s run on a 2-core machine a 3 s window holds over
// a thousand proves or mutations, while a whole run holds about 150
// discovery passes, so discover is one window. The printed per-op-kind
// tails are the highest percentile leaving at least ten samples beyond it
// (p99 of proves and mutations, p90 of passes); the gated latency_tail_us
// of prove-hot and churn is p95, whose run-to-run spread on a shared
// 2-core machine is under half of p99's.
const (
	proveWindows    = 10
	proveTailP      = 95.0
	printedTailP    = 99.0
	discoverWindows = 1
	discoverTailP   = 90.0
)

// clientCount is the closed-loop concurrency: one client per CPU, at most
// two, since optimizer callers each wait for their reply.
func clientCount() int { return min(2, runtime.NumCPU()) }

// loop is when a closed loop started and how long it ran in seconds.
type loop struct {
	start   time.Time
	elapsed float64
}

// closedLoop runs one goroutine per client, each calling step back to back
// until the deadline.
func closedLoop(clients int, seconds float64, step func(client int)) loop {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(c)
			}
		}(c)
	}
	wg.Wait()
	return loop{start, time.Since(start).Seconds()}
}

// epoch anchors op end times, which samples keep as offsets so their
// slices hold no pointers for the collector to scan.
var epoch = time.Now()

// sample is one completed op: its latency in µs and when it ended.
type sample struct {
	us  float64
	end time.Duration // since epoch
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.us
	}
	return out
}

// windowed cuts the loop into n equal windows by op end time (ops ending
// after the deadline count in the last one) and returns the median over
// windows of stat.
func (lp loop) windowed(ss []sample, n int, stat func([]sample) float64) float64 {
	w := lp.elapsed / float64(n)
	byWin := make([][]sample, n)
	for _, s := range ss {
		i := min(int((s.end-lp.start.Sub(epoch)).Seconds()/w), n-1)
		byWin[i] = append(byWin[i], s)
	}
	vals := make([]float64, 0, n)
	for _, win := range byWin {
		if len(win) > 1 {
			vals = append(vals, stat(win))
		}
	}
	return median(vals)
}

// rate is ops completed per second between a window's first and last
// completion, which does not step with the op count as window edges do.
func rate(ss []sample) float64 {
	first, last := ss[0].end, ss[0].end
	for _, s := range ss {
		first, last = min(first, s.end), max(last, s.end)
	}
	return float64(len(ss)-1) / (last - first).Seconds()
}

func pctOf(p float64) func([]sample) float64 {
	return func(ss []sample) float64 { return percentile(latencies(ss), p) }
}

// opLog is one client's record: latencies in µs per op kind, transport or
// status failures, and the deduplicated answers for checking afterwards.
type opLog struct {
	lat    map[string][]sample
	errs   int
	errMsg string
	proves proveLog
	muts   []mutObs
}

func newOpLog() *opLog {
	return &opLog{lat: map[string][]sample{}, proves: proveLog{}}
}

func (l *opLog) record(kind string, t0 time.Time, err error) bool {
	end := time.Now()
	l.lat[kind] = append(l.lat[kind], sample{float64(end.Sub(t0).Nanoseconds()) / 1e3, end.Sub(epoch)})
	if err != nil {
		if l.errs == 0 {
			l.errMsg = err.Error()
		}
		l.errs++
		return false
	}
	return true
}

// mergeLogs folds the clients' logs into one.
func mergeLogs(logs []*opLog) *opLog {
	out := newOpLog()
	for _, l := range logs {
		for k, xs := range l.lat {
			out.lat[k] = append(out.lat[k], xs...)
		}
		if out.errs == 0 {
			out.errMsg = l.errMsg
		}
		out.errs += l.errs
		out.proves.merge(l.proves)
		out.muts = append(out.muts, l.muts...)
	}
	return out
}

func (l *opLog) ops() int {
	n := 0
	for _, xs := range l.lat {
		n += len(xs)
	}
	return n
}

// finish sets the end-to-end metrics every workload reports and counts
// transport failures. lat is the latency population of latency_p50_us and
// latency_tail_us; each gated metric is a median over windows.
func (r *report) finish(l *opLog, setup float64, lp loop, windows int, lat []sample, tailP float64) {
	r.attempted = l.ops()
	r.fail(l.errs, "transport or status errors, first: %s", l.errMsg)
	var all []sample
	for _, ss := range l.lat {
		all = append(all, ss...)
	}
	r.set("setup_s", setup, "s")
	r.set("throughput_ops_s", lp.windowed(all, windows, rate), "1/s")
	r.set("latency_p50_us", lp.windowed(lat, windows, pctOf(50)), "us")
	r.set("latency_tail_us", lp.windowed(lat, windows, pctOf(tailP)), "us")
	r.note("gated metrics are medians over %d windows of %.1f s; latency_tail_us is p%g of %d samples, about %.0f per window",
		windows, lp.elapsed/float64(windows), tailP, len(lat), float64(len(lat))/float64(windows))
}

// openWarm opens a stack, declares decl in one batch and asks every
// question once, so the memo and the negative closure are warm.
func openWarm(dataDir string, clients int, probe *storeProbe, decl []core.OD, qs [][]question) (*stack, error) {
	s, err := openStack(dataDir, clients, probe)
	if err != nil {
		return nil, err
	}
	var all []question
	for _, q := range qs {
		all = append(all, q...)
	}
	if err = s.declareAll(decl); err == nil {
		err = s.proveAll(all)
	}
	if err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// openHot opens the warmed prove-hot stack and reads each shard's
// generation, which every answer must name.
func openHot(in *hotInputs, clients int) (*stack, map[string]uint64, error) {
	var decl []core.OD
	for _, d := range in.declared {
		decl = append(decl, d...)
	}
	s, err := openWarm("", clients, nil, decl, in.pool)
	if err != nil {
		return nil, nil, err
	}
	gens := map[string]uint64{}
	for _, sh := range in.shards {
		if gens[sh], err = s.rt.GenerationOf(sh); err != nil {
			_ = s.close()
			return nil, nil, err
		}
	}
	return s, gens, nil
}

// checkHot checks prove-hot answers: the declared set never changes, so each
// answer must name its shard's set-up generation.
func checkHot(r *report, in *hotInputs, gens map[string]uint64, l proveLog) {
	o := newOracle()
	for i, sh := range in.shards {
		o.addState(sh, in.declared[i])
	}
	checkProves(r, l, func(q question, gen uint64) (string, bool) {
		return q.shard, gen == gens[q.shard]
	}, o)
}

func runHot(cfg config, _ string) (*report, error) {
	in := genHot(cfg.seed)
	clients := clientCount()
	var gens map[string]uint64
	s, setup, err := timeSetups(func(int) (*stack, error) {
		st, g, err := openHot(in, clients)
		gens = g
		return st, err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	logs := make([]*opLog, clients)
	streams := make([]*hotStream, clients)
	for c := range logs {
		logs[c], streams[c] = newOpLog(), newHotStream(in, cfg.seed, c)
	}
	lp := closedLoop(clients, cfg.seconds, func(c int) {
		q := streams[c].next()
		t0 := time.Now()
		rep, err := s.prove(q)
		if logs[c].record("prove", t0, err) {
			logs[c].proves.add(q, rep)
		}
	})
	l := mergeLogs(logs)
	r := &report{}
	r.finish(l, setup, lp, proveWindows, l.lat["prove"], proveTailP)
	r.latencyLines("prove", latencies(l.lat["prove"]), printedTailP, "us", 1)
	r.note("clients=%d shards=%d declared=%d questions=%d", clients, len(in.shards), len(in.shards)*hotChains*hotChainLen, l.proves.distinct())

	checkHot(r, in, gens, l.proves)
	r.set("live_heap_mb", liveHeapMB(), "MB")
	return r, nil
}

// openChurn opens the durable churn stack in dir and warms it.
func openChurn(in *churnInputs, dir string, clients int, probe *storeProbe) (*stack, error) {
	return openWarm(dir, clients, probe, in.declared(), in.pool)
}

// mutationBodies encodes every link's /ods body once.
func mutationBodies(in *churnInputs) map[linkID][]byte {
	out := map[linkID][]byte{}
	for c, links := range in.links {
		for p, od := range links {
			out[linkID{c, p}] = mutationBody(od)
		}
	}
	return out
}

func runChurn(cfg config, scratch string) (*report, error) {
	in := genChurn(cfg.seed)
	clients := clientCount()
	var dir string
	s, setup, err := timeSetups(func(i int) (*stack, error) {
		dir = filepath.Join(scratch, fmt.Sprintf("churn-%d", i))
		return openChurn(in, dir, clients, nil)
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	g0, err := s.rt.GenerationOf(churnShard)
	if err != nil {
		return nil, err
	}
	before := s.rt.Stats()[churnShard].Store

	l, lp := churnLoop(s, in, cfg.seed, clients, cfg.seconds)
	after := s.rt.Stats()[churnShard].Store
	var all []sample
	for _, ss := range l.lat {
		all = append(all, ss...)
	}
	r := &report{}
	r.finish(l, setup, lp, proveWindows, all, proveTailP)
	r.latencyLines("prove", latencies(l.lat["prove"]), printedTailP, "us", 1)
	r.latencyLines("mutate", latencies(l.lat["mutate"]), printedTailP, "us", 1)
	r.note("clients=%d declared=%d flush=%q group_commits=%d snapshots=%d segments_removed=%d",
		clients, len(in.declared()), flushPolicy, after.CommitBatches-before.CommitBatches,
		after.Snapshots-before.Snapshots, after.SegmentsRemoved-before.SegmentsRemoved)

	final := verifyChurn(r, in, g0, l).final()
	r.set("live_heap_mb", liveHeapMB(), "MB")

	// Durability: the reopened shard must hold exactly the acknowledged state.
	if err := s.close(); err != nil {
		return nil, err
	}
	rt, err := router.Open(s.opts)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", dir, err)
	}
	listing, err := rt.Listing(churnShard)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	missing, extra := diffODs(final, listing.Declared)
	r.fail(len(missing)+len(extra), "after reopen: %d acknowledged ODs missing %v, %d extra %v",
		len(missing), missing, len(extra), extra)
	r.note("durability: reopened %d declared ODs, model %d, flush=%q", len(listing.Declared), len(final), flushPolicy)
	return r, nil
}

// churnLoop drives the churn closed loop and returns the merged log.
func churnLoop(s *stack, in *churnInputs, seed int64, clients int, seconds float64) (*opLog, loop) {
	bodies := mutationBodies(in)
	logs := make([]*opLog, clients)
	streams := make([]*churnStream, clients)
	for c := range logs {
		logs[c], streams[c] = newOpLog(), newChurnStream(in, seed, c, clients)
	}
	lp := closedLoop(clients, seconds, func(c int) {
		op := streams[c].next()
		t0 := time.Now()
		if op.mutate {
			rep, err := s.mutate(op.remove, bodies[op.link])
			if logs[c].record("mutate", t0, err) {
				logs[c].muts = append(logs[c].muts, mutObs{link: op.link, remove: op.remove, rep: rep})
			}
			return
		}
		rep, err := s.prove(op.q)
		if logs[c].record("prove", t0, err) {
			logs[c].proves.add(op.q, rep)
		}
	})
	return mergeLogs(logs), lp
}

// diffODs lists the ODs of want absent from got, and of got absent from want.
func diffODs(want, got []core.OD) (missing, extra []string) {
	w, g := map[string]bool{}, map[string]bool{}
	for _, od := range want {
		w[od.String()] = true
	}
	for _, od := range got {
		g[od.String()] = true
	}
	for k := range w {
		if !g[k] {
			missing = append(missing, k)
		}
	}
	for k := range g {
		if !w[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return missing, extra
}

// openDiscover opens the discovery stack and runs one warm pass, whose
// replies every later pass must repeat exactly.
func openDiscover(jobs []*relationJob, probe *storeProbe) (*stack, []discoverReply, error) {
	s, err := openStack("", 1, probe)
	if err != nil {
		return nil, nil, err
	}
	var ref []discoverReply
	for _, j := range jobs {
		rep, err := s.discover(j.body)
		if err != nil {
			_ = s.close()
			return nil, nil, err
		}
		ref = append(ref, rep)
	}
	return s, ref, nil
}

func runDiscover(cfg config, _ string) (*report, error) {
	jobs, err := genDiscover(cfg.seed)
	if err != nil {
		return nil, err
	}
	var ref []discoverReply
	s, setup, err := timeSetups(func(int) (*stack, error) {
		st, rf, err := openDiscover(jobs, nil)
		ref = rf
		return st, err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	l := newOpLog()
	var wrong int
	var wrongMsg string
	lp := closedLoop(1, cfg.seconds, func(int) {
		t0 := time.Now()
		var reps []discoverReply
		var err error
		for _, j := range jobs {
			var rep discoverReply
			if rep, err = s.discover(j.body); err != nil {
				break
			}
			reps = append(reps, rep)
		}
		if l.record("discover", t0, err) {
			if msg := sameDiscovery(ref, reps); msg != "" {
				wrong++
				wrongMsg = msg
			}
		}
	})
	passes := l.lat["discover"]
	r := &report{}
	r.finish(l, setup, lp, discoverWindows, passes, discoverTailP)
	r.latencyLines("discover", latencies(passes), discoverTailP, "ms", 1e-3)
	r.fail(wrong, "discovery pass differs from the warm pass: %s", wrongMsg)
	if !checkDiscovery(r, jobs, ref) {
		r.fail(r.attempted-wrong, "every pass repeated the wrong warm pass")
	}
	r.set("live_heap_mb", liveHeapMB(), "MB")
	return r, nil
}

// sameDiscovery compares a pass with the reference pass: identical accepted
// ODs and identical pipeline counters.
func sameDiscovery(ref, got []discoverReply) string {
	for i := range ref {
		if *got[i].stats != *ref[i].stats {
			return fmt.Sprintf("relation %d stats %+v, warm pass %+v", i, *got[i].stats, *ref[i].stats)
		}
		if fmt.Sprint(got[i].ods) != fmt.Sprint(ref[i].ods) {
			return fmt.Sprintf("relation %d accepted %d ODs, warm pass %d", i, len(got[i].ods), len(ref[i].ods))
		}
	}
	return ""
}

// checkDiscovery checks the reference pass against the data and against an
// in-process discover.Pipeline run: every accepted OD must hold on its
// relation, and the accepted set and counters must match exactly.
func checkDiscovery(r *report, jobs []*relationJob, ref []discoverReply) bool {
	ok := true
	for i, j := range jobs {
		direct, err := discover.Pipeline(context.Background(), j.rel,
			discover.PipelineOptions{Options: j.opts, Workers: runtime.NumCPU()})
		if err != nil {
			r.note("FAILED: in-process pipeline on %s: %v", j.name, err)
			ok = false
			continue
		}
		if direct.Stats != *ref[i].stats {
			r.note("FAILED: %s stats over HTTP %+v, in process %+v", j.name, *ref[i].stats, direct.Stats)
			ok = false
		}
		want := make([]string, len(direct.ODs))
		for k, od := range direct.ODs {
			want[k] = od.String()
		}
		sort.Strings(want)
		got := append([]string(nil), ref[i].ods...)
		sort.Strings(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			r.note("FAILED: %s accepted sets differ: HTTP %d ODs, in process %d", j.name, len(got), len(want))
			ok = false
		}
		for _, txt := range ref[i].ods {
			od, err := core.ParseOD(txt)
			if err == nil {
				var holds bool
				holds, _, err = j.rel.Satisfies(od)
				if err == nil && !holds {
					err = fmt.Errorf("does not hold")
				}
			}
			if err != nil {
				r.note("FAILED: %s accepted %s: %v", j.name, txt, err)
				ok = false
			}
		}
		st := ref[i].stats
		r.note("%s: %d×%d, lhs<=%d rhs<=%d, %d candidates, %d data checks, %d rows scanned, %d accepted",
			j.name, j.rel.Len(), len(j.rel.Attrs()), j.opts.MaxLHS, j.opts.MaxRHS,
			st.Candidates, st.DataChecks, st.RowsScanned, st.Accepted)
	}
	return ok
}
