// Command perfbench is the repository's benchmark. It runs one workload
// against an in-process router + server.New stack on a loopback listener,
// checks every answer, and prints its metrics; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload prove-hot --seed 1 --seconds 30 --trace 0
//
// Workloads (the seed fixes every input and each client's op sequence):
//
//   - prove-hot: warmed, read-only /prove traffic over eight prefix-routed
//     shards of chain ODs, Zipf(1.3) shard popularity. The memo and the
//     closures answer everything, so the server, the transport and the router
//     do the work; prover and core changes should not show here.
//   - churn: one durable shard, one mutation per three /proves (on average)
//     on the chain just mutated. Every mutation empties the memo, so this is the cache-miss
//     counterpart of prove-hot, and the only workload that exercises the
//     store (WAL, fsync, compaction) and the router's apply tickets.
//   - discover: one client running closed-loop passes, each a POST /discover
//     over the warehouse date dimension (reasoning-heavy) and over a
//     generated 4000×6 relation (data-heavy). Discovery, the prover and core
//     sort/scan do the work; the server very little.
//
// With --trace 0 the run measures end-to-end metrics with nothing traced.
// With --trace 1 it instead replays a recorded op sequence of every workload
// once per layer boundary and reports the per-layer metrics of the named
// workload (see trace.go and layers.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch files go under root/.bench_build
	commit   string
}

// report is what a run produces: operation counts, the metrics of the final
// JSON line, and the human-readable lines printed before it.
type report struct {
	attempted, failed int
	metrics           map[string]metricValue
	lines             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metricValue{}
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// note records a human-readable line printed before the result.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts n failed operations and says why.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.note("FAILED (%d ops): %s", n, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "prove-hot, churn or discover")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = trace == 1
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return printReport(stdout, cfg, rep)
}

// runWorkload dispatches to the end-to-end or traced run of the workload
// inside a private scratch directory that is removed afterwards.
func runWorkload(cfg config) (*report, error) {
	scratch := filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	runners := map[string]func(config, string) (*report, error){
		"prove-hot": runHot,
		"churn":     runChurn,
		"discover":  runDiscover,
	}
	run, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want prove-hot, churn or discover)", cfg.workload)
	}
	if cfg.trace {
		return traceAll(cfg, scratch)
	}
	return run(cfg, scratch)
}

// printReport prints the environment, the human-readable lines, and the
// result object as the last line.
func printReport(w io.Writer, cfg config, rep *report) error {
	mode := "end-to-end (tracing off)"
	if cfg.trace {
		mode = "traced per-layer replay"
	}
	fmt.Fprintf(w, "perfbench workload=%s mode=%s seed=%d seconds=%g\n", cfg.workload, mode, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "env commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q flush=%q\n",
		cfg.commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), flushPolicy)
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "metric ops_failed_ratio %g ratio (%d of %d)\n", ratio, rep.failed, rep.attempted)
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// cpuModel reads the CPU model name, for the record only.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupRuns is how many set-ups each run times; setup_s is their median.
const setupRuns = 5

// timeSetups opens the workload's stack setupRuns times and returns the last
// one with the median set-up time in seconds; earlier ones are closed.
// Set-up is the time to open the stack, populate it and warm it.
func timeSetups(open func(i int) (*stack, error)) (*stack, float64, error) {
	var times []float64
	var s *stack
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = open(i); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// median of xs (not modified).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between order statistics of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the value at percentile p and warns when fewer than ten
// samples lie beyond it, the least a tail estimate needs.
func (r *report) tail(name string, xs []float64, p float64) float64 {
	beyond := float64(len(xs)) * (1 - p/100)
	if beyond < 10 {
		r.note("WARNING: %s has only %.1f samples beyond p%g (of %d); lengthen --seconds", name, beyond, p, len(xs))
	}
	return percentile(xs, p)
}

// latencyLines records the p50 and tail of one op kind in the report's
// human-readable lines, with the sample count.
func (r *report) latencyLines(kind string, xs []float64, tailP float64, unit string, scale float64) {
	p50 := percentile(xs, 50) * scale
	pt := r.tail(kind, xs, tailP) * scale
	r.note("metric %s_p50_%s %.6g %s (n=%d)", kind, unit, p50, unit, len(xs))
	r.note("metric %s_p%g_%s %.6g %s (n=%d, %.0f beyond)", kind, tailP, unit, pt, unit, len(xs), float64(len(xs))*(1-tailP/100))
}

// liveHeapMB is the heap the collector found live in a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
