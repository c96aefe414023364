package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odlib/internal/lint"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// TestSmoke runs every workload once, end-to-end and traced, with a short
// measuring time, and checks the result line: every metric BENCHMARK.json
// declares for the mode is emitted with its unit, end-to-end values are
// positive, and no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// The run's checkout root: the traced run reads BENCHMARK.json there.
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				err := run([]string{"--workload", w.Name, "--seed", "1", "--seconds", "0.3",
					"--trace", trace, "--root", root}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d, want a clean run:\n%s",
						res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case got.Unit != unit:
						t.Errorf("metric %s in %q, want %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", name, got.Value)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			})
		}
	}
}

// TestLintClean runs the repository's analyzers over this module, as the
// odlint gate does over the main module.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped with -short")
	}
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range lint.Run(pkgs, lint.DefaultAnalyzers()) {
		t.Errorf("%s", d)
	}
}
