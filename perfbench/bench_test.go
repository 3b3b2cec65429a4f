package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"silo/internal/harness"
)

const testReference = "../BENCH_silo.json"

func openTest(t *testing.T, name string, seed int64, reference string) runner {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rn, err := w.open(runConfig{Seed: seed, Dir: t.TempDir(), Reference: reference})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rn.close)
	return rn
}

func runPass(t *testing.T, rn runner, p int, tr *tracer) passResult {
	t.Helper()
	pr, err := rn.pass(p, tr)
	if err != nil {
		t.Fatalf("pass %d: %v", p, err)
	}
	if pr.failed != 0 || len(pr.problems) != 0 {
		t.Fatalf("pass %d: %d of %d ops failed: %v", p, pr.failed, pr.ops, pr.problems)
	}
	if len(pr.records) != pr.ops || len(pr.lat) != pr.ops {
		t.Fatalf("pass %d: %d records and %d latencies for %d ops", p, len(pr.records), len(pr.lat), pr.ops)
	}
	return pr
}

// An op's output depends only on (seed, index): not on which passes ran
// before it in the process, so pooled state never leaks between ops.
func TestOpsArePureFunctionOfSeedAndIndex(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cold := runPass(t, openTest(t, name, 7, testReference), 1, nil)
			warm := openTest(t, name, 7, testReference)
			first := runPass(t, warm, 0, nil)
			again := runPass(t, warm, 1, nil)
			if bad := diffRecords(cold.records, again.records); bad != 0 {
				t.Fatalf("pass 1 differs in %d ops between a fresh runner and one that ran pass 0", bad)
			}
			if name == "crash-fleet" {
				// Passes walk disjoint campaign ranges; op i is campaign i.
				for j, enc := range again.records {
					var rec harness.Record
					if err := json.Unmarshal(enc, &rec); err != nil {
						t.Fatal(err)
					}
					i := crashFleetPassOps + j
					c := harness.MakeCampaign(crashFleetConfig(7), i)
					if rec.Index != i || rec.Seed != c.Spec.Seed || rec.Plan != c.Plan.String() {
						t.Fatalf("op %d ran campaign %d (seed %d, plan %q), want seed %d plan %q",
							i, rec.Index, rec.Seed, rec.Plan, c.Spec.Seed, c.Plan.String())
					}
				}
				other := runPass(t, openTest(t, name, 8, testReference), 1, nil)
				if diffRecords(other.records, again.records) == 0 {
					t.Fatal("seed 8 ran the same campaigns as seed 7")
				}
				return
			}
			// The grids repeat: op j of every pass is the same cell or point.
			if bad := diffRecords(first.records, again.records); bad != 0 {
				t.Fatalf("%d ops differ between pass 0 and pass 1", bad)
			}
		})
	}
}

// A reference row that no longer matches is one failed op, reported,
// not an error that stops the run.
func TestPerturbedReferenceRowIsAFailedOp(t *testing.T) {
	f, err := readBenchFile(testReference)
	if err != nil {
		t.Fatal(err)
	}
	f.Rows[3].MediaWrites++
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_silo.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	pr, err := openTest(t, "paper-grid", f.Seed, path).pass(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.ops != len(f.Rows) || pr.failed != 1 || len(pr.problems) != 1 {
		t.Fatalf("got %d of %d ops failed (%v), want exactly the perturbed row", pr.failed, pr.ops, pr.problems)
	}
}

// The traced executors re-compose the program's public calls; their
// records must be byte-identical to the untraced executors', and their
// spans must nest inside each op.
func TestTracedMatchesUntraced(t *testing.T) {
	want := map[string][]string{
		"paper-grid":   {"harness.build_frac", "sim.run_frac", "machine.release_frac"},
		"crash-fleet":  {"harness.build_frac", "sim.run_frac", "machine.crash_frac", "recovery.recover_frac", "harness.verify_frac", "recovery.recheck_frac", "resultstore.write_frac"},
		"explore-grid": {"harness.build_frac", "sim.run_frac", "machine.release_frac", "resultstore.encode_frac"},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rn := openTest(t, name, 42, testReference)
			plain := runPass(t, rn, 0, nil)
			tr := newTracer()
			traced := runPass(t, rn, 0, tr)
			if bad := diffRecords(plain.records, traced.records); bad != 0 {
				t.Fatalf("%d traced records differ from untraced", bad)
			}
			if problems := tr.check(traced.sec.wall); len(problems) > 0 {
				t.Fatal(problems)
			}
			m := tr.layerMetrics(traced.sec.wall, traced.ops)
			for _, k := range want[name] {
				if m[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m[k].Value)
				}
			}
			if self := m["harness.self_frac"].Value; self < 0 || self > 1 {
				t.Errorf("harness.self_frac = %v, want within [0, 1]", self)
			}
			path := filepath.Join(t.TempDir(), "spans.csv")
			if err := tr.writeCSV(path); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rows, err := csv.NewReader(f).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(tr.spans)+1 || strings.Join(rows[0], ",") != "op,kind,parent,start_ns,end_ns" {
				t.Fatalf("spans CSV has %d rows (header %v), want a header and %d spans", len(rows), rows[0], len(tr.spans))
			}
			for _, r := range rows[1:] {
				start, err1 := strconv.ParseInt(r[3], 10, 64)
				end, err2 := strconv.ParseInt(r[4], 10, 64)
				if err1 != nil || err2 != nil || end < start || r[1] == "" {
					t.Fatalf("bad span row %v", r)
				}
			}
		})
	}
}

// The quiet passes are the fastest tenth, widened to three passes and
// minQuietOps ops, and their rate is pooled over them.
func TestQuietPasses(t *testing.T) {
	pass := func(ops int, ms int) passTiming {
		return passTiming{ops: ops, wall: time.Duration(ms) * time.Millisecond,
			lat: make([]time.Duration, ops)}
	}
	// 40 passes of 360 ops: the fastest tenth is four passes, which
	// already hold more than minQuietOps ops.
	var grid []passTiming
	for i := 0; i < 40; i++ {
		grid = append(grid, pass(360, 300+10*i))
	}
	rate, lat, n := quiet(grid)
	if n != 4 || len(lat) != 4*360 {
		t.Fatalf("grid: %d quiet passes, %d latencies; want 4, 1440", n, len(lat))
	}
	if want := 4 * 360 / (float64(300+310+320+330) / 60000); rate != want {
		t.Fatalf("grid: rate %v, want %v", rate, want)
	}
	// 40 passes of 35 ops: widened to nine passes for 315 ops.
	var cells []passTiming
	for i := 0; i < 40; i++ {
		cells = append(cells, pass(35, 500+i))
	}
	if _, lat, n := quiet(cells); n != 9 || len(lat) != 315 {
		t.Fatalf("cells: %d quiet passes, %d latencies; want 9, 315", n, len(lat))
	}
	// A short run keeps every pass it has.
	if _, _, n := quiet(grid[:2]); n != 2 {
		t.Fatalf("two passes: %d quiet, want 2", n)
	}
}

// A run reports exactly the metrics BENCHMARK.json declares: the
// end-to-end set untraced, the per-layer set traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("explore-grid")
	for _, traced := range []bool{false, true} {
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
		}
		res, err := measure(w, runConfig{Seed: 42, Dir: t.TempDir(), Reference: testReference}, time.Nanosecond, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || len(res.problems) != 0 {
			t.Fatalf("traced=%v: %d failed: %v", traced, res.failed, res.problems)
		}
		var got, want []string
		for name, m := range res.metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("traced=%v: reported %v\nBENCHMARK.json declares %v", traced, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("traced=%v: reported %q, BENCHMARK.json declares %q", traced, got[i], want[i])
			}
		}
	}
}
