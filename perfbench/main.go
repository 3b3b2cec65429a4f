// Command perfbench is the repository's host-time benchmark. It drives
// one of three closed-loop workloads (paper-grid, crash-fleet,
// explore-grid) with one client and one worker, checks every op's
// output, and prints one JSON result line. With -trace 1 it instead
// interleaves untraced and traced passes over the same op ranges and
// reports the per-layer split. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median, so one slow first page-in does not decide it.
const setupRepeats = 5

// Timings are read from a run's quiet passes: the fastest 1/quietShare
// of them by ops per minute, widened to at least minQuietPasses passes
// and minQuietOps ops.
const (
	quietShare     = 10
	minQuietPasses = 3
	minQuietOps    = 300
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 42, "input seed (42 is BENCH_silo.json's seed)")
	seconds := fs.Int("seconds", 50, "timed seconds per run (BENCHMARK.json's run_seconds)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {%s}, -seconds >= 1, -trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if _, err := os.Stat(referencePath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	err := os.MkdirAll(".bench_build", 0o755)
	dir := ""
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{Seed: *seed, Dir: dir, Reference: referencePath}
	res, err := measure(w, cfg, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	prov := provenance(w, cfg, *seconds, *traceFlag, res)
	if res.tracer != nil {
		// Spans stay in memory while the run measures; write them out now.
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.csv", w.Name, cfg.Seed))
		if err := res.tracer.writeCSV(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
		prov["spans_csv"] = path
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	out := map[string]any{
		"correct":   res.failed == 0 && len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	for i, p := range res.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: ... and %d more failed checks\n", w.Name, len(res.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.Name, p)
	}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	attempted, failed int
	problems          []string // run-level check failures
	metrics           map[string]metric

	passes  int
	quiet   int // passes the timings are read from
	samples int // per-op latency samples behind p50 and p90
	timed   time.Duration
	digest  string // sha-256 of the first timed pass's records
	tracer  *tracer
}

// section measures one timed region: wall time plus the runtime's
// allocation and GC-CPU counters, read only at its boundaries.
type section struct {
	wall            time.Duration
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
	heapInuse       uint64
}

func (s *section) add(o section) {
	s.wall += o.wall
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.gcCPU += o.gcCPU
	s.totalCPU += o.totalCPU
	s.heapInuse = max(s.heapInuse, o.heapInuse)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// timed runs fn as one measured section. The stop-the-world MemStats
// reads sit outside the clock.
func timed(fn func()) section {
	var m0, m1 runtime.MemStats
	c0 := make([]metrics.Sample, len(cpuSamples))
	c1 := make([]metrics.Sample, len(cpuSamples))
	copy(c0, cpuSamples)
	copy(c1, cpuSamples)
	runtime.ReadMemStats(&m0)
	metrics.Read(c0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	metrics.Read(c1)
	runtime.ReadMemStats(&m1)
	return section{
		wall:      wall,
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		gcCPU:     c1[0].Value.Float64() - c0[0].Value.Float64(),
		totalCPU:  c1[1].Value.Float64() - c0[1].Value.Float64(),
		heapInuse: m1.HeapInuse,
	}
}

// measure sets the workload up setupRepeats times, then runs whole
// passes until the timed sections add up to budget. Untraced, it
// reports the end-to-end metrics. Traced, every pass runs twice over
// the same op range — untraced, then traced — the two record streams
// must match byte for byte, and it reports the per-layer metrics.
func measure(w *workload, cfg runConfig, budget time.Duration, traced bool) (*result, error) {
	var (
		rn     runner
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r, err := w.open(cfg)
		if err == nil {
			_, err = r.pass(0, nil) // warm-up: fills the recycler and cache-array pools
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rn != nil {
			rn.close()
		}
		rn = r
	}
	defer rn.close()

	res := &result{metrics: make(map[string]metric)}
	var (
		plain, trace section
		plainOps     int
		tracedOps    int
		all          []time.Duration // every untraced op's latency
		plainPasses  []passTiming
		tracedPasses []passTiming
		seals, sums  []float64
		storeBytes   int64
		tr           *tracer
	)
	if traced {
		tr = newTracer()
		res.tracer = tr
	}
	check := func(pr passResult) {
		res.attempted += pr.ops
		res.failed += pr.failed
		res.problems = append(res.problems, pr.problems...)
		if pr.seal > 0 {
			seals = append(seals, pr.seal.Seconds())
		}
		if pr.summarize > 0 {
			sums = append(sums, pr.summarize.Seconds())
		}
	}
	for p := 0; res.timed < budget; p++ {
		pr, err := rn.pass(p, nil)
		if err != nil {
			return nil, err
		}
		check(pr)
		plain.add(pr.sec)
		plainOps += pr.ops
		plainPasses = append(plainPasses, passTiming{pr.ops, pr.sec.wall, pr.lat})
		storeBytes += pr.storeBytes
		all = append(all, pr.lat...)
		res.timed += pr.sec.wall
		if p == 0 {
			res.digest = digest(pr.records)
		}
		if traced {
			tp, err := rn.pass(p, tr)
			if err != nil {
				return nil, err
			}
			check(tp)
			trace.add(tp.sec)
			tracedOps += tp.ops
			tracedPasses = append(tracedPasses, passTiming{tp.ops, tp.sec.wall, nil})
			res.timed += tp.sec.wall
			if bad := diffRecords(pr.records, tp.records); bad > 0 {
				res.failed += bad
				res.problems = append(res.problems,
					fmt.Sprintf("pass %d: %d traced records differ from the untraced run", p, bad))
			}
		}
		res.passes++
	}
	// Neighbours on a shared host slow whole stretches of a run, so the
	// timings come from its least disturbed passes (see README.md).
	opsPerMin, lat, nQuiet := quiet(plainPasses)
	res.quiet = nQuiet
	res.samples = len(lat)
	sortDurations(lat)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	if !traced {
		res.metrics["ops_per_min"] = metric{opsPerMin, "1/min"}
		res.metrics["op_p50_ms"] = metric{ms(percentile(lat, 50)), "ms"}
		res.metrics["op_p90_ms"] = metric{ms(percentile(lat, 90)), "ms"}
		res.metrics["allocs_per_op"] = metric{float64(plain.mallocs) / float64(plainOps), "count"}
		res.metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}

	for name, m := range tr.layerMetrics(trace.wall, tracedOps) {
		res.metrics[name] = m
	}
	res.problems = append(res.problems, tr.check(trace.wall)...)
	tracedPerMin, _, _ := quiet(tracedPasses)
	sortDurations(all)
	res.metrics["harness.op_p99_ms"] = metric{ms(percentile(all, 99)), "ms"}
	res.metrics["harness.op_samples"] = metric{float64(len(all)), "count"}
	res.metrics["bench.traced_ops_ratio"] = metric{tracedPerMin / opsPerMin, "ratio"}
	res.metrics["resultstore.bytes_per_op"] = metric{float64(storeBytes) / float64(plainOps), "B"}
	res.metrics["resultstore.seal_s"] = metric{median(seals), "s"}
	res.metrics["harness.summarize_s"] = metric{median(sums), "s"}
	res.metrics["runtime.gc_cpu_frac"] = metric{ratio(plain.gcCPU, plain.totalCPU), "ratio"}
	res.metrics["runtime.alloc_bytes_per_op"] = metric{float64(plain.bytes) / float64(plainOps), "B"}
	res.metrics["runtime.peak_heap_mb"] = metric{float64(plain.heapInuse) / (1 << 20), "MB"}
	res.metrics["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return res, nil
}

// passTiming is one timed pass as the end-to-end timings see it.
type passTiming struct {
	ops  int
	wall time.Duration
	lat  []time.Duration
}

// quiet pools the quiet passes: the fastest by ops per minute, a tenth
// of them or enough to hold minQuietPasses passes and minQuietOps ops.
// It returns their rate, their ops' latencies and how many there were.
func quiet(passes []passTiming) (float64, []time.Duration, int) {
	byRate := append([]passTiming(nil), passes...)
	sort.SliceStable(byRate, func(i, j int) bool {
		return float64(byRate[i].ops)/byRate[i].wall.Seconds() >
			float64(byRate[j].ops)/byRate[j].wall.Seconds()
	})
	var (
		ops  int
		wall time.Duration
		lat  []time.Duration
		n    int
	)
	share := (len(byRate) + quietShare - 1) / quietShare
	for _, p := range byRate {
		if n >= share && n >= minQuietPasses && ops >= minQuietOps {
			break
		}
		ops += p.ops
		wall += p.wall
		lat = append(lat, p.lat...)
		n++
	}
	if wall <= 0 {
		return 0, lat, n
	}
	return float64(ops) / wall.Minutes(), lat, n
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (Linux VmHWM); 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// provenance describes the run well enough to repeat it.
func provenance(w *workload, cfg runConfig, seconds, trace int, res *result) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":        w.Name,
		"definition":      w.define(cfg),
		"seed":            cfg.Seed,
		"seconds":         seconds,
		"trace":           trace,
		"go_version":      runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"git_commit":      commit,
		"git_modified":    modified,
		"passes":          res.passes,
		"quiet_passes":    res.quiet,
		"latency_samples": res.samples,
		"timed_s":         res.timed.Seconds(),
		"records_sha256":  res.digest,
	}
}
