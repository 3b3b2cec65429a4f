package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"silo/internal/explore"
	"silo/internal/harness"
	"silo/internal/machine"
	"silo/internal/resultstore"
	"silo/internal/stats"
)

// referencePath is the committed paper-grid snapshot, read in place from
// the repository root.
const referencePath = "BENCH_silo.json"

// crashFleetPassOps is the campaigns per crash-fleet pass: enough that
// each pass's cold per-worker recycler is amortized, few enough that a
// run spans dozens of passes.
const crashFleetPassOps = 500

// exploreShards is the explore-grid store shard count.
const exploreShards = 2

// runConfig is what every workload is opened with.
type runConfig struct {
	Seed      int64
	Dir       string // scratch directory for result stores
	Reference string // path to BENCH_silo.json
}

// workload is one closed-loop benchmark input: one client issues op
// after op to one worker.
type workload struct {
	Name   string
	open   func(runConfig) (runner, error)
	define func(runConfig) any // workload definition, for provenance
}

// runner executes passes of one opened workload. Op k*size+j of pass k
// is op j of the workload's fixed op sequence; running a pass never
// changes what a later pass computes.
type runner interface {
	// pass runs pass p — untraced when tr is nil — and checks its
	// outputs.
	pass(p int, tr *tracer) (passResult, error)
	close()
}

// passResult is one pass's measurements and verdicts.
type passResult struct {
	ops, failed int
	problems    []string
	sec         section         // the timed region
	lat         []time.Duration // per-op executor latency
	records     [][]byte        // per-op output bytes, in op order

	seal, summarize time.Duration
	storeBytes      int64
}

var workloads = []*workload{
	{
		Name: "paper-grid",
		open: openPaperGrid,
		define: func(cfg runConfig) any {
			f, err := readBenchFile(cfg.Reference)
			if err != nil {
				return err.Error()
			}
			return map[string]any{
				"executor": "harness.RunMachine", "reference": cfg.Reference,
				"cores": f.Cores, "txns_per_core": f.TxnsPerCore, "cells": len(f.Rows),
				"audit": false, "check_against": checkAgainst(cfg, f),
			}
		},
	},
	{
		Name: "crash-fleet",
		open: openCrashFleet,
		define: func(cfg runConfig) any {
			return map[string]any{
				"executor": "harness.RunCampaign via harness.Torture", "parallel": 1,
				"designs": harness.DesignNames(), "workloads": []string{"Array", "Hash", "TPCC"},
				"cores": 2, "txns": 48, "audit": true, "campaigns_per_pass": crashFleetPassOps,
				"sink": "harness.CheckpointSink (.srs)",
			}
		},
	},
	{
		Name: "explore-grid",
		open: openExploreGrid,
		define: func(cfg runConfig) any {
			g := exploreGrid(cfg.Seed)
			return map[string]any{
				"executor": "explore.Grid.RunPoint via harness.Torture", "parallel": 1,
				"grid": g, "points": g.Size(), "shards": exploreShards,
			}
		},
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// latencies collects per-op executor latencies. Fleet executors run on
// the fleet's containment goroutines, so appends are locked.
type latencies struct {
	mu sync.Mutex
	d  []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.d = append(l.d, d)
	l.mu.Unlock()
}

// digest hashes a pass's records in op order.
func digest(records [][]byte) string {
	h := sha256.New()
	for _, r := range records {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// diffRecords counts positions where two record streams differ.
func diffRecords(a, b [][]byte) int {
	bad := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if !bytes.Equal(a[i], b[i]) {
			bad++
		}
	}
	return bad
}

// ---- paper-grid -----------------------------------------------------

// cellRow holds the eleven BENCH_silo.json row fields a cell is checked
// on, under the file's own JSON names.
type cellRow struct {
	Design          string  `json:"design"`
	Workload        string  `json:"workload"`
	Throughput      float64 `json:"throughput_tx_per_mcycle"`
	WriteBytesPerTx float64 `json:"write_bytes_per_tx"`
	MediaWrites     int64   `json:"media_writes"`
	Cycles          int64   `json:"cycles"`
	Transactions    int64   `json:"transactions"`
	CommitP50       int64   `json:"commit_stall_p50_cycles"`
	CommitP99       int64   `json:"commit_stall_p99_cycles"`
	TxP50           int64   `json:"tx_latency_p50_cycles"`
	TxP99           int64   `json:"tx_latency_p99_cycles"`
}

type benchFile struct {
	Cores       int       `json:"cores"`
	TxnsPerCore int       `json:"txns_per_core"`
	Seed        int64     `json:"seed"`
	Rows        []cellRow `json:"rows"`
}

func readBenchFile(path string) (benchFile, error) {
	var f benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Rows) == 0 || f.Cores < 1 || f.TxnsPerCore < 1 {
		return f, fmt.Errorf("%s: no rows or no machine shape", path)
	}
	return f, nil
}

func checkAgainst(cfg runConfig, f benchFile) string {
	if cfg.Seed == f.Seed {
		return "BENCH_silo.json rows"
	}
	return "first pass"
}

type paperGrid struct {
	seed int64
	file benchFile
	want []cellRow // the file's rows at its own seed, else the first pass
	rec  *machine.Recycler
}

func openPaperGrid(cfg runConfig) (runner, error) {
	f, err := readBenchFile(cfg.Reference)
	if err != nil {
		return nil, err
	}
	g := &paperGrid{seed: cfg.Seed, file: f, rec: machine.NewRecycler()}
	if cfg.Seed == f.Seed {
		g.want = f.Rows
	}
	return g, nil
}

func (g *paperGrid) close() {}

// spec is cell j's run: the snapshot's machine shape with the audit off,
// as silo-bench -exp bench runs it, on the pass-spanning recycler.
func (g *paperGrid) spec(j int) harness.Spec {
	row := g.file.Rows[j]
	return harness.Spec{
		Design: row.Design, Workload: row.Workload,
		Cores: g.file.Cores, Txns: g.file.TxnsPerCore * g.file.Cores,
		Seed: g.seed, DisableAudit: true, Recycle: g.rec,
	}
}

func newCellRow(spec harness.Spec, m *machine.Machine, r stats.Run) cellRow {
	ch, th := m.CommitHist(), m.TxHist()
	return cellRow{
		Design: spec.Design, Workload: spec.Workload,
		Throughput: r.Throughput(), WriteBytesPerTx: r.WriteBytesPerTx(),
		MediaWrites: r.MediaWrites, Cycles: r.Cycles, Transactions: r.Transactions,
		CommitP50: ch.Percentile(50), CommitP99: ch.Percentile(99),
		TxP50: th.Percentile(50), TxP99: th.Percentile(99),
	}
}

func (g *paperGrid) pass(p int, tr *tracer) (passResult, error) {
	n := len(g.file.Rows)
	pr := passResult{ops: n, lat: make([]time.Duration, 0, n)}
	rows := make([]cellRow, n)
	var runErr error
	pr.sec = timed(func() {
		for j := 0; j < n; j++ {
			spec := g.spec(j)
			op := p*n + j
			var (
				m   *machine.Machine
				r   stats.Run
				err error
			)
			t0 := time.Now()
			if tr == nil {
				m, r, err = harness.RunMachine(spec)
			} else {
				m, r, err = tr.runMachine(op, p, spec)
				tr.opSpan(op, t0)
			}
			pr.lat = append(pr.lat, time.Since(t0))
			if err != nil {
				runErr = err
				return
			}
			rows[j] = newCellRow(spec, m, r)
			if tr == nil {
				m.Release()
			} else {
				tr.release(op, m, false)
			}
		}
	})
	if runErr != nil {
		return pr, runErr
	}
	if g.want == nil {
		g.want = rows
	}
	for j, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return pr, err
		}
		pr.records = append(pr.records, b)
		if row != g.want[j] {
			pr.failed++
			pr.problems = append(pr.problems, fmt.Sprintf("cell %s/%s: got %+v want %+v",
				row.Design, row.Workload, row, g.want[j]))
		}
	}
	return pr, nil
}

// ---- fleet workloads ------------------------------------------------

// capture is the fleet's record sink seen from the benchmark: it keeps
// each pass's encoded records for comparison and, when traced, times
// the store's encode and write.
type capture struct {
	inner  harness.RecordSink
	tr     *tracer
	first  int // campaign index of the pass's first op
	opBase int // op index of the pass's first op
	recs   [][]byte
}

func (c *capture) Encode(r harness.Record) ([]byte, error) {
	if c.tr == nil {
		return c.inner.Encode(r)
	}
	t0 := time.Now()
	enc, err := c.inner.Encode(r)
	c.tr.span(c.opBase+r.Index-c.first, kindEncode, kindPass, t0)
	return enc, err
}

func (c *capture) Write(r harness.Record, enc []byte) error {
	c.recs[r.Index-c.first] = enc
	if c.tr == nil {
		return c.inner.Write(r, enc)
	}
	t0 := time.Now()
	err := c.inner.Write(r, enc)
	c.tr.span(c.opBase+r.Index-c.first, kindWrite, kindPass, t0)
	return err
}

// fleetPass runs one Torture pass of cfg through exec, timing each
// executor call, and returns the pass with its sink errors folded in.
func fleetPass(cfg harness.TortureConfig, sink *capture, exec func(harness.Campaign) harness.CampaignOutcome) (passResult, harness.TortureResult, error) {
	pr := passResult{ops: cfg.Campaigns}
	var lat latencies
	var sinkErr error
	cfg.Parallel = 1
	cfg.Sink = sink
	cfg.OnSinkError = func(err error) {
		if sinkErr == nil {
			sinkErr = err
		}
	}
	cfg.Run = func(c harness.Campaign) harness.CampaignOutcome {
		t0 := time.Now()
		out := exec(c)
		lat.add(time.Since(t0))
		return out
	}
	var res harness.TortureResult
	var err error
	pr.sec = timed(func() { res, err = harness.Torture(cfg) })
	if err == nil {
		err = sinkErr
	}
	pr.lat = lat.d
	pr.records = sink.recs
	pr.failed = len(res.Failures) + len(res.Infra)
	for _, f := range append(res.Failures, res.Infra...) {
		o := f.Outcome
		pr.problems = append(pr.problems, fmt.Sprintf("campaign %d (%s on %s): err=%v mismatches=%d",
			o.Campaign.Index, o.Campaign.Spec.Design, o.Campaign.Spec.Workload, o.Err, len(o.Mismatches)))
	}
	return pr, res, err
}

func fileSize(path string) int64 {
	if st, err := os.Stat(path); err == nil {
		return st.Size()
	}
	return 0
}

// ---- crash-fleet ----------------------------------------------------

type crashFleet struct {
	seed int64
	dir  string
	seq  int // store file counter
}

func openCrashFleet(cfg runConfig) (runner, error) {
	dir, err := os.MkdirTemp(cfg.Dir, "crash-fleet-")
	if err != nil {
		return nil, err
	}
	return &crashFleet{seed: cfg.Seed, dir: dir}, nil
}

func (f *crashFleet) close() { os.RemoveAll(f.dir) }

// crashFleetConfig is the fleet's default shape (five designs, Array /
// Hash / TPCC, two cores, 48 transactions, audit on, seeded crash
// plans): campaign i is harness.MakeCampaign(crashFleetConfig(seed), i).
func crashFleetConfig(seed int64) harness.TortureConfig {
	return harness.TortureConfig{Seed: seed}
}

func (f *crashFleet) pass(p int, tr *tracer) (passResult, error) {
	path := filepath.Join(f.dir, fmt.Sprintf("pass-%d.srs", f.seq))
	f.seq++
	store, err := harness.OpenCheckpointSink(path)
	if err != nil {
		return passResult{}, err
	}
	defer os.Remove(path)
	first := p * crashFleetPassOps
	sink := &capture{inner: store, tr: tr, first: first, opBase: first, recs: make([][]byte, crashFleetPassOps)}
	exec := harness.RunCampaign
	if tr != nil {
		exec = func(c harness.Campaign) harness.CampaignOutcome {
			t0 := time.Now()
			out := tr.runCampaign(c.Index, p, c)
			tr.opSpan(c.Index, t0)
			return out
		}
	}
	cfg := crashFleetConfig(f.seed)
	cfg.Campaigns, cfg.Offset = crashFleetPassOps, first
	pr, res, err := fleetPass(cfg, sink, exec)
	if err != nil {
		store.Close()
		return pr, err
	}
	t0 := time.Now()
	if err := store.Close(); err != nil {
		return pr, err
	}
	pr.seal = time.Since(t0)
	pr.storeBytes = fileSize(path)

	t0 = time.Now()
	sum, err := harness.SummarizeStore(path)
	pr.summarize = time.Since(t0)
	if err != nil {
		pr.failed = pr.ops
		pr.problems = append(pr.problems, fmt.Sprintf("pass %d: summarize store: %v", p, err))
		return pr, nil
	}
	got := [8]int64{int64(sum.Campaigns), int64(sum.MidRun), sum.Commits, sum.Torn, sum.Dropped,
		int64(sum.Restarts), int64(len(sum.Failures)), int64(sum.Infra)}
	want := [8]int64{int64(res.Campaigns), int64(res.MidRunCrashes), res.Commits, res.Torn, res.Dropped,
		int64(res.Restarts), int64(len(res.Failures)), int64(len(res.Infra))}
	if got != want {
		pr.failed = pr.ops
		pr.problems = append(pr.problems, fmt.Sprintf(
			"pass %d: store summary %v != fleet result %v (campaigns, mid-run, commits, torn, dropped, restarts, failures, infra)",
			p, got, want))
	}
	return pr, nil
}

// ---- explore-grid ---------------------------------------------------

// exploreGrid is the 360-point grid: five designs x three workloads x
// log-buffer {10,20,40} x buffer line {128,256} x WPQ {16,64} x two L3
// sizes, at two cores and 48 transactions. Four machine geometries
// rotate through one worker's recycler.
func exploreGrid(seed int64) explore.Grid {
	return explore.Grid{
		Designs:   harness.DesignNames(),
		Workloads: []string{"Array", "Hash", "TPCC"},
		Cores:     []int{2},
		LogBuf:    []int{10, 20, 40},
		BufLine:   []int{128, 256},
		WPQ:       []int{16, 64},
		Caches:    []explore.CacheGeom{{L1KB: 32, L2KB: 256, L3KB: 2048}, {L1KB: 32, L2KB: 256, L3KB: 8192}},
		Txns:      48,
		Seed:      seed,
	}
}

type exploreRun struct {
	grid   explore.Grid
	dir    string
	seq    int
	first  [][]byte // the first pass's records, by point
	report string   // the first pass's Pareto report
}

func openExploreGrid(cfg runConfig) (runner, error) {
	g := exploreGrid(cfg.Seed)
	if err := g.Normalize(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Dir, "explore-grid-")
	if err != nil {
		return nil, err
	}
	return &exploreRun{grid: g, dir: dir}, nil
}

func (e *exploreRun) close() { os.RemoveAll(e.dir) }

func (e *exploreRun) pass(p int, tr *tracer) (passResult, error) {
	n := e.grid.Size()
	base := filepath.Join(e.dir, fmt.Sprintf("pass-%d.srs", e.seq))
	e.seq++
	store, err := explore.OpenShardedSink(base, exploreShards)
	if err != nil {
		return passResult{}, err
	}
	paths := explore.ShardPaths(base, exploreShards)
	defer func() {
		for _, path := range paths {
			os.Remove(path)
		}
	}()
	sink := &capture{inner: store, tr: tr, opBase: p * n, recs: make([][]byte, n)}
	exec := e.grid.RunPoint
	if tr != nil {
		exec = func(c harness.Campaign) harness.CampaignOutcome {
			op := p*n + c.Index
			t0 := time.Now()
			out := tr.runPoint(e.grid, op, p, c)
			tr.opSpan(op, t0)
			return out
		}
	}
	cfg := harness.TortureConfig{Campaigns: n, Make: e.grid.Campaign}
	pr, _, err := fleetPass(cfg, sink, exec)
	if err != nil {
		store.Close()
		return pr, err
	}
	t0 := time.Now()
	if err := store.Close(); err != nil {
		return pr, err
	}
	pr.seal = time.Since(t0)

	// Read the sealed shards back, then hold every point to the first
	// pass: same record bytes and the same Pareto frontier.
	t0 = time.Now()
	stored := make([][]byte, n)
	var recs []harness.Record
	for _, path := range paths {
		pr.storeBytes += fileSize(path)
		if err := readStore(path, stored, &recs); err != nil {
			return pr, err
		}
	}
	report := explore.Report(recs)
	pr.summarize = time.Since(t0)
	if e.first == nil {
		e.first, e.report = stored, report
	}
	for i := range stored {
		if !bytes.Equal(stored[i], pr.records[i]) || !bytes.Equal(stored[i], e.first[i]) {
			pr.failed++
			pr.problems = append(pr.problems, fmt.Sprintf("point %d: record differs from the first pass or from what was written", i))
		}
	}
	if report != e.report {
		pr.failed = pr.ops
		pr.problems = append(pr.problems, fmt.Sprintf("pass %d: Pareto frontier differs from the first pass", p))
	}
	pr.failed = min(pr.failed, pr.ops)
	return pr, nil
}

// readStore copies every payload of the sealed store at path into
// stored (by campaign index) and decodes it into recs.
func readStore(path string, stored [][]byte, recs *[]harness.Record) error {
	st, err := resultstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	for i := 0; i < st.Count(); i++ {
		idx := int(st.Row(i).Index)
		if idx < 0 || idx >= len(stored) {
			return fmt.Errorf("%s: record index %d outside the grid", path, idx)
		}
		payload, err := st.Payload(i)
		if err != nil {
			return err
		}
		stored[idx] = bytes.Clone(payload)
		var rec harness.Record
		if err := json.Unmarshal(stored[idx], &rec); err != nil {
			return fmt.Errorf("%s: record %d: %w", path, idx, err)
		}
		*recs = append(*recs, rec)
	}
	return nil
}
