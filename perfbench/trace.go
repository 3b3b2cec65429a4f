package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"silo/internal/audit"
	"silo/internal/energy"
	"silo/internal/explore"
	"silo/internal/harness"
	"silo/internal/machine"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/stats"
)

// spanKind names a layer boundary the traced executors time.
type spanKind uint8

const (
	kindOp      spanKind = iota // one executor call (RunMachine, RunCampaign, RunPoint)
	kindPass                    // the timed pass; parent of spans outside any executor call
	kindBuild                   // harness.Build
	kindSim                     // Engine.RunStreams + Machine.CollectStats
	kindCrash                   // end-of-run Machine.InjectCrash
	kindRecover                 // first (possibly restarted) recovery.Recover
	kindVerify                  // first harness.VerifyRecovery
	kindRecheck                 // second Recover + VerifyRecovery + CompareRecoveryPasses
	kindRelease                 // Machine.Release
	kindEncode                  // sink Encode
	kindWrite                   // sink Write
	kindProbe                   // benchmark-only counting calls, excluded from op wall time
	numKinds
)

var kindNames = [numKinds]string{
	"op", "pass", "harness.build", "sim.run", "machine.crash", "recovery.recover",
	"harness.verify", "recovery.recheck", "machine.release", "resultstore.encode",
	"resultstore.write", "bench.probe",
}

// span is one timed call. Spans of one op share its index; parent is
// kindOp for calls inside the executor and kindPass for the rest.
type span struct {
	op         int
	kind       spanKind
	parent     spanKind
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps every span in memory; layerMetrics and writeCSV read them
// once the run ends. The executors below re-compose the public calls
// that harness.RunMachine, harness.RunCampaign and explore.Grid.RunPoint
// make, so the program itself carries no probes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span

	simOps, records, restarts, verifyWords int64
	sim                                    map[string]*stats.Run // pass-0 sums by design
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sim: make(map[string]*stats.Run)}
}

// span records a call to kind that began at t0 and ends now.
func (t *tracer) span(op int, kind, parent spanKind, t0 time.Time) {
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, kind: kind, parent: parent, start: t0.Sub(t.epoch), end: end})
	t.mu.Unlock()
}

func (t *tracer) opSpan(op int, t0 time.Time) { t.span(op, kindOp, kindPass, t0) }

func (t *tracer) count(fn func()) {
	t.mu.Lock()
	fn()
	t.mu.Unlock()
}

// runMachine is harness.RunMachine on native streams, split into build
// and simulate.
func (t *tracer) runMachine(op, pass int, spec harness.Spec) (*machine.Machine, stats.Run, error) {
	t0 := time.Now()
	m, wl, err := harness.Build(spec)
	t.span(op, kindBuild, kindOp, t0)
	if err != nil {
		return nil, stats.Run{}, err
	}
	if spec.Txns <= 0 {
		spec.Txns = 1000
	}
	cores := max(spec.Cores, 1)
	per := max(spec.Txns/cores, 1)
	t0 = time.Now()
	eng := m.Engine(spec.Seed)
	streams := make([]sim.OpStream, cores)
	for c := range streams {
		streams[c] = wl.Stream(c, per, sim.CoreRand(spec.Seed, c))
	}
	eng.RunStreams(streams)
	run := m.CollectStats(spec.Design, spec.Workload)
	t.span(op, kindSim, kindOp, t0)

	var ops int64
	for k := sim.OpLoad; k <= sim.OpCompute; k++ {
		ops += eng.Ops(k)
	}
	t.count(func() {
		t.simOps += ops
		if pass == 0 {
			sum := t.sim[spec.Design]
			if sum == nil {
				sum = &stats.Run{}
				t.sim[spec.Design] = sum
			}
			addRun(sum, run)
		}
	})
	return m, run, nil
}

func (t *tracer) release(op int, m *machine.Machine, inOp bool) {
	parent := kindPass
	if inOp {
		parent = kindOp
	}
	t0 := time.Now()
	m.Release()
	t.span(op, kindRelease, parent, t0)
}

// runCampaign is harness.RunCampaign with each phase timed.
func (t *tracer) runCampaign(op, pass int, c harness.Campaign) harness.CampaignOutcome {
	out := harness.CampaignOutcome{Campaign: c}
	spec := c.Spec
	plan := c.Plan
	spec.Fault = &plan
	m, _, err := t.runMachine(op, pass, spec)
	if err != nil {
		out.Err = err
		return out
	}
	defer t.release(op, m, true)
	if m.WatchdogFired() {
		out.Err = harness.InfraError{Err: fmt.Errorf("sim-cycle watchdog: no progress to completion within %d cycles", spec.MaxCycles)}
		out.TimedOut = true
		return out
	}
	out.MidRun = m.Crashed()
	if !out.MidRun {
		t0 := time.Now()
		m.InjectCrash(m.Now())
		t.span(op, kindCrash, kindOp, t0)
	}
	out.Commits = m.Commits()
	out.Torn = m.Region().CrashImagesTorn
	out.Dropped = m.Region().CrashImagesDropped

	t0 := time.Now()
	if plan.RecrashEvery > 0 {
		limit := plan.RecrashEvery
		for {
			out.Report = recovery.RecoverOpts(m.Device(), m.Region(), recovery.Options{MaxWrites: limit})
			if out.Report.Complete {
				break
			}
			out.Restarts++
			limit *= 2
		}
	} else {
		out.Report = recovery.Recover(m.Device(), m.Region())
	}
	t.span(op, kindRecover, kindOp, t0)

	t0 = time.Now()
	out.Mismatches = harness.VerifyRecovery(m)
	t.span(op, kindVerify, kindOp, t0)

	t0 = time.Now()
	second := recovery.Recover(m.Device(), m.Region())
	again := harness.VerifyRecovery(m)
	out.Mismatches = append(out.Mismatches, audit.CompareRecoveryPasses(
		out.Mismatches, again,
		out.Report.TotalRecords, second.TotalRecords,
		out.Report.Quarantined, second.Quarantined)...)
	t.span(op, kindRecheck, kindOp, t0)

	t0 = time.Now()
	words := int64(len(m.WrittenWords()))
	t.span(op, kindProbe, kindOp, t0)
	t.count(func() {
		t.records += int64(out.Report.TotalRecords)
		t.restarts += int64(out.Restarts)
		t.verifyWords += words
	})
	return out
}

// runPoint is explore.Grid.RunPoint (harness.Run, then the point's
// metrics) with each phase timed.
func (t *tracer) runPoint(g explore.Grid, op, pass int, c harness.Campaign) harness.CampaignOutcome {
	p := g.Point(c.Index)
	m, run, err := t.runMachine(op, pass, c.Spec)
	if m != nil {
		t.release(op, m, true)
	}
	if err != nil {
		return harness.CampaignOutcome{Campaign: c, Err: err}
	}
	return harness.CampaignOutcome{
		Campaign: c,
		Commits:  run.Transactions,
		Explore: &harness.ExploreMetrics{
			LogBufEntries: p.LogBuf,
			BufLineSize:   p.BufLine,
			WPQEntries:    p.WPQ,
			L1KB:          p.Cache.L1KB,
			L2KB:          p.Cache.L2KB,
			L3KB:          p.Cache.L3KB,

			Throughput:   run.Throughput(),
			MediaWrites:  run.MediaWrites,
			MediaBytes:   run.MediaBytes,
			EnergyMicroJ: energy.SiloDomain(p.Cores, p.LogBuf).FlushEnergyMicroJ(),
		},
	}
}

// check verifies that every op's child spans lie inside its executor
// span and sum to no more than it, and that all top-level spans fit in
// the traced wall time.
func (t *tracer) check(wall time.Duration) []string {
	ops := make(map[int]span)
	var top time.Duration
	for _, s := range t.spans {
		if s.parent == kindPass {
			top += s.end - s.start
		}
		if s.kind == kindOp {
			ops[s.op] = s
		}
	}
	children := make(map[int]time.Duration)
	var problems []string
	for _, s := range t.spans {
		if s.parent != kindOp {
			continue
		}
		o, ok := ops[s.op]
		if !ok || s.start < o.start || s.end > o.end {
			problems = append(problems, fmt.Sprintf("op %d: %s span outside its op span", s.op, kindNames[s.kind]))
			continue
		}
		children[s.op] += s.end - s.start
		if children[s.op] > o.end-o.start {
			problems = append(problems, fmt.Sprintf("op %d: child spans exceed op wall time", s.op))
		}
	}
	if top > wall {
		problems = append(problems, fmt.Sprintf("spans cover %v of %v traced wall time", top, wall))
	}
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("... and %d more", len(problems)-5))
	}
	return problems
}

// layerMetrics splits the traced wall time (less benchmark probes)
// across the layers, and derives the simulated counts from pass 0.
func (t *tracer) layerMetrics(wall time.Duration, ops int) map[string]metric {
	var sum [numKinds]time.Duration
	var calls [numKinds]int
	for _, s := range t.spans {
		sum[s.kind] += s.end - s.start
		calls[s.kind]++
	}
	opWall := float64(wall - sum[kindProbe])
	frac := func(k spanKind) float64 { return float64(sum[k]) / opWall }
	meanUS := func(k spanKind) float64 {
		if calls[k] == 0 {
			return 0
		}
		return float64(sum[k]) / 1e3 / float64(calls[k])
	}
	perOp := func(v int64) float64 { return float64(v) / float64(ops) }
	m := map[string]metric{
		"harness.build_frac":          {frac(kindBuild), "ratio"},
		"harness.build_us":            {meanUS(kindBuild), "us"},
		"sim.run_frac":                {frac(kindSim), "ratio"},
		"sim.ns_per_simop":            {ratio(float64(sum[kindSim]), float64(t.simOps)), "ns"},
		"sim.simops_per_op":           {perOp(t.simOps), "count"},
		"machine.crash_frac":          {frac(kindCrash), "ratio"},
		"machine.crash_us":            {meanUS(kindCrash), "us"},
		"recovery.recover_frac":       {frac(kindRecover), "ratio"},
		"recovery.records_per_op":     {perOp(t.records), "count"},
		"recovery.restarts_per_op":    {perOp(t.restarts), "count"},
		"recovery.recheck_frac":       {frac(kindRecheck), "ratio"},
		"harness.verify_frac":         {frac(kindVerify), "ratio"},
		"harness.verify_words_per_op": {perOp(t.verifyWords), "count"},
		"machine.release_frac":        {frac(kindRelease), "ratio"},
		"resultstore.encode_frac":     {frac(kindEncode), "ratio"},
		"resultstore.write_frac":      {frac(kindWrite), "ratio"},
	}
	self := 1.0
	for k := kindBuild; k < kindProbe; k++ {
		self -= frac(k)
	}
	m["harness.self_frac"] = metric{self, "ratio"}
	t.simMetrics(m)
	return m
}

// simMetrics adds the simulated counts: deterministic, so any host-only
// change must leave them identical.
func (t *tracer) simMetrics(m map[string]metric) {
	var all stats.Run
	for _, d := range harness.DesignNames() {
		r := stats.Run{}
		if s := t.sim[d]; s != nil {
			r = *s
		}
		m["sim.tx_per_mcycle."+d] = metric{r.Throughput(), "tx/Mcycle"}
	}
	for _, r := range t.sim {
		addRun(&all, *r)
	}
	tx := float64(all.Transactions)
	perTx := func(v int64) float64 { return ratio(float64(v), tx) }
	perKTx := func(v int64) float64 { return ratio(float64(v)*1000, tx) }
	miss := func(hit, miss int64) float64 { return ratio(float64(miss), float64(hit+miss)) }
	created := float64(all.LogEntriesCreated)
	for name, v := range map[string]metric{
		"cache.l1_miss_ratio":             {miss(all.L1Hits, all.L1Misses), "ratio"},
		"cache.l2_miss_ratio":             {miss(all.L2Hits, all.L2Misses), "ratio"},
		"cache.l3_miss_ratio":             {miss(all.L3Hits, all.L3Misses), "ratio"},
		"cache.writebacks_per_tx":         {perTx(all.Writebacks), "1/tx"},
		"pm.wpq_writes_per_tx":            {perTx(all.WPQWrites), "1/tx"},
		"pm.media_writes_per_tx":          {perTx(all.MediaWrites), "1/tx"},
		"pm.media_bytes_per_tx":           {perTx(all.MediaBytes), "B/tx"},
		"pm.coalesce_ratio":               {ratio(float64(all.MediaWrites), float64(all.WPQWrites)), "ratio"},
		"pm.reads_per_tx":                 {perTx(all.PMReads), "1/tx"},
		"logging.entries_per_tx":          {perTx(all.LogEntriesCreated), "1/tx"},
		"logging.merge_ratio":             {ratio(float64(all.LogEntriesMerged), created), "ratio"},
		"logging.ignore_ratio":            {ratio(float64(all.LogEntriesIgnored), created), "ratio"},
		"logging.flushed_per_tx":          {perTx(all.LogEntriesFlushed), "1/tx"},
		"logging.overflows_per_ktx":       {perKTx(all.LogOverflows), "1/ktx"},
		"logging.flushbit_sets_per_ktx":   {perKTx(all.FlushBitSets), "1/ktx"},
		"core.store_stall_cycles_per_tx":  {perTx(all.StoreStallCycles), "cycles/tx"},
		"core.commit_stall_cycles_per_tx": {perTx(all.CommitStallCycles), "cycles/tx"},
	} {
		m[name] = v
	}
}

// addRun adds r's counters into sum.
func addRun(sum *stats.Run, r stats.Run) {
	sum.Cycles += r.Cycles
	sum.Transactions += r.Transactions
	sum.MediaWrites += r.MediaWrites
	sum.MediaBytes += r.MediaBytes
	sum.WPQWrites += r.WPQWrites
	sum.PMReads += r.PMReads
	sum.LogEntriesCreated += r.LogEntriesCreated
	sum.LogEntriesIgnored += r.LogEntriesIgnored
	sum.LogEntriesMerged += r.LogEntriesMerged
	sum.LogEntriesFlushed += r.LogEntriesFlushed
	sum.LogOverflows += r.LogOverflows
	sum.FlushBitSets += r.FlushBitSets
	sum.StoreStallCycles += r.StoreStallCycles
	sum.CommitStallCycles += r.CommitStallCycles
	sum.L1Hits += r.L1Hits
	sum.L1Misses += r.L1Misses
	sum.L2Hits += r.L2Hits
	sum.L2Misses += r.L2Misses
	sum.L3Hits += r.L3Hits
	sum.L3Misses += r.L3Misses
	sum.Writebacks += r.Writebacks
}

// writeCSV writes every span: op, kind, parent, start and end in ns.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,kind,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d\n", s.op, kindNames[s.kind], kindNames[s.parent], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
