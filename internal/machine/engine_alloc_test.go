package machine

import (
	"testing"

	"silo/internal/baseline"
	"silo/internal/cache"
	"silo/internal/core"
	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/pm"
	"silo/internal/sim"
)

// storeStream is a native OpStream issuing one TxBegin and then in-tx
// stores to a single hot address forever — the engine-level analogue of
// steadyStores, driving Engine.Step through its scheduler fast path.
type storeStream struct {
	begun bool
	n     mem.Word
}

func (s *storeStream) Next() (sim.Op, bool) {
	if !s.begun {
		s.begun = true
		return sim.Op{Kind: sim.OpTxBegin}, true
	}
	s.n++
	return sim.Op{Kind: sim.OpStore, Addr: 0x4000, Data: s.n}, true
}

func (s *storeStream) Deliver(sim.Result) {}

// The cooperative scheduler's whole point is that the per-op path does no
// channel operations and no allocations: with telemetry disabled, a
// steady-state Engine.Step must allocate nothing. This is the engine-level
// sibling of TestExecDisabledTelemetryZeroAlloc.
func TestEngineStepZeroAlloc(t *testing.T) {
	m := benchMachine(nil)
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{&storeStream{}})
	for i := 0; i < 64; i++ {
		eng.Step() // warm caches, log buffer, shadow tables
	}
	if allocs := testing.AllocsPerRun(200, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("steady-state Engine.Step allocates %v per op with telemetry disabled, want 0", allocs)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	m := benchMachine(nil)
	eng := m.Engine(1)
	eng.Bind([]sim.OpStream{&storeStream{}})
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// steadyTxns returns a closure running one whole transaction: TxBegin,
// stores to two words in each of `lines` lines, TxEnd. The lines stay
// cache-resident after warm-up, so every call repeats the design's
// steady per-store and per-commit work — log appends, truncation,
// commit walks and, past the on-chip log capacity, overflow batches.
func steadyTxns(m *Machine, lines int) func() {
	now := sim.Cycle(0)
	val := mem.Word(0)
	exec := func(op sim.Op) {
		now += m.Exec(0, op, now).Latency
	}
	return func() {
		exec(sim.Op{Kind: sim.OpTxBegin})
		for i := 0; i < 2*lines; i++ {
			val++
			addr := mem.Addr(0x4000 + (i%lines)*mem.LineSize + (i/lines)*mem.WordSize)
			exec(sim.Op{Kind: sim.OpStore, Addr: addr, Data: val})
		}
		exec(sim.Op{Kind: sim.OpTxEnd})
	}
}

// Every design's steady-state transaction must allocate nothing with the
// audit off: no per-append log buffer, no per-commit truncation buffer,
// no per-commit sort. TestExecDisabledTelemetryZeroAlloc and
// TestEngineStepZeroAlloc only reach Silo's store path; this gate covers
// each paper design's whole transaction, commit included. The 12-store
// transactions fit every on-chip log; the 80-store ones overflow Silo's
// and MorLog's, so their eviction batches are covered too.
func TestSteadyTxnZeroAllocAllDesigns(t *testing.T) {
	designs := []struct {
		name    string
		factory logging.Factory
		lines   int
	}{
		{"Base", baseline.NewBase, 6},
		{"FWB", baseline.NewFWB, 6},
		{"MorLog", baseline.NewMorLog, 6},
		{"LAD", baseline.NewLAD, 6},
		{"Silo", core.Factory(core.Options{}), 6},
		{"MorLog/overflow", baseline.NewMorLog, 40},
		{"Silo/overflow", core.Factory(core.Options{}), 40},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			m := New(Config{
				Cores:        1,
				PM:           pm.DefaultConfig(),
				Cache:        cache.DefaultHierarchyConfig(),
				Design:       d.factory,
				DisableAudit: true,
			})
			tx := steadyTxns(m, d.lines)
			for i := 0; i < 64; i++ {
				tx() // warm caches, log buffers, design scratch, shadow tables
			}
			if allocs := testing.AllocsPerRun(100, tx); allocs != 0 {
				t.Fatalf("steady-state %s transaction allocates %v with the audit off, want 0", d.name, allocs)
			}
			if overflows := m.CollectStats(d.name, "steady").LogOverflows; (d.lines > 6) != (overflows > 0) {
				t.Fatalf("%s: %d log overflows over %d-store transactions", d.name, overflows, 2*d.lines)
			}
		})
	}
}
