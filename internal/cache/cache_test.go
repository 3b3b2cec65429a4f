package cache

import (
	"math/rand"
	"testing"

	"silo/internal/mem"
	"silo/internal/sim"
)

// testBackend is a word-addressable backing store standing in for PM.
type testBackend struct {
	words      map[mem.Addr]mem.Word
	fills      int
	writebacks []Evicted
}

func newBackend() *testBackend {
	return &testBackend{words: make(map[mem.Addr]mem.Word)}
}

func (b *testBackend) fill(la mem.Addr, now sim.Cycle) ([mem.LineSize]byte, sim.Cycle) {
	b.fills++
	var line [mem.LineSize]byte
	for w := 0; w < mem.WordsPerLine; w++ {
		v := b.words[la+mem.Addr(w*mem.WordSize)]
		for i := 0; i < 8; i++ {
			line[w*8+i] = byte(v >> (8 * i))
		}
	}
	return line, 100
}

func (b *testBackend) writeback(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	b.writebacks = append(b.writebacks, Evicted{Addr: la, Data: data, Dirty: true})
	for w := 0; w < mem.WordsPerLine; w++ {
		var v mem.Word
		for i := 7; i >= 0; i-- {
			v = v<<8 | mem.Word(data[w*8+i])
		}
		b.words[la+mem.Addr(w*mem.WordSize)] = v
	}
}

func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Name: "L1", Size: 1 << 10, Ways: 2, Latency: 4},   // 8 sets
		L2: Config{Name: "L2", Size: 4 << 10, Ways: 2, Latency: 12},  // 32 sets
		L3: Config{Name: "L3", Size: 16 << 10, Ways: 4, Latency: 28}, // 64 sets
	}
}

func newSmall(b *testBackend, cores int) *Hierarchy {
	return NewHierarchy(cores, smallConfig(), b.fill, b.writeback)
}

func TestLoadMissThenHit(t *testing.T) {
	b := newBackend()
	b.words[0x1000] = 42
	h := newSmall(b, 1)
	v, lat := h.Load(0, 0x1000, 0)
	if v != 42 {
		t.Errorf("load = %d, want 42", v)
	}
	wantMiss := sim.Cycle(4 + 12 + 28 + 100)
	if lat != wantMiss {
		t.Errorf("miss latency = %d, want %d", lat, wantMiss)
	}
	v, lat = h.Load(0, 0x1000, 10)
	if v != 42 || lat != 4 {
		t.Errorf("hit: v=%d lat=%d, want 42/4", v, lat)
	}
	if b.fills != 1 {
		t.Errorf("fills = %d, want 1", b.fills)
	}
}

func TestStoreReturnsOldValue(t *testing.T) {
	b := newBackend()
	b.words[0x2000] = 7
	h := newSmall(b, 1)
	old, _ := h.Store(0, 0x2000, 8, 0)
	if old != 7 {
		t.Errorf("old = %d, want 7", old)
	}
	old, _ = h.Store(0, 0x2000, 9, 1)
	if old != 8 {
		t.Errorf("old after store = %d, want 8", old)
	}
	if v, _ := h.Load(0, 0x2000, 2); v != 9 {
		t.Errorf("load after stores = %d, want 9", v)
	}
}

func TestWordsWithinLineIndependent(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	for w := 0; w < mem.WordsPerLine; w++ {
		h.Store(0, mem.Addr(w*8), mem.Word(w+1), 0)
	}
	for w := 0; w < mem.WordsPerLine; w++ {
		if v, _ := h.Load(0, mem.Addr(w*8), 1); v != mem.Word(w+1) {
			t.Errorf("word %d = %d, want %d", w, v, w+1)
		}
	}
}

func TestDirtyEvictionReachesWriteback(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0, 99, 0)
	// Touch enough distinct lines mapping everywhere to force line 0 out
	// of every level (total capacity 21 KB; touch 64 KB).
	for i := 1; i < 1024; i++ {
		h.Load(0, mem.Addr(i*mem.LineSize), sim.Cycle(i))
	}
	if b.words[0] != 99 {
		t.Fatalf("dirty line never written back: %d writebacks", len(b.writebacks))
	}
	// The line was dropped; a reload must see the written-back value.
	if v, _ := h.Load(0, 0, 99999); v != 99 {
		t.Errorf("reload after eviction = %d, want 99", v)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	for i := 0; i < 1024; i++ {
		h.Load(0, mem.Addr(i*mem.LineSize), sim.Cycle(i))
	}
	if len(b.writebacks) != 0 {
		t.Errorf("clean evictions produced %d writebacks", len(b.writebacks))
	}
}

func TestCleanLine(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0x3000, 5, 0)
	data, dirty := h.CleanLine(0, 0x3000)
	if !dirty {
		t.Fatal("line should have been dirty")
	}
	if data[0] != 5 {
		t.Errorf("CleanLine data[0] = %d, want 5", data[0])
	}
	// Second clean: still cached but no longer dirty.
	if _, dirty := h.CleanLine(0, 0x3000); dirty {
		t.Error("line dirty after CleanLine")
	}
	// Still readable at L1 hit latency.
	if v, lat := h.Load(0, 0x3000, 1); v != 5 || lat != 4 {
		t.Errorf("after clean: v=%d lat=%d", v, lat)
	}
}

func TestDirtyLine(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	if _, dirty := h.DirtyLine(0, 0x4000); dirty {
		t.Error("uncached line reported dirty")
	}
	h.Load(0, 0x4000, 0)
	if _, dirty := h.DirtyLine(0, 0x4000); dirty {
		t.Error("clean line reported dirty")
	}
	h.Store(0, 0x4000, 1, 1)
	if data, dirty := h.DirtyLine(0, 0x4000); !dirty || data[0] != 1 {
		t.Error("dirty line not found")
	}
}

func TestPeekWordNoSideEffects(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	if _, ok := h.PeekWord(0, 0x5000); ok {
		t.Error("peek found uncached word")
	}
	h.Store(0, 0x5000, 77, 0)
	v, ok := h.PeekWord(0, 0x5000)
	if !ok || v != 77 {
		t.Errorf("peek = %d/%v, want 77/true", v, ok)
	}
	if b.fills != 1 {
		t.Errorf("peek caused fills: %d", b.fills)
	}
}

func TestForceWriteBackAll(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 2)
	h.Store(0, 0x100, 1, 0)
	h.Store(1, 0x10000, 2, 0)
	n := h.ForceWriteBackAll(10)
	if n != 2 {
		t.Errorf("force wrote back %d lines, want 2", n)
	}
	if b.words[0x100] != 1 || b.words[0x10000] != 2 {
		t.Error("force write-back lost data")
	}
	// Everything clean now; a second pass writes nothing.
	if n := h.ForceWriteBackAll(20); n != 0 {
		t.Errorf("second force wrote back %d lines", n)
	}
}

func TestInvalidateAll(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Store(0, 0x600, 9, 0)
	h.InvalidateAll()
	if _, ok := h.PeekWord(0, 0x600); ok {
		t.Error("word survived InvalidateAll")
	}
	// Dirty data was volatile: the reload sees the backing store's value.
	if v, _ := h.Load(0, 0x600, 1); v != 0 {
		t.Errorf("lost write visible after invalidate: %d", v)
	}
	if len(b.writebacks) != 0 {
		t.Error("InvalidateAll must not write back (crash semantics)")
	}
}

func TestPerCorePrivacy(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 2)
	h.Store(0, 0x700, 3, 0)
	// Core 1's L1/L2 don't have it; it must fill from the backing store
	// (the simulator runs share-nothing workloads, so no coherence).
	if _, ok := h.PeekWord(1, 0x700); ok {
		t.Skip("line visible via shared L3 — acceptable")
	}
}

func TestHitCounters(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	h.Load(0, 0, 0)
	h.Load(0, 0, 1)
	h.Load(0, 8, 2) // same line
	if h.L1(0).Misses != 1 || h.L1(0).Hits != 2 {
		t.Errorf("L1 hits/misses = %d/%d, want 2/1", h.L1(0).Hits, h.L1(0).Misses)
	}
	if h.L3().Misses != 1 {
		t.Errorf("L3 misses = %d, want 1", h.L3().Misses)
	}
}

func TestL2VictimCaching(t *testing.T) {
	b := newBackend()
	h := newSmall(b, 1)
	// Fill one L1 set (2 ways, 8 sets, so stride 8 lines = 512B).
	h.Load(0, 0, 0)
	h.Load(0, 512, 1)
	h.Load(0, 1024, 2) // evicts line 0 from L1 into L2
	fills := b.fills
	_, lat := h.Load(0, 0, 3) // must hit L2, not refill
	if b.fills != fills {
		if lat == 0 {
			t.Error("impossible")
		}
		t.Errorf("L2 victim miss: refilled from memory")
	}
	if lat != 4+12 {
		t.Errorf("L2 hit latency = %d, want 16", lat)
	}
}

// Property-style test: random loads and stores against a shadow map; the
// hierarchy must always return the latest value, and after a full force
// write-back the backing store must agree with the shadow.
func TestHierarchyMatchesShadowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := newBackend()
	h := newSmall(b, 2)
	shadow := [2]map[mem.Addr]mem.Word{
		make(map[mem.Addr]mem.Word), make(map[mem.Addr]mem.Word),
	}
	var now sim.Cycle
	for i := 0; i < 20000; i++ {
		core := rng.Intn(2)
		// Per-core disjoint address spaces (share-nothing).
		addr := mem.Addr(core*1<<20 + rng.Intn(4096)*8)
		now++
		if rng.Intn(2) == 0 {
			v := mem.Word(rng.Int63())
			old, _ := h.Store(core, addr, v, now)
			if want, ok := shadow[core][addr]; ok && old != want {
				t.Fatalf("op %d: store old = %#x, shadow %#x", i, uint64(old), uint64(want))
			}
			shadow[core][addr] = v
		} else {
			v, _ := h.Load(core, addr, now)
			if want := shadow[core][addr]; v != want {
				t.Fatalf("op %d: load = %#x, shadow %#x", i, uint64(v), uint64(want))
			}
		}
	}
	h.ForceWriteBackAll(now)
	for core := range shadow {
		for a, want := range shadow[core] {
			if b.words[a] != want {
				t.Fatalf("backing store %v = %#x, shadow %#x", a, uint64(b.words[a]), uint64(want))
			}
		}
	}
}

func TestNewCacheClampsTinyGeometry(t *testing.T) {
	c := NewCache(Config{Name: "tiny", Size: 32, Ways: 4, Latency: 1})
	if c.sets < 1 {
		t.Error("sets not clamped")
	}
	// Still usable as a 1-set cache inside a hierarchy.
	b := newBackend()
	h := NewHierarchy(1, HierarchyConfig{
		L1: Config{Name: "L1", Size: 64, Ways: 1, Latency: 1},
		L2: Config{Name: "L2", Size: 128, Ways: 1, Latency: 2},
		L3: Config{Name: "L3", Size: 256, Ways: 1, Latency: 3},
	}, b.fill, b.writeback)
	h.Store(0, 0, 1, 0)
	h.Store(0, 64, 2, 1) // evicts through the 1-line levels
	h.Store(0, 128, 3, 2)
	h.Store(0, 192, 4, 3)
	if v, _ := h.Load(0, 0, 4); v != 1 {
		t.Errorf("value lost in tiny hierarchy: %d", v)
	}
}

// invalidationGeometries covers power-of-two set counts, a
// non-power-of-two L3 (48 sets), and 1-way and 16-way levels.
var invalidationGeometries = []HierarchyConfig{
	smallConfig(),
	{
		L1: Config{Name: "L1", Size: 512, Ways: 1, Latency: 4},        // 8 sets, direct-mapped
		L2: Config{Name: "L2", Size: 4 << 10, Ways: 8, Latency: 12},   // 8 sets
		L3: Config{Name: "L3", Size: 48 << 10, Ways: 16, Latency: 28}, // 48 sets
	},
	{
		L1: Config{Name: "L1", Size: 2 << 10, Ways: 16, Latency: 4},   // 2 sets
		L2: Config{Name: "L2", Size: 3 << 10, Ways: 1, Latency: 12},   // 48 sets, direct-mapped
		L3: Config{Name: "L3", Size: 64 << 10, Ways: 16, Latency: 28}, // 64 sets
	},
}

// caches lists every level of h.
func (h *Hierarchy) caches() []*Cache {
	out := append(append([]*Cache{}, h.l1...), h.l2...)
	return append(out, h.l3)
}

// randomTraffic fills random lines of a span several times each level's
// size through every core, returning each access's latency and value.
func randomTraffic(h *Hierarchy, cores int, seed int64) []mem.Word {
	rng := rand.New(rand.NewSource(seed))
	var out []mem.Word
	for i := 0; i < 4000; i++ {
		core := rng.Intn(cores)
		addr := mem.Addr(core<<24 + rng.Intn(1<<17)*8)
		now := sim.Cycle(i)
		if rng.Intn(3) == 0 {
			old, lat := h.Store(core, addr, mem.Word(rng.Int63()), now)
			out = append(out, old, mem.Word(lat))
		} else {
			v, lat := h.Load(core, addr, now)
			out = append(out, v, mem.Word(lat))
		}
	}
	return out
}

func assertAllInvalid(t *testing.T, what string, tags []mem.Addr) {
	t.Helper()
	for i, tag := range tags {
		if tag != invalidTag {
			t.Fatalf("%s: tag %d = %#x after reset, want invalid", what, i, uint64(tag))
		}
	}
}

// Invalidation clears only the sets filled since the last reset; every
// tag of every array must nonetheless read invalid afterwards, whether
// the reset was a crash (InvalidateAll) or a release back to the pool.
func TestInvalidationClearsEveryTag(t *testing.T) {
	for gi, cfg := range invalidationGeometries {
		b := newBackend()
		h := NewHierarchy(2, cfg, b.fill, b.writeback)
		randomTraffic(h, 2, int64(gi))
		h.InvalidateAll()
		for _, c := range h.caches() {
			assertAllInvalid(t, "InvalidateAll "+c.cfg.Name, c.tags)
		}
		randomTraffic(h, 2, int64(gi)+100)
		var released []*cacheArrays
		for _, c := range h.caches() {
			released = append(released, c.pooled)
		}
		h.Release()
		for _, a := range released {
			assertAllInvalid(t, "Release", a.tags)
			if len(a.touched) != 0 {
				t.Fatalf("released arrays still list %d touched sets", len(a.touched))
			}
		}
		h2 := NewHierarchy(2, cfg, b.fill, b.writeback)
		for _, c := range h2.caches() {
			assertAllInvalid(t, "re-acquired "+c.cfg.Name, c.tags)
		}
		h2.Release()
	}
}

// withFreshArrays swaps freshly allocated arrays into every level of h,
// bypassing the pool.
func withFreshArrays(h *Hierarchy) *Hierarchy {
	for _, c := range h.caches() {
		n := len(c.tags)
		a := &cacheArrays{arr: make([]line, n), tags: make([]mem.Addr, n),
			touchedBits: make([]uint64, (n+63)/64)}
		fillInvalid(a.tags)
		c.pooled, c.arr, c.tags = a, a.arr, a.tags
	}
	return h
}

// A hierarchy built on recycled, crash-invalidated arrays must time and
// return every access exactly like one built on fresh arrays.
func TestRecycledArraysMatchFresh(t *testing.T) {
	for gi, cfg := range invalidationGeometries {
		pb := newBackend()
		polluted := NewHierarchy(2, cfg, pb.fill, pb.writeback)
		randomTraffic(polluted, 2, int64(gi)+7)
		polluted.InvalidateAll()
		randomTraffic(polluted, 2, int64(gi)+8)
		polluted.Release()

		rb, fb := newBackend(), newBackend()
		recycled := NewHierarchy(2, cfg, rb.fill, rb.writeback)
		fresh := withFreshArrays(NewHierarchy(2, cfg, fb.fill, fb.writeback))
		for round := int64(0); round < 2; round++ {
			got := randomTraffic(recycled, 2, int64(gi)+round)
			want := randomTraffic(fresh, 2, int64(gi)+round)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("geometry %d round %d: access %d = %#x on recycled arrays, %#x on fresh",
						gi, round, i/2, uint64(got[i]), uint64(want[i]))
				}
			}
			if len(rb.writebacks) != len(fb.writebacks) {
				t.Fatalf("geometry %d: %d writebacks on recycled arrays, %d on fresh",
					gi, len(rb.writebacks), len(fb.writebacks))
			}
			recycled.InvalidateAll()
			fresh.InvalidateAll()
		}
		recycled.Release()
		fresh.Release()
	}
}
