package machine

import "silo/internal/mem"

// This file holds the machine's flattened golden-shadow structures. The
// shadow model is on the per-store hot path (baseline capture, pending
// tracking, commit promotion), so the Go maps it used to live in showed
// up as a steady slice of the whole-simulation profile. Both structures
// are open-addressed tables with multiplicative hashing, entries stored
// densely so iteration is cheap and deterministic (insertion order).

// shadowFibMul is 2^64 / phi, the multiplicative-hash constant.
const shadowFibMul = 0x9E3779B97F4A7C15

const (
	shadowHasCommitted = 1 << iota
	shadowHasBaseline
	shadowUnsafe
)

// shadowEntry is one word's golden durability record: the last committed
// value, the pre-first-write baseline, and the tainted-by-unsafe-store
// flag — the three maps the machine kept per address, merged so the
// store path probes once.
type shadowEntry struct {
	addr      mem.Addr
	committed mem.Word
	baseline  mem.Word
	flags     uint8
}

// shadowTable indexes shadowEntry storage by word address. Entries are
// never removed, so an entry's index stays valid until reset; entry
// pointers are invalidated by the next getOrInsert.
type shadowTable struct {
	slots   []int32 // entry index + 1; 0 = empty
	shift   uint
	entries []shadowEntry
}

func newShadowTable() *shadowTable {
	return &shadowTable{slots: make([]int32, 1024), shift: 64 - 10}
}

func (t *shadowTable) home(addr mem.Addr) int {
	return int((uint64(addr) * shadowFibMul) >> t.shift)
}

// get returns the entry for addr, or nil.
func (t *shadowTable) get(addr mem.Addr) *shadowEntry {
	mask := len(t.slots) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if e := &t.entries[s-1]; e.addr == addr {
			return e
		}
	}
}

// getOrInsert returns the entry for addr and its index in entries,
// creating a zeroed entry if absent.
func (t *shadowTable) getOrInsert(addr mem.Addr) (*shadowEntry, int32) {
	mask := len(t.slots) - 1
	i := t.home(addr)
	for t.slots[i] != 0 {
		if idx := t.slots[i] - 1; t.entries[idx].addr == addr {
			return &t.entries[idx], idx
		}
		i = (i + 1) & mask
	}
	if 4*len(t.entries) >= 3*len(t.slots) {
		t.grow()
		mask = len(t.slots) - 1
		i = t.home(addr)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
	}
	t.entries = append(t.entries, shadowEntry{addr: addr})
	t.slots[i] = int32(len(t.entries))
	return &t.entries[len(t.entries)-1], int32(len(t.entries) - 1)
}

func (t *shadowTable) grow() {
	t.shift--
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for idx := range t.entries {
		i := t.home(t.entries[idx].addr)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(idx + 1)
	}
}

// reset empties the table for an unrelated new run, keeping the grown
// slot array and entry storage. Observationally identical to a fresh
// table: lookups miss, inserts start from zeroed entries, and iteration
// (dense entries, insertion order) is capacity-blind.
func (t *shadowTable) reset() {
	clear(t.slots)
	t.entries = t.entries[:0]
}

// memFootprint approximates retained bytes for the recycler's size cap.
func (t *shadowTable) memFootprint() int {
	return cap(t.slots)*4 + cap(t.entries)*32
}

// txKV is one pending (uncommitted) write: word address, newest value,
// and the index of the word's shadowTable entry, so commit promotion
// reaches the entry without probing the table again.
type txKV struct {
	addr   mem.Addr
	val    mem.Word
	shadow int32
}

// txWrites tracks one core's writes inside the current transaction —
// the per-core pending map, flattened. reset is O(writes touched), not
// O(table), so the per-transaction clear costs nothing when idle.
type txWrites struct {
	slots   []int32 // entry index + 1; 0 = empty
	mask    int
	entries []txKV
	touched []int32 // slot indices in use, for reset
}

func newTxWrites() *txWrites {
	return &txWrites{slots: make([]int32, 64), mask: 63}
}

func (t *txWrites) home(addr mem.Addr) int {
	return int((uint64(addr)*shadowFibMul)>>32) & t.mask
}

// put records addr := val, overwriting any earlier write of addr in this
// transaction; shadow is addr's shadowTable entry index.
func (t *txWrites) put(addr mem.Addr, val mem.Word, shadow int32) {
	i := t.home(addr)
	for t.slots[i] != 0 {
		if e := &t.entries[t.slots[i]-1]; e.addr == addr {
			e.val = val
			return
		}
		i = (i + 1) & t.mask
	}
	if 4*len(t.entries) >= 3*len(t.slots) {
		t.grow()
		i = t.home(addr)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
	}
	t.entries = append(t.entries, txKV{addr: addr, val: val, shadow: shadow})
	t.slots[i] = int32(len(t.entries))
	t.touched = append(t.touched, int32(i))
}

// get returns the pending value of addr, if written this transaction.
func (t *txWrites) get(addr mem.Addr) (mem.Word, bool) {
	i := t.home(addr)
	for t.slots[i] != 0 {
		if e := &t.entries[t.slots[i]-1]; e.addr == addr {
			return e.val, true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// len returns the number of distinct words written this transaction.
func (t *txWrites) len() int { return len(t.entries) }

// reset clears the table for the next transaction, zeroing only the
// slots this transaction used.
func (t *txWrites) reset() {
	for _, i := range t.touched {
		t.slots[i] = 0
	}
	t.entries = t.entries[:0]
	t.touched = t.touched[:0]
}

func (t *txWrites) grow() {
	t.mask = 2*t.mask + 1
	t.slots = make([]int32, t.mask+1)
	t.touched = t.touched[:0]
	for idx := range t.entries {
		i := t.home(t.entries[idx].addr)
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(idx + 1)
		t.touched = append(t.touched, int32(i))
	}
}
