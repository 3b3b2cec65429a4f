package baseline

import (
	"slices"

	"silo/internal/logging"
	"silo/internal/mem"
	"silo/internal/sim"
	"silo/internal/stats"
)

const (
	// LADMCCapacity is the number of cachelines the memory controller's
	// ADR domain can buffer for uncommitted transactions (the 64-entry
	// queue of Table II).
	LADMCCapacity = 64
	// LADFlushPerLine is the L1→L2→L3→MC path cost, per line, of the
	// Prepare-phase flush that LAD's commit must wait for.
	LADFlushPerLine sim.Cycle = 40
	// LADCommitMsg is the Commit-phase message cost.
	LADCommitMsg sim.Cycle = 4
)

type ladLine struct {
	data  [mem.LineSize]byte
	owner int
}

// LAD models distributed logless atomic durability (Gupta et al.,
// MICRO'19) with the proactive flushing scheme enabled (§VI-A): no logs
// are ever written. Updated cachelines are buffered in the memory
// controller (an ADR persistence domain) until their transaction commits;
// commit runs in two phases — Prepare flushes the transaction's remaining
// dirty L1 lines down to the MC (the CPU stalls for the whole walk), and
// Commit releases the buffered lines to the PM data region with a simple
// message. If the MC buffer overflows, LAD falls back to a slow mode that
// reads the old data from PM to produce an undo log before releasing a
// line early.
type LAD struct {
	env   *logging.Env
	inTx  []bool
	txid  []uint16
	txSet []map[mem.Addr]struct{} // lines written by the in-flight tx
	mcBuf map[mem.Addr]ladLine
	walk  []mem.Addr // commit walk order, reused by every TxEnd

	buffered, released int64
	overflows          int64
	slowModeReads      int64
}

var _ logging.Design = (*LAD)(nil)
var _ logging.MCReader = (*LAD)(nil)

// NewLAD builds the LAD design.
func NewLAD(env *logging.Env) logging.Design {
	l := &LAD{
		env:   env,
		inTx:  make([]bool, env.Cores),
		txid:  make([]uint16, env.Cores),
		mcBuf: make(map[mem.Addr]ladLine),
	}
	for i := 0; i < env.Cores; i++ {
		l.txSet = append(l.txSet, make(map[mem.Addr]struct{}))
	}
	return l
}

// Name implements logging.Design.
func (l *LAD) Name() string { return "LAD" }

// TxBegin implements logging.Design.
func (l *LAD) TxBegin(core int, now sim.Cycle) sim.Cycle {
	l.inTx[core] = true
	l.txid[core]++
	return 0
}

// Store only tracks the transaction's write set; data stays in the caches.
func (l *LAD) Store(core int, addr mem.Addr, old, new mem.Word, now sim.Cycle) sim.Cycle {
	if !l.inTx[core] {
		return 0
	}
	l.txSet[core][addr.Line()] = struct{}{}
	return 0
}

// CachelineEvicted intercepts evictions of uncommitted lines into the MC
// buffer; anything else drains straight to the PM data region.
func (l *LAD) CachelineEvicted(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte) {
	owner := -1
	for c := range l.txSet {
		if !l.inTx[c] {
			continue
		}
		if _, ok := l.txSet[c][la]; ok {
			owner = c
			break
		}
	}
	if owner < 0 {
		l.env.PM.Write(now, la, data[:])
		return
	}
	if len(l.mcBuf) >= LADMCCapacity {
		l.slowMode(now, la, data, owner)
		return
	}
	l.mcBuf[la] = ladLine{data: data, owner: owner}
	l.buffered++
}

// slowMode handles MC-buffer overflow: read the line's old contents from
// PM, write an undo log, then let the line through to the data region.
func (l *LAD) slowMode(now sim.Cycle, la mem.Addr, data [mem.LineSize]byte, owner int) {
	l.overflows++
	old, _ := l.env.PM.Read(now, la, mem.LineSize)
	l.slowModeReads++
	images := make([]logging.Image, 0, mem.WordsPerLine)
	for w := 0; w < mem.WordsPerLine; w++ {
		images = append(images, logging.Image{
			Kind: logging.ImageUndo, TID: uint8(owner), TxID: l.txid[owner],
			Addr: la + mem.Addr(w*mem.WordSize), Data: wordFrom(old[w*mem.WordSize:]),
		})
	}
	l.env.Region.Append(now, owner, images)
	l.env.PM.Write(now, la, data[:])
}

// TxEnd runs Prepare (flush remaining dirty tx lines to the MC, stalling
// LADFlushPerLine per line) and Commit (release buffered lines to PM).
func (l *LAD) TxEnd(core int, now sim.Cycle) sim.Cycle {
	l.inTx[core] = false
	var stall sim.Cycle = LADCommitMsg
	t := now
	// Deterministic order: simulated hardware walks a FIFO of dirty
	// lines, not a Go map.
	l.walk = sortedAddrs(l.walk, l.txSet[core])
	for _, la := range l.walk {
		if data, dirty := l.env.Cache.CleanLine(core, la); dirty {
			stall += LADFlushPerLine
			t += LADFlushPerLine
			l.mcBuf[la] = ladLine{data: data, owner: core}
			l.buffered++
		}
	}
	// Commit: the buffered lines are already durable in the MC's ADR
	// domain; releasing them to PM happens in the background.
	l.walk = l.walk[:0]
	for la, bl := range l.mcBuf {
		if bl.owner == core {
			l.walk = append(l.walk, la)
		}
	}
	slices.Sort(l.walk)
	for _, la := range l.walk {
		bl := l.mcBuf[la]
		l.env.PM.Write(t, la, bl.data[:])
		delete(l.mcBuf, la)
		l.released++
	}
	for la := range l.txSet[core] {
		delete(l.txSet[core], la)
	}
	l.env.Region.Truncate(core)
	return stall
}

// MCBuffered lets cache fills observe lines parked in the MC buffer.
func (l *LAD) MCBuffered(la mem.Addr) ([mem.LineSize]byte, bool) {
	if bl, ok := l.mcBuf[la.Line()]; ok {
		return bl.data, true
	}
	return [mem.LineSize]byte{}, false
}

// Crash drops buffered lines of uncommitted transactions (they were never
// written to PM, preserving atomicity); committed data already drained.
func (l *LAD) Crash(now sim.Cycle) {
	for la := range l.mcBuf {
		delete(l.mcBuf, la)
	}
}

// CollectStats implements logging.Design.
func (l *LAD) CollectStats(r *stats.Run) {
	r.LogOverflows += l.overflows
	r.PMReads += l.slowModeReads
}

// sortedAddrs returns a set's addresses in ascending order, so map-backed
// write sets iterate deterministically (the hardware they model is a FIFO
// or CAM, not a hash map). The result reuses dst's storage, so a design
// that passes its previous walk back sorts without allocating.
func sortedAddrs(dst []mem.Addr, set map[mem.Addr]struct{}) []mem.Addr {
	dst = dst[:0]
	for a := range set {
		dst = append(dst, a)
	}
	slices.Sort(dst)
	return dst
}

func wordFrom(b []byte) mem.Word {
	var w mem.Word
	for i := 7; i >= 0; i-- {
		w = w<<8 | mem.Word(b[i])
	}
	return w
}
