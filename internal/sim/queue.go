package sim

// ServiceQueue models a bounded FIFO queue drained by a single server —
// the shape of the memory controller's write pending queue (WPQ): entries
// are accepted when a slot is free and drain one at a time, each occupying
// the server for its service time.
//
// Because the engine issues operations in nondecreasing global time,
// arrivals are monotone and the classic recurrences apply:
//
//	accept_i = max(arrival_i, finish_{i-capacity})
//	finish_i = max(accept_i, finish_{i-1}) + service_i
//
// Acceptance time is what a core waits for when a design requires a
// *synchronous* persist (the entry is durable once inside the ADR-protected
// queue); finish time is when the entry has drained to the device.
type ServiceQueue struct {
	capacity int
	ring     []Cycle // finish times of the last `capacity` entries
	head     int     // ring index of finish_{i-capacity}
	last     Cycle   // finish_{i-1}
	accepted int64
	// BusyUntil is the largest finish time handed out; Drain barriers use it.
	busyUntil Cycle
}

// NewServiceQueue returns a queue with the given slot capacity.
func NewServiceQueue(capacity int) *ServiceQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &ServiceQueue{capacity: capacity, ring: make([]Cycle, capacity)}
}

// Accept enqueues one entry arriving at `arrival` needing `service` cycles
// of drain time. It returns when the entry is accepted (slot free; durable
// under ADR) and when it finishes draining.
func (q *ServiceQueue) Accept(arrival Cycle, service Cycle) (accept, finish Cycle) {
	accept = arrival
	if oldest := q.ring[q.head]; oldest > accept {
		accept = oldest // wait for a slot
	}
	finish = accept
	if q.last > finish {
		finish = q.last
	}
	finish += service
	q.ring[q.head] = finish
	q.head = (q.head + 1) % q.capacity
	q.last = finish
	if finish > q.busyUntil {
		q.busyUntil = finish
	}
	q.accepted++
	return accept, finish
}

// Reset clears the queue's timing state — a power cycle. Whatever was
// draining is gone (ADR drains and battery flushes are modeled by the
// crash path, not here), and the next machine incarnation restarts its
// clock at zero, so stale finish times from the previous life must not
// delay new entries. The accepted counter survives: it feeds cumulative
// device statistics.
func (q *ServiceQueue) Reset() {
	for i := range q.ring {
		q.ring[i] = 0
	}
	q.head = 0
	q.last = 0
	q.busyUntil = 0
}

// Occupancy returns how many entries are still draining at time t.
//
// Read from head onward, the ring's finish times never decrease: each is
// max(accept, last) + service with service ≥ 0, and a Reset zeroes them
// all. So a binary search for the first slot finishing after t counts
// the draining entries in log2(capacity) probes (7 for the WPQ's 64)
// instead of a scan of every slot; the PM read path asks on every read.
func (q *ServiceQueue) Occupancy(t Cycle) int {
	lo, hi := 0, q.capacity // slot positions counted from head
	for lo < hi {
		mid := (lo + hi) / 2
		i := q.head + mid
		if i >= q.capacity {
			i -= q.capacity
		}
		if q.ring[i] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return q.capacity - lo
}

// DrainedBy returns the time by which everything accepted so far has
// drained (a full-queue barrier, e.g. for a crash-time ADR flush).
func (q *ServiceQueue) DrainedBy() Cycle { return q.busyUntil }

// Accepted returns the total number of entries accepted.
func (q *ServiceQueue) Accepted() int64 { return q.accepted }

// Capacity returns the slot capacity.
func (q *ServiceQueue) Capacity() int { return q.capacity }
