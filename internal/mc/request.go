package mc

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/dram"
)

// Request is one cache-line-sized memory access queued at the controller.
type Request struct {
	ID      int64
	Addr    dram.Addr
	Write   bool
	Core    int        // issuing core/thread index (non-negative), used by PAR-BS ranking
	Arrival clock.Time // enqueue time
	// Done, if non-nil, is invoked once: for reads when data has returned,
	// for writes when the command has issued (writes are posted).
	Done func(completion clock.Time)

	// Scheduler state.
	marked     bool       // member of the current PAR-BS batch
	nackWindow clock.Time // dedupes nack counting per ARR window
	neededACT  bool       // the request opened its row (row miss or conflict)
	neededPRE  bool       // the request had to close another row first

	// Index state maintained by the channel's queue indexes (queue.go).
	// stamp is the channel admission sequence number; together with fromWQ
	// it reproduces the pool-position ordering of the naive scheduler (reads
	// in arrival order, then buffered writes in arrival order) without
	// rebuilding the pool, so the indexed scheduler's demand tie-break is
	// byte-identical to the reference (DESIGN.md §13).
	stamp  int64
	fromWQ bool // queued in the write buffer rather than the read queue
}

// String renders the request for diagnostics.
func (r *Request) String() string {
	op := "RD"
	if r.Write {
		op = "WR"
	}
	return fmt.Sprintf("req%d %s %v core%d", r.ID, op, r.Addr, r.Core)
}

// Scheduler selects the memory scheduling policy.
type Scheduler int

// Scheduling policies.
const (
	// FRFCFS is first-ready, first-come-first-served: row hits first,
	// then oldest.
	FRFCFS Scheduler = iota
	// PARBS is parallelism-aware batch scheduling (Mutlu & Moscibroda,
	// ISCA 2008), the policy in the paper's Table 4: requests are grouped
	// into batches; within a batch, row hits first, then lighter threads.
	PARBS
)

// String names the policy.
func (s Scheduler) String() string {
	switch s {
	case FRFCFS:
		return "FR-FCFS"
	case PARBS:
		return "PAR-BS"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

// Page policies.
const (
	// OpenPage keeps rows open until a conflict, refresh, or ARR.
	OpenPage PagePolicy = iota
	// ClosedPage precharges after every column access.
	ClosedPage
	// MinimalistOpen (Kaseridis et al., MICRO 2011; the paper's Table 4
	// policy) allows a small number of row hits before precharging.
	MinimalistOpen
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open"
	case ClosedPage:
		return "closed"
	case MinimalistOpen:
		return "minimalist-open"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}
