package workloads

import "ndpext/internal/stream"

// Source is a per-core access feed: the pull-based generalization of a
// fully materialized Trace. The simulator consumes each core's sequence
// strictly in order, one access at a time, so a Source can stream
// accesses from disk with bounded memory (internal/trace's replayer) or
// synthesize them on the fly. A materialized Trace does not need one:
// the simulator reads its per-core slices directly.
//
// Sources are single-consumer: Next is only called from the simulation
// goroutine, and a Source's cursors are consumed by one run (open a
// fresh Source per simulation).
type Source interface {
	// Name labels the workload (Result.Workload).
	Name() string
	// Table returns the stream annotations the accesses refer to.
	Table() *stream.Table
	// Cores returns the number of per-core sequences.
	Cores() int
	// Next returns the next access of the given core's sequence, or
	// ok=false once the sequence is exhausted (or a read error stopped
	// it — see Err).
	Next(core int) (Access, bool)
	// Err reports the first error that truncated any core's sequence,
	// or nil for clean exhaustion. Checked by the simulator after the
	// event loop drains.
	Err() error
}
