package obs

// Buffer is a Recorder that accumulates counter deltas locally instead
// of publishing them. The parallel build scheduler gives each unit's
// worker a private Buffer and flushes it into the shared Collector only
// when the unit *commits*, in topological order — so the counter deltas
// a build reports are identical whatever the worker count, and
// speculative work past a failed unit (work the sequential build would
// never have started) leaves no trace in the totals. (Phase-span
// timings bypass buffers: a span feeds its time.* counter as it ends.)
//
// A Buffer is NOT safe for concurrent use; it is owned by exactly one
// worker goroutine until the commit loop flushes it, and the scheduler's
// completion channel provides the happens-before edge between the two.
type Buffer struct {
	counters map[string]int64
	order    []string
}

// NewBuffer returns an empty counter buffer.
func NewBuffer() *Buffer { return &Buffer{counters: map[string]int64{}} }

// Add implements Recorder. Safe on nil (a nil Buffer is a no-op sink,
// matching the nil-Collector convention).
func (b *Buffer) Add(name string, delta int64) {
	if b == nil {
		return
	}
	if _, ok := b.counters[name]; !ok {
		b.order = append(b.order, name)
	}
	b.counters[name] += delta
}

// Get returns the buffered delta for one counter.
func (b *Buffer) Get(name string) int64 {
	if b == nil {
		return 0
	}
	return b.counters[name]
}

// FlushTo publishes every buffered delta to rec in first-Add order and
// empties the buffer.
func (b *Buffer) FlushTo(rec Recorder) {
	if b == nil || rec == nil {
		return
	}
	for _, name := range b.order {
		if d := b.counters[name]; d != 0 {
			rec.Add(name, d)
		}
	}
	b.counters = map[string]int64{}
	b.order = nil
}
