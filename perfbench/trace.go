package main

import (
	"time"

	"stableheap"
	"stableheap/internal/shard"
)

// spanKind names the public call a span covers. kTx is the parent span of
// one transaction attempt (Begin through Commit or Abort); the others are
// its children, or stand alone when they run outside a transaction.
type spanKind uint8

const (
	kTx spanKind = iota
	kBegin
	kRead // Root, Ptr, Data
	kWrite
	kCommit    // single-heap or single-partition commit
	kCommit2PC // cluster commit spanning partitions
	kAbort
	kCheckpoint
	kCrash
	kRecover
	kAudit
	numKinds
)

var kindNames = [numKinds]string{"client", "begin", "read", "write", "commit", "commit_2pc", "abort", "checkpoint", "crash", "recover", "audit"}

// span is one recorded call, in nanoseconds since the run's origin. Spans
// of one transaction attempt share tx; tx 0 marks a call outside any
// transaction.
type span struct {
	start, end int64
	tx         uint32
	kind       spanKind
}

// tracedEvery is how often a traced run traces a round: one round in
// four, which bounds the memory the kept spans take (a 20-second traced
// bank-mem run still peaks at about 530 MB).
const tracedEvery = 4

// client is a workload client's recording state. Spans stay in memory
// and are aggregated when the run ends. A client records only while on is
// set, which the workloads toggle per round in a traced run.
type client struct {
	origin   time.Time
	on       bool
	spans    []span
	nextTx   uint32
	reads    int64 // read calls, traced or not (the base of gc.traps_per_read)
	retries  int64 // transaction attempts repeated after a lock conflict
	traced   []time.Duration
	untraced []time.Duration
}

func newClient(origin time.Time, id uint32) *client {
	// Transaction ids are unique across clients: each gets its own block.
	return &client{origin: origin, nextTx: id << 24}
}

func (c *client) now() int64 {
	if !c.on {
		return 0
	}
	return int64(time.Since(c.origin))
}

func (c *client) span(k spanKind, tx uint32, start int64) {
	if c.on {
		c.spans = append(c.spans, span{start: start, end: int64(time.Since(c.origin)), tx: tx, kind: k})
	}
}

// round runs one round, tracing it when traced is set, and records its
// duration for the tracing-overhead comparison.
func (c *client) round(traced bool, fn func() error) error {
	c.on = traced
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if traced {
		c.traced = append(c.traced, d)
	} else {
		c.untraced = append(c.untraced, d)
	}
	c.on = false
	return err
}

// call records a span of kind k around fn outside any transaction.
func (c *client) call(k spanKind, fn func()) {
	s := c.now()
	fn()
	c.span(k, 0, s)
}

// htx is a traced single-heap transaction.
type htx struct {
	c     *client
	t     *stableheap.Tx
	id    uint32
	start int64
}

func (c *client) begin(h *stableheap.Heap) *htx {
	c.nextTx++
	x := &htx{c: c, id: c.nextTx, start: c.now()}
	x.t = h.Begin()
	c.span(kBegin, x.id, x.start)
	return x
}

func (x *htx) Root(i int) (*stableheap.Ref, error) {
	x.c.reads++
	s := x.c.now()
	r, err := x.t.Root(i)
	x.c.span(kRead, x.id, s)
	return r, err
}

func (x *htx) Ptr(r *stableheap.Ref, i int) (*stableheap.Ref, error) {
	x.c.reads++
	s := x.c.now()
	p, err := x.t.Ptr(r, i)
	x.c.span(kRead, x.id, s)
	return p, err
}

func (x *htx) Data(r *stableheap.Ref, j int) (uint64, error) {
	x.c.reads++
	s := x.c.now()
	v, err := x.t.Data(r, j)
	x.c.span(kRead, x.id, s)
	return v, err
}

func (x *htx) Alloc(typeID uint16, nptrs, ndata int) (*stableheap.Ref, error) {
	s := x.c.now()
	r, err := x.t.Alloc(typeID, nptrs, ndata)
	x.c.span(kWrite, x.id, s)
	return r, err
}

func (x *htx) SetPtr(r *stableheap.Ref, i int, v *stableheap.Ref) error {
	s := x.c.now()
	err := x.t.SetPtr(r, i, v)
	x.c.span(kWrite, x.id, s)
	return err
}

func (x *htx) SetData(r *stableheap.Ref, j int, v uint64) error {
	s := x.c.now()
	err := x.t.SetData(r, j, v)
	x.c.span(kWrite, x.id, s)
	return err
}

func (x *htx) AddData(r *stableheap.Ref, j int, delta uint64) error {
	s := x.c.now()
	err := x.t.AddData(r, j, delta)
	x.c.span(kWrite, x.id, s)
	return err
}

func (x *htx) SetRoot(i int, v *stableheap.Ref) error {
	s := x.c.now()
	err := x.t.SetRoot(i, v)
	x.c.span(kWrite, x.id, s)
	return err
}

func (x *htx) Commit() error {
	s := x.c.now()
	err := x.t.Commit()
	x.c.span(kCommit, x.id, s)
	x.c.span(kTx, x.id, x.start)
	return err
}

func (x *htx) Abort() {
	s := x.c.now()
	_ = x.t.Abort() // an abort after a failed operation has nothing to report
	x.c.span(kAbort, x.id, s)
	x.c.span(kTx, x.id, x.start)
}

// ctx is a traced cluster transaction.
type ctx struct {
	c     *client
	t     *stableheap.ClusterTx
	id    uint32
	start int64
}

func (c *client) beginCluster(cl *shard.Cluster) *ctx {
	c.nextTx++
	x := &ctx{c: c, id: c.nextTx, start: c.now()}
	x.t = cl.Begin()
	c.span(kBegin, x.id, x.start)
	return x
}

func (x *ctx) Root(slot int) (stableheap.ClusterRef, error) {
	x.c.reads++
	s := x.c.now()
	r, err := x.t.Root(slot)
	x.c.span(kRead, x.id, s)
	return r, err
}

func (x *ctx) Data(r stableheap.ClusterRef, j int) (uint64, error) {
	x.c.reads++
	s := x.c.now()
	v, err := x.t.Data(r, j)
	x.c.span(kRead, x.id, s)
	return v, err
}

func (x *ctx) AddData(r stableheap.ClusterRef, j int, delta uint64) error {
	s := x.c.now()
	err := x.t.AddData(r, j, delta)
	x.c.span(kWrite, x.id, s)
	return err
}

// Commit commits; cross tells whether the transaction spans partitions
// (and so commits through two-phase commit).
func (x *ctx) Commit(cross bool) error {
	k := kCommit
	if cross {
		k = kCommit2PC
	}
	s := x.c.now()
	err := x.t.Commit()
	x.c.span(k, x.id, s)
	x.c.span(kTx, x.id, x.start)
	return err
}

func (x *ctx) Abort() {
	s := x.c.now()
	_ = x.t.Abort() // an abort after a failed operation has nothing to report
	x.c.span(kAbort, x.id, s)
	x.c.span(kTx, x.id, x.start)
}

// spanStats aggregates the client's spans: per-kind counts and self
// times, and the durations of commits for their percentiles. A
// transaction span's self time is its duration minus its children's,
// which is the client's own time between calls; every other span is a
// leaf whose self time is its duration.
type spanStats struct {
	count   [numKinds]int64
	self    [numKinds]time.Duration
	commits [numKinds][]time.Duration // kCommit and kCommit2PC only
	total   time.Duration
}

// meanSelf is the mean self time of spans of kind k.
func (st *spanStats) meanSelf(k spanKind) time.Duration {
	if st.count[k] == 0 {
		return 0
	}
	return st.self[k] / time.Duration(st.count[k])
}

func aggregateSpans(c *client) spanStats {
	var st spanStats
	var children time.Duration
	for _, sp := range c.spans {
		d := time.Duration(sp.end - sp.start)
		st.count[sp.kind]++
		if sp.kind == kCommit || sp.kind == kCommit2PC {
			st.commits[sp.kind] = append(st.commits[sp.kind], d)
		}
		self := d
		switch {
		case sp.kind == kTx:
			self = d - children
			children = 0
		case sp.tx != 0:
			children += d
		}
		st.self[sp.kind] += self
		st.total += self
	}
	return st
}
