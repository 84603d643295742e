package main

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"stableheap"
)

// report is what one workload run measured.
type report struct {
	setups    []time.Duration // each repetition of the workload's set-up
	elapsed   time.Duration   // the client's busy time on the throughput clock
	attempted int64
	failed    int64
	opErrs    []string // the distinct failure messages, for standard error
	checkErrs []error  // checks of the outputs that did not hold

	committed int64           // committed update transactions
	txLat     []time.Duration // per committed update transaction, first attempt to acknowledgement
	readLat   []time.Duration // per read-only transaction
	recovers  []time.Duration // per recovery or restart
	logBytes  int64           // WAL bytes appended during the measured window
	diskBytes int64           // bytes the heap occupies on its devices at the end

	window   snapDelta // heap counters over the measured window
	recovery snapDelta // recovered heaps, from open through the read-back

	// The file-backed phase of a traced recover-mem run: the template
	// built in files, and its reopenings with a cold read-back each.
	fileBuild snapDelta
	fileOpen  snapDelta
	fileScans []time.Duration
	mallocs   uint64  // Go heap allocations during the measured window
	numGC     uint32  // Go collections during the measured window
	client    *client // the workload's client, with its spans
}

// noteErr keeps the first few distinct failure messages.
func (r *report) noteErr(msg string) {
	for _, m := range r.opErrs {
		if m == msg {
			return
		}
	}
	if len(r.opErrs) < 8 {
		r.opErrs = append(r.opErrs, msg)
	}
}

// check records a failed output check.
func (r *report) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

// gather takes the client's latency samples and counts.
func (r *report) gather(c *clientStats) {
	r.txLat = append(r.txLat, c.txLat...)
	r.readLat = append(r.readLat, c.readLat...)
	r.committed += c.committed
	r.elapsed += c.busy
	r.attempted += c.attempted
	r.failed += c.failed
	for _, m := range c.opErrs {
		r.noteErr(m)
	}
	r.client = c.client
}

// clientStats is what the client measured, before gather adds it to the
// report.
type clientStats struct {
	*client
	txLat     []time.Duration
	readLat   []time.Duration
	committed int64
	attempted int64
	failed    int64
	opErrs    []string
	busy      time.Duration // time on the throughput clock
}

// clock runs fn on the throughput clock.
func (c *clientStats) clock(fn func()) {
	start := time.Now()
	fn()
	c.busy += time.Since(start)
}

// timedRound runs one round of the workload on the throughput clock,
// traced when traced is set.
func (c *clientStats) timedRound(traced bool, fn func()) {
	_ = c.round(traced, func() error { // fn reports failures through c
		c.clock(fn)
		return nil
	})
}

// fail records one of the client's operations as failed.
func (c *clientStats) fail(format string, args ...any) {
	c.failed++
	if len(c.opErrs) < 8 {
		c.opErrs = append(c.opErrs, fmt.Sprintf(format, args...))
	}
}

// snapDelta accumulates the change of the heap's metrics across one or
// more intervals, possibly on different heap instances.
type snapDelta struct {
	counters map[string]int64
	hists    map[string]stableheap.HistSnapshot
	n        int // intervals added
}

// add accumulates after minus before (an empty before counts from zero).
func (d *snapDelta) add(before, after stableheap.Metrics) {
	if d.counters == nil {
		d.counters = make(map[string]int64)
		d.hists = make(map[string]stableheap.HistSnapshot)
	}
	d.n++
	for k, v := range after.Counters {
		d.counters[k] += v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		d.hists[k] = d.hists[k].Merge(h.Delta(before.Histograms[k]))
	}
}

func (d *snapDelta) c(name string) float64 { return float64(d.counters[name]) }

// quantileUS is the q-quantile of a nanosecond histogram, in microseconds.
func (d *snapDelta) quantileUS(name string, q float64) float64 {
	return float64(d.hists[name].Quantile(q)) / 1e3
}

// memMark is a point on the Go runtime's allocation counters.
type memMark struct {
	mallocs uint64
	numGC   uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{mallocs: ms.Mallocs, numGC: ms.NumGC}
}

func (r *report) addMem(from, to memMark) {
	r.mallocs += to.mallocs - from.mallocs
	r.numGC += to.numGC - from.numGC
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// chunkSamples is the number of consecutive samples each tail percentile
// is taken over: the fewest that leave ten samples beyond the 99th.
const chunkSamples = 1000

// tailLatency is the median, over consecutive chunks of chunkSamples
// samples, of each chunk's q-quantile (the q-quantile of all samples when
// there are too few for two chunks). A stretch where the machine stalled
// raises the tail of the chunks it falls in, which moves the median far
// less than the q-quantile of the whole run.
func tailLatency(ds []time.Duration, q float64) time.Duration {
	if len(ds) < 2*chunkSamples {
		return quantile(ds, q)
	}
	var tails []time.Duration
	for i := 0; i+chunkSamples <= len(ds); i += chunkSamples {
		tails = append(tails, quantile(ds[i:i+chunkSamples], q))
	}
	return quantile(tails, 0.5)
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// settle runs a full Go collection before a timed set-up or recovery, so
// that every repetition starts from the same Go heap.
func settle() { runtime.GC() }

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEndMetrics are the figures a user of the heap sees. The read tail
// is the 95th percentile, not the 99th: reads take 10-30 us, and the
// host's stolen time lands on about one in a hundred of them (README.md,
// End-to-end metrics).
func endToEndMetrics(r *report) map[string]metric {
	return map[string]metric{
		"setup_s":          {quantile(r.setups, 0.5).Seconds(), "s"},
		"tx_per_s":         {ratio(float64(r.committed), r.elapsed.Seconds()), "1/s"},
		"tx_p50_ms":        {ms(quantile(r.txLat, 0.50)), "ms"},
		"tx_p99_ms":        {ms(tailLatency(r.txLat, 0.99)), "ms"},
		"read_p50_ms":      {ms(quantile(r.readLat, 0.50)), "ms"},
		"read_p95_ms":      {ms(tailLatency(r.readLat, 0.95)), "ms"},
		"recover_s":        {quantile(r.recovers, 0.5).Seconds(), "s"},
		"log_bytes_per_tx": {ratio(float64(r.logBytes), float64(r.committed)), "B"},
		"disk_mb":          {float64(r.diskBytes) / 1e6, "MB"},
		"peak_mem_mb":      {peakRSSMB(), "MB"},
	}
}

// perLayerMetrics are the figures of single layers: spans the benchmark
// recorded around its calls, and deltas of the heap's own counters. Every
// "per_tx" figure is per committed update transaction.
func perLayerMetrics(r *report) map[string]metric {
	st := aggregateSpans(r.client)
	w, rc, fb, fo := &r.window, &r.recovery, &r.fileBuild, &r.fileOpen
	tx := float64(r.committed)
	c := r.client
	commits := append(append([]time.Duration(nil), st.commits[kCommit]...), st.commits[kCommit2PC]...)
	hits, misses := w.c("cache_hits_total"), w.c("cache_misses_total")
	recN := float64(rc.n)
	m := map[string]metric{
		"core.commit_p50_us":          {us(quantile(commits, 0.50)), "us"},
		"core.commit_p99_us":          {us(quantile(commits, 0.99)), "us"},
		"core.read_call_us":           {us(st.meanSelf(kRead)), "us"},
		"core.write_call_us":          {us(st.meanSelf(kWrite)), "us"},
		"core.latch_stop_wait_p99_us": {w.quantileUS("latch_stop_wait_ns", 0.99), "us"},
		"lock.acquires_per_tx":        {ratio(w.c("lock_acquires_total"), tx), "count"},
		"lock.wait_p99_us":            {w.quantileUS("lock_wait_ns", 0.99), "us"},
		"lock.retries_per_ktx":        {ratio(1000*float64(c.retries), tx), "count"},
		"wal.appends_per_tx":          {ratio(w.c("wal_appends_total"), tx), "count"},
		"wal.append_p50_us":           {w.quantileUS("wal_append_ns", 0.50), "us"},
		"wal.forces_per_tx":           {ratio(w.c("wal_forces_total"), tx), "count"},
		"wal.force_p50_us":            {w.quantileUS("wal_force_ns", 0.50), "us"},
		"wal.force_p99_us":            {w.quantileUS("wal_force_ns", 0.99), "us"},
		"wal.constraint_forces":       {w.c("wal_constraint_forces_total"), "count"},
		"filestore.log_fsyncs_per_tx": {ratio(fb.c("filestore_log_fsyncs_total"), fb.c("tx_committed_total")), "count"},
		"filestore.page_fsyncs":       {fb.c("filestore_page_fsyncs_total"), "count"},
		"filestore.writebacks":        {fb.c("filestore_writebacks_total"), "count"},
		"filestore.cache_misses":      {ratio(fo.c("filestore_cache_misses_total"), float64(fo.n)), "count"},
		"filestore.cache_evictions":   {ratio(fo.c("filestore_cache_evictions_total"), float64(fo.n)), "count"},
		"filestore.cold_scan_s":       {quantile(r.fileScans, 0.5).Seconds(), "s"},
		"vm.cache_hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"vm.fetches":                  {w.c("cache_fetches_total"), "count"},
		"stability.objects_per_tx":    {ratio(w.c("track_objects_total"), tx), "count"},
		"stability.words_per_tx":      {ratio(w.c("track_words_total"), tx), "count"},
		"gc.stable_collections":       {w.c("gc_collections_total"), "count"},
		"gc.copied_words_per_tx":      {ratio(w.c("gc_copied_words_total"), tx), "count"},
		"gc.scanned_pages_per_tx":     {ratio(w.c("gc_scanned_pages_total"), tx), "count"},
		"gc.traps_per_read":           {ratio(w.c("gc_barrier_traps_total"), float64(c.reads)), "ratio"},
		"gc.flip_max_ms":              {float64(w.hists["gc_flip_ns"].Max) / 1e6, "ms"},
		"gc.step_p99_us":              {w.quantileUS("gc_step_ns", 0.99), "us"},
		"gc.trap_p99_us":              {w.quantileUS("gc_trap_ns", 0.99), "us"},
		"gc.nursery_minors":           {w.c("vgc_nursery_minor_total"), "count"},
		"gc.promoted_words_per_tx":    {ratio(w.c("vgc_nursery_promoted_words_total"), tx), "count"},
		"gc.moved_stable_per_tx":      {ratio(w.c("vgc_moved_objects_total"), tx), "count"},
		"gc.minor_pause_p99_us":       {w.quantileUS("vgc_minor_pause_ns", 0.99), "us"},
		"gc.vol_pause_p99_us":         {w.quantileUS("vgc_pause_ns", 0.99), "us"},
		"recovery.analysis_ms":        {rc.hists["recovery_analysis_ns"].Mean() / 1e6, "ms"},
		"recovery.redo_ms":            {rc.hists["recovery_redo_ns"].Mean() / 1e6, "ms"},
		"recovery.undo_ms":            {rc.hists["recovery_undo_ns"].Mean() / 1e6, "ms"},
		"recovery.redo_scanned":       {ratio(rc.c("recovery_redo_scanned_total"), recN), "count"},
		"recovery.redo_applied":       {ratio(rc.c("recovery_redo_applied_total"), recN), "count"},
		"shard.local_commit_p50_us":   {us(quantile(st.commits[kCommit], 0.50)), "us"},
		"shard.twopc_commit_p50_us":   {us(quantile(st.commits[kCommit2PC], 0.50)), "us"},
		"shard.twopc_commit_p99_us":   {us(quantile(st.commits[kCommit2PC], 0.99)), "us"},
		"shard.twopc_per_ktx":         {ratio(1000*w.c("shard_2pc_commits_total"), tx), "count"},
		"runtime.allocs_per_tx":       {ratio(float64(r.mallocs), tx), "count"},
		"runtime.gc_cycles":           {float64(r.numGC), "count"},
		"trace.spans":                 {float64(sumSpans(st)), "count"},
		"trace.overhead_pct":          {100 * (ratio(float64(mean(c.traced)), float64(mean(c.untraced))) - 1), "%"},
	}
	for k := kTx; k < numKinds; k++ {
		m["self."+kindNames[k]+"_pct"] = metric{100 * ratio(float64(st.self[k]), float64(st.total)), "%"}
	}
	return m
}

func sumSpans(st spanStats) int {
	n := 0
	for k := kTx; k < numKinds; k++ {
		n += int(st.count[k])
	}
	return n
}
