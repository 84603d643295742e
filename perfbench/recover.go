package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"stableheap"
)

// recover-mem shape: a template heap of 32768 accounts behind 256-way
// directories (about 100K words, 800 pages) in stable semispaces of
// 256Ki words, with the vm page cache bounded to 256 pages, so the data
// set is three times the cache; plus an insert directory under root slot
// 1. A cycle opens a fresh copy of the template, takes a checkpoint,
// commits rcInserts inserts, rcTransfers transfers and rcLookups lookups,
// leaves one transaction in flight, crashes, and then recovers (timed)
// and reads everything back: analysis reads the whole cycle's log, and
// redo starts at the oldest page the bounded cache still held dirty.
const (
	rcAccounts   = 32768
	rcFanout     = 256
	rcCachePages = 256
	rcInserts    = 50
	rcTransfers  = 1600
	rcLookups    = 600
	typeItem     = uint16(102)
)

// rcSlots is the number of insert slots a cycle acknowledges; slot
// rcSlots is the in-flight transaction's.
const rcSlots = rcInserts

func recoverConfig(dir string) stableheap.Config {
	cfg := stableheap.DefaultConfig()
	cfg.Dir = dir
	cfg.StableWords = 256 << 10
	cfg.CachePages = rcCachePages
	return cfg
}

// loadTemplate fills h with the accounts and an empty insert directory.
func loadTemplate(h *stableheap.Heap) error {
	if _, err := loadBank(h, 0, rcAccounts, rcFanout); err != nil {
		return err
	}
	tx := h.Begin()
	ins, err := tx.Alloc(typeDir, rcSlots+1, 0)
	if err == nil {
		err = tx.SetRoot(1, ins)
	}
	if err == nil {
		return tx.Commit()
	}
	tx.Abort()
	return err
}

// cycleStore is where the cycles' heaps live: it keeps the template,
// opens fresh copies of it, and recovers a crashed copy.
type cycleStore interface {
	open() (*stableheap.Heap, error)
	crash(h *stableheap.Heap)
	recover() (*stableheap.Heap, error)
	bytes(h *stableheap.Heap) (int64, error)
}

// memStore keeps the template on the in-memory devices and copies it with
// their Clone.
type memStore struct {
	cfg         stableheap.Config
	disk, cDisk stableheap.Disk
	log, cLog   stableheap.LogDevice
}

func newMemStore() (*memStore, error) {
	cfg := recoverConfig("")
	h := stableheap.Open(cfg)
	if err := loadTemplate(h); err != nil {
		return nil, err
	}
	// Closing and recovering once truncates the bulk load's log, so that
	// a copy clones the pages and a short log.
	h.Close()
	d, l := h.Devices()
	h, err := stableheap.Recover(cfg, d, l)
	if err != nil {
		return nil, err
	}
	h.Close()
	d, l = h.Devices()
	return &memStore{cfg: cfg, disk: d, log: l}, nil
}

func (s *memStore) open() (*stableheap.Heap, error) {
	return stableheap.Recover(s.cfg, s.disk.Clone(), s.log.Clone())
}

func (s *memStore) crash(h *stableheap.Heap) { s.cDisk, s.cLog = h.Crash() }

func (s *memStore) recover() (*stableheap.Heap, error) {
	return stableheap.Recover(s.cfg, s.cDisk, s.cLog)
}

func (s *memStore) bytes(h *stableheap.Heap) (int64, error) { return pageBytes(h), nil }

// fileStore keeps the template in a directory and copies it file by file.
type fileStore struct {
	cfg       stableheap.Config
	tmpl, dir string
}

func newFileStore(parent string) (*fileStore, error) {
	s := &fileStore{tmpl: filepath.Join(parent, "template"), dir: filepath.Join(parent, "cycle")}
	s.cfg = recoverConfig(s.dir)
	tcfg := recoverConfig(s.tmpl)
	// An unbounded vm cache keeps every page the cycle dirties out of the
	// files until the crash, so redo applies the whole span.
	s.cfg.CachePages, tcfg.CachePages = 0, 0
	h, err := stableheap.OpenDir(tcfg)
	if err != nil {
		return nil, err
	}
	err = loadTemplate(h)
	h.Close()
	if err != nil {
		return nil, err
	}
	if h, err = stableheap.RecoverDir(tcfg); err != nil {
		return nil, err
	}
	h.Close()
	return s, nil
}

func (s *fileStore) open() (*stableheap.Heap, error) {
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := copyDir(s.tmpl, s.dir); err != nil {
		return nil, err
	}
	return stableheap.OpenDir(s.cfg)
}

func (s *fileStore) crash(h *stableheap.Heap) { closeDevices(h.Crash()) }

func (s *fileStore) recover() (*stableheap.Heap, error) { return stableheap.RecoverDir(s.cfg) }

func (s *fileStore) bytes(*stableheap.Heap) (int64, error) { return dirBytes(s.dir) }

// cycleLedger is what one cycle acknowledged: the transfers, the value
// of each insert, and the writes of the transaction left in flight.
type cycleLedger struct {
	*ledger
	inserts  []uint64 // value of insert i, 0 if not acknowledged
	inflight bool     // whether the in-flight transaction's writes may show
}

// inflightAmount is what the in-flight transaction adds to each of its
// accounts; inflightAccts are those accounts.
const inflightAmount = 777

var inflightAccts = []int{1, rcAccounts / 2, rcAccounts - 1}

func runRecoverMem(o options) (*report, error) {
	rep := &report{}
	var st *memStore
	for i := 0; i < setupRepeats; i++ {
		settle()
		start := time.Now()
		var err error
		if st, err = newMemStore(); err != nil {
			return nil, fmt.Errorf("template: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	origin := time.Now()
	cs := &clientStats{client: newClient(origin, 1)}
	rng := rand.New(rand.NewSource(o.seed*1000 + 1))
	mem := readMem()
	end := deadline(o)
	for r := 0; time.Now().Before(end); r++ {
		err := cs.round(o.trace && r%tracedEvery == 0, func() error {
			settle() // every cycle starts from the same Go heap
			led, err := crashCycle(rep, cs, rng, st)
			if err != nil {
				return err
			}
			cs.attempted++
			h, err := recoverAndAudit(rep, cs, st, led)
			if err != nil {
				cs.fail("recovery: %v", err)
			}
			if h != nil {
				if rep.diskBytes, err = st.bytes(h); err != nil {
					return err
				}
				h.Close()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rep.addMem(mem, readMem())
	rep.gather(cs)
	if o.trace {
		if err := filePhase(rep, filepath.Join(o.dir, "files")); err != nil {
			return nil, fmt.Errorf("file-backed phase: %w", err)
		}
	}
	return rep, nil
}

// filePhaseOpens is how often the file-backed phase reopens the template.
const filePhaseOpens = 5

// filePhase measures the filestore for the per-layer figures, apart from
// every end-to-end one: it builds the template in files (one forced
// commit per leaf directory), closes it, and reopens it filePhaseOpens
// times, each followed by a read of every balance through the filestore's
// 256-page durable cache, cold after the reopening.
func filePhase(rep *report, dir string) error {
	cfg := recoverConfig(dir)
	h, err := stableheap.OpenDir(cfg)
	if err != nil {
		return err
	}
	err = loadTemplate(h)
	rep.fileBuild.add(stableheap.Metrics{}, h.Metrics())
	h.Close()
	if err != nil {
		return err
	}
	c := newClient(time.Now(), 0)
	for i := 0; i < filePhaseOpens; i++ {
		h, err := stableheap.RecoverDir(cfg)
		if err != nil {
			return err
		}
		b := &bank{h: h, slot: 0, accounts: rcAccounts, fanout: rcFanout}
		start := time.Now()
		got, err := b.balances(c)
		rep.fileScans = append(rep.fileScans, time.Since(start))
		rep.fileOpen.add(stableheap.Metrics{}, h.Metrics())
		h.Close()
		if err != nil {
			return err
		}
		for _, e := range checkBalances(got, newLedger(rcAccounts)) {
			rep.check(fmt.Errorf("file-backed reopening %d: %w", i, e))
		}
	}
	return nil
}

// crashCycle opens a copy of the template and runs a cycle on it up to
// and including the crash; it returns the cycle's ledger. Only the
// transactions are on the throughput clock.
func crashCycle(rep *report, cs *clientStats, rng *rand.Rand, st cycleStore) (*cycleLedger, error) {
	h, err := st.open()
	if err != nil {
		return nil, fmt.Errorf("open a copy of the template: %w", err)
	}
	// The copy's allocations are paid for off the throughput clock.
	settle()
	b := &bank{h: h, slot: 0, accounts: rcAccounts, fanout: rcFanout}
	led := &cycleLedger{ledger: newLedger(rcAccounts), inserts: make([]uint64, rcSlots)}
	cs.call(kCheckpoint, h.Checkpoint)
	before := h.Metrics()
	cyc := &cycleMix{cs: cs, b: b, led: led, mix: &bankMix{rng: rng, accounts: rcAccounts}}
	cs.clock(func() { cyc.run(rcInserts, rcTransfers, rcLookups) })
	after := h.Metrics()
	rep.window.add(before, after)
	rep.logBytes += after.Counter("wal_bytes_appended_total") - before.Counter("wal_bytes_appended_total")
	if err := leaveInFlight(cs.client, b); err != nil {
		return nil, fmt.Errorf("in-flight transaction: %w", err)
	}
	cs.call(kCrash, func() { st.crash(h) })
	return led, nil
}

// cycleMix runs a cycle's acknowledged operations into its ledger.
type cycleMix struct {
	cs  *clientStats
	b   *bank
	led *cycleLedger
	mix *bankMix
}

// run commits the inserts, then the transfers and lookups interleaved:
// two lookups in every seven operations while both last.
func (m *cycleMix) run(inserts, transfers, lookups int) {
	cs, rng := m.cs, m.mix.rng
	for i := 0; i < inserts; i++ {
		cs.attempted++
		v := 1 + rng.Uint64()%(1<<40)
		start := time.Now()
		err := retry(cs.client, func() error {
			x := cs.begin(m.b.h)
			if err := insertItem(x, i, v); err != nil {
				x.Abort()
				return err
			}
			return x.Commit()
		})
		if err != nil {
			cs.fail("insert: %v", err)
			continue
		}
		cs.txLat = append(cs.txLat, time.Since(start))
		cs.committed++
		m.led.inserts[i] = v
	}
	accts := make([]int, lookupSize)
	for i := 0; transfers+lookups > 0; i++ {
		cs.attempted++
		start := time.Now()
		if lookups > 0 && (transfers == 0 || i%7 == 3 || i%7 == 6) {
			lookups--
			for k := range accts {
				accts[k] = rng.Intn(rcAccounts)
			}
			if err := m.b.lookup(cs.client, accts); err != nil {
				cs.fail("lookup: %v", err)
				continue
			}
			cs.readLat = append(cs.readLat, time.Since(start))
			continue
		}
		transfers--
		from, to := m.mix.pair()
		amt := m.mix.amount()
		if err := m.b.transfer(cs.client, from, to, amt); err != nil {
			cs.fail("transfer: %v", err)
			continue
		}
		cs.txLat = append(cs.txLat, time.Since(start))
		cs.committed++
		m.led.delta[from] -= amt
		m.led.delta[to] += amt
	}
}

// insertItem allocates an object holding (slot, v) and links it into
// the insert directory.
func insertItem(x *htx, slot int, v uint64) error {
	ins, err := x.Root(1)
	if err != nil {
		return err
	}
	item, err := x.Alloc(typeItem, 0, 2)
	if err != nil {
		return err
	}
	if err := x.SetData(item, 0, uint64(slot)); err != nil {
		return err
	}
	if err := x.SetData(item, 1, v); err != nil {
		return err
	}
	return x.SetPtr(ins, slot, item)
}

// leaveInFlight starts a transaction that adds to inflightAccts and
// inserts into the spare last slot of the insert directory, and never
// ends it: its log records are forced by nothing, or by later commits,
// and recovery must roll it back either way.
func leaveInFlight(c *client, b *bank) error {
	x := c.begin(b.h)
	for _, i := range inflightAccts {
		if err := b.add(x, i, inflightAmount); err != nil {
			return err
		}
	}
	return insertItem(x, rcSlots, inflightAmount)
}

// closeDevices releases the files a crashed file-backed heap leaves open.
func closeDevices(disk stableheap.Disk, log stableheap.LogDevice) {
	for _, d := range []any{disk, log} {
		if c, ok := d.(io.Closer); ok {
			_ = c.Close() // the heap crashed: nothing it holds is to be kept
		}
	}
}

// recoverAndAudit recovers the crashed copy, timing the recovery on every
// attempt, and reads every balance and insert back against the ledger. It
// returns the recovered heap, if any, for the caller to close. A panic
// inside the program is reported as this operation's error.
func recoverAndAudit(rep *report, cs *clientStats, st cycleStore, led *cycleLedger) (h *stableheap.Heap, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	settle()
	start := time.Now()
	cs.call(kRecover, func() { h, err = st.recover() })
	rep.recovers = append(rep.recovers, time.Since(start))
	if err != nil {
		return nil, err
	}
	var errs []error
	// The read-back runs untraced: its span is the cold scan as a whole.
	cs.call(kAudit, func() { errs, err = auditCycle(newClient(time.Now(), 0), h, led) })
	rep.recovery.add(stableheap.Metrics{}, h.Metrics())
	if err != nil {
		return h, err
	}
	return h, errors.Join(errs...)
}

// auditCycle reads the recovered heap and holds it against the ledger:
// every acknowledged transfer and insert is present, and the in-flight
// transaction's writes are absent. It returns one error per failed check.
func auditCycle(c *client, h *stableheap.Heap, led *cycleLedger) ([]error, error) {
	b := &bank{h: h, slot: 0, accounts: rcAccounts, fanout: rcFanout}
	got, err := b.balances(c)
	if err != nil {
		return nil, err
	}
	items, err := readInserts(c, h)
	if err != nil {
		return nil, err
	}
	return checkCycle(got, items, led), nil
}

// item is one slot of the insert directory as read back.
type item struct {
	present bool
	key, v  uint64
}

func readInserts(c *client, h *stableheap.Heap) ([]item, error) {
	out := make([]item, rcSlots+1)
	err := retry(c, func() error {
		x := c.begin(h)
		err := func() error {
			ins, err := x.Root(1)
			if err != nil {
				return err
			}
			for i := range out {
				r, err := x.Ptr(ins, i)
				if err != nil {
					return err
				}
				if r == nil {
					out[i] = item{}
					continue
				}
				k, err := x.Data(r, 0)
				if err != nil {
					return err
				}
				v, err := x.Data(r, 1)
				if err != nil {
					return err
				}
				out[i] = item{present: true, key: k, v: v}
			}
			return nil
		}()
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
	return out, err
}

// checkCycle is the recovery check proper, apart from reading the heap.
func checkCycle(got []uint64, items []item, led *cycleLedger) []error {
	errs := checkBalances(got, led.ledger)
	for i, v := range led.inserts {
		if it := items[i]; v != 0 && (!it.present || it.key != uint64(i) || it.v != v) {
			errs = append(errs, fmt.Errorf("%w: slot %d read %+v, acknowledged value %d", errInserts, i, it, v))
			break
		}
	}
	if items[rcSlots].present != led.inflight {
		errs = append(errs, fmt.Errorf("%w: in-flight insert present=%v, want %v", errInFlight, items[rcSlots].present, led.inflight))
	}
	return errs
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
