package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"stableheap"
)

// Type ids tag the benchmark's objects (informational only).
const (
	typeDir  uint16 = 100
	typeAcct uint16 = 101
)

const initialBalance = 1_000_000

// bank is a set of accounts under one stable root: a root directory of
// fanout leaf directories, each holding up to fanout accounts with one
// data word, the balance.
type bank struct {
	h        *stableheap.Heap
	slot     int
	accounts int
	fanout   int
}

// ledger is the benchmark's own record of what the heap must hold: the
// money deposited at set-up and, per account, the sum of the amounts of
// every acknowledged transfer. Balances wrap like the heap's words.
type ledger struct {
	deposited uint64
	delta     []uint64
}

func newLedger(accounts int) *ledger {
	return &ledger{deposited: uint64(accounts) * initialBalance, delta: make([]uint64, accounts)}
}

func (l *ledger) clone() *ledger {
	return &ledger{deposited: l.deposited, delta: append([]uint64(nil), l.delta...)}
}

// loadBank creates the account tree, one leaf directory per transaction.
func loadBank(h *stableheap.Heap, slot, accounts, fanout int) (*bank, error) {
	b := &bank{h: h, slot: slot, accounts: accounts, fanout: fanout}
	tx := h.Begin()
	root, err := tx.Alloc(typeDir, fanout, 0)
	if err == nil {
		err = tx.SetRoot(slot, root)
	}
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		tx.Abort()
		return nil, fmt.Errorf("load bank root: %w", err)
	}
	for leaf := 0; leaf*fanout < accounts; leaf++ {
		if err := b.loadLeaf(leaf); err != nil {
			return nil, fmt.Errorf("load bank leaf %d: %w", leaf, err)
		}
	}
	return b, nil
}

func (b *bank) loadLeaf(leaf int) error {
	tx := b.h.Begin()
	err := func() error {
		root, err := tx.Root(b.slot)
		if err != nil {
			return err
		}
		dir, err := tx.Alloc(typeDir, b.fanout, 0)
		if err != nil {
			return err
		}
		for j := 0; j < b.fanout && leaf*b.fanout+j < b.accounts; j++ {
			acct, err := tx.Alloc(typeAcct, 0, 1)
			if err != nil {
				return err
			}
			if err := tx.SetData(acct, 0, initialBalance); err != nil {
				return err
			}
			if err := tx.SetPtr(dir, j, acct); err != nil {
				return err
			}
		}
		return tx.SetPtr(root, leaf, dir)
	}()
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// account navigates to account i inside x.
func (b *bank) account(x *htx, i int) (*stableheap.Ref, error) {
	root, err := x.Root(b.slot)
	if err != nil {
		return nil, err
	}
	dir, err := x.Ptr(root, i/b.fanout)
	if err != nil {
		return nil, err
	}
	return x.Ptr(dir, i%b.fanout)
}

// retry runs one transaction attempt until it does not end in a lock
// conflict; the conflicts are counted as retries, not failures.
func retry(c *client, attempt func() error) error {
	for {
		err := attempt()
		if !errors.Is(err, stableheap.ErrConflict) {
			return err
		}
		c.retries++
	}
}

// transfer moves amt from one account to another with logical AddData
// updates, committing (and so forcing the log) once.
func (b *bank) transfer(c *client, from, to int, amt uint64) error {
	return retry(c, func() error {
		x := c.begin(b.h)
		err := b.add(x, from, -amt)
		if err == nil {
			err = b.add(x, to, amt)
		}
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
}

func (b *bank) add(x *htx, i int, amt uint64) error {
	acct, err := b.account(x, i)
	if err != nil {
		return err
	}
	return x.AddData(acct, 0, amt)
}

// lookup reads the balances of accts in one read-only transaction.
func (b *bank) lookup(c *client, accts []int) error {
	return retry(c, func() error {
		x := c.begin(b.h)
		for _, i := range accts {
			acct, err := b.account(x, i)
			if err == nil {
				_, err = x.Data(acct, 0)
			}
			if err != nil {
				x.Abort()
				return err
			}
		}
		return x.Commit()
	})
}

// balances reads every balance in one transaction.
func (b *bank) balances(c *client) ([]uint64, error) {
	out := make([]uint64, b.accounts)
	err := retry(c, func() error {
		x := c.begin(b.h)
		for i := range out {
			acct, err := b.account(x, i)
			if err == nil {
				out[i], err = x.Data(acct, 0)
			}
			if err != nil {
				x.Abort()
				return err
			}
		}
		return x.Commit()
	})
	return out, err
}

// checkBalances holds the heap's balances against the ledger: money is
// conserved, and every account equals its deposit plus the acknowledged
// transfers. It returns one error per check that fails.
func checkBalances(got []uint64, l *ledger) []error {
	var errs []error
	var total uint64
	for _, v := range got {
		total += v
	}
	if total != l.deposited {
		errs = append(errs, fmt.Errorf("%w: balances sum to %d, deposited %d", errConservation, total, l.deposited))
	}
	bad, first := 0, -1
	for i, v := range got {
		if v != initialBalance+l.delta[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		errs = append(errs, fmt.Errorf("%w: %d accounts, first %d holds %d, want %d",
			errBalance, bad, first, got[first], uint64(initialBalance)+l.delta[first]))
	}
	return errs
}

// bankMix is one client's generator of transfers and lookups.
type bankMix struct {
	rng      *rand.Rand
	accounts int
	accts    []int // the accounts of the lookup being drawn
}

func (m *bankMix) pair() (int, int) {
	from := m.rng.Intn(m.accounts)
	to := m.rng.Intn(m.accounts - 1)
	if to >= from {
		to++
	}
	return from, to
}

func (m *bankMix) amount() uint64 { return uint64(1 + m.rng.Intn(100)) }

// bank-mem shape: 4096 accounts behind 64-way directories (about 17K
// words) on the in-memory devices, one client, rounds of 12 transfers and
// 4 lookups of 4 accounts, a checkpoint every 20000 commits (each followed
// by log truncation), and restarts crash cycles at the end: checkpoint,
// bmTailRounds more rounds, crash, recover (timed) and read back. A clean
// restart recovered in about 75 us, and the median of 100 moved by up to
// 25% between runs; redoing a tail of the log makes the timed recovery
// mostly the program's own work.
const (
	bmAccounts     = 4096
	bmFanout       = 64
	bmTransfers    = 12
	bmLookups      = 4
	lookupSize     = 4 // accounts a lookup reads, in every workload
	bmCheckpointAt = 20000
	restarts       = 100
	bmTailRounds   = 25
	setupRepeats   = 5
)

func runBankMem(o options) (*report, error) {
	rep := &report{}
	var b *bank
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.h.Close()
		}
		settle()
		start := time.Now()
		h := stableheap.Open(stableheap.DefaultConfig())
		var err error
		if b, err = loadBank(h, 0, bmAccounts, bmFanout); err != nil {
			return nil, err
		}
		h.Checkpoint()
		rep.setups = append(rep.setups, time.Since(start))
	}
	mix := &bankMix{rng: rand.New(rand.NewSource(o.seed*1000 + 1)), accounts: b.accounts, accts: make([]int, lookupSize)}
	led, err := bankMemRun(o, rep, b, mix)
	if err != nil {
		return nil, err
	}

	// Crash cycles, on a client of their own: the tail rounds are not
	// part of the measured window.
	tail := &clientStats{client: newClient(time.Now(), 2)}
	auditor := newClient(time.Now(), 0)
	for i := 0; i < restarts; i++ {
		b.h.Checkpoint()
		b.h.TruncateLog()
		for r := 0; r < bmTailRounds; r++ {
			bankRound(b, tail, mix, led)
		}
		if tail.failed > 0 {
			return nil, fmt.Errorf("crash cycle %d: %s", i, tail.opErrs[0])
		}
		disk, log := b.h.Crash()
		settle()
		start := time.Now()
		h, err := stableheap.Recover(stableheap.DefaultConfig(), disk, log)
		if err != nil {
			return nil, fmt.Errorf("recover %d: %w", i, err)
		}
		rep.recovers = append(rep.recovers, time.Since(start))
		b.h = h
		got, err := b.balances(auditor)
		rep.recovery.add(stableheap.Metrics{}, h.Metrics())
		if err != nil {
			return nil, fmt.Errorf("read-back after recovery %d: %w", i, err)
		}
		for _, e := range checkBalances(got, led) {
			rep.check(fmt.Errorf("after recovery %d: %w", i, e))
		}
	}
	rep.diskBytes = pageBytes(b.h)
	b.h.Close()
	return rep, nil
}

// restart closes *h cleanly and recovers it from its in-memory devices
// (timed), then runs audit on the recovered heap; a recovery also
// truncates the log.
func restart(rep *report, cfg stableheap.Config, h **stableheap.Heap, audit func() error) error {
	(*h).Close()
	disk, log := (*h).Devices()
	settle()
	start := time.Now()
	nh, err := stableheap.Recover(cfg, disk, log)
	if err != nil {
		return err
	}
	rep.recovers = append(rep.recovers, time.Since(start))
	*h = nh
	err = audit()
	rep.recovery.add(stableheap.Metrics{}, nh.Metrics())
	return err
}

// pageBytes is what a heap's page store holds: every page ever written.
// (The retained log varies with where truncation fell, by up to a 64 KiB
// segment; log volume is log_bytes_per_tx.)
func pageBytes(h *stableheap.Heap) int64 {
	d, _ := h.Devices()
	return int64(len(d.Pages()) * d.PageSize())
}

// bankMemRun runs the client for the measured window and checks the
// balances against the ledger.
func bankMemRun(o options, rep *report, b *bank, mix *bankMix) (*ledger, error) {
	cs := &clientStats{client: newClient(time.Now(), 1)}
	led := newLedger(bmAccounts)
	before, mem := b.h.Metrics(), readMem()
	end := deadline(o)
	for r := 0; time.Now().Before(end); r++ {
		cs.timedRound(o.trace && r%tracedEvery == 0, func() { bankRound(b, cs, mix, led) })
	}
	rep.addMem(mem, readMem())
	after := b.h.Metrics()
	rep.window.add(before, after)
	rep.logBytes = after.Counter("wal_bytes_appended_total") - before.Counter("wal_bytes_appended_total")
	rep.gather(cs)
	got, err := b.balances(newClient(time.Now(), 0))
	if err != nil {
		return nil, fmt.Errorf("read balances: %w", err)
	}
	for _, e := range checkBalances(got, led) {
		rep.check(e)
	}
	return led, nil
}

// bankRound runs one round of transfers and lookups into the ledger.
func bankRound(b *bank, cs *clientStats, mix *bankMix, led *ledger) {
	accts := mix.accts
	for op := 0; op < bmTransfers+bmLookups; op++ {
		cs.attempted++
		start := time.Now()
		if op%4 == 3 { // every fourth operation is a lookup
			for k := range accts {
				accts[k] = mix.rng.Intn(b.accounts)
			}
			if err := b.lookup(cs.client, accts); err != nil {
				cs.fail("lookup: %v", err)
				continue
			}
			cs.readLat = append(cs.readLat, time.Since(start))
			continue
		}
		from, to := mix.pair()
		amt := mix.amount()
		if err := b.transfer(cs.client, from, to, amt); err != nil {
			cs.fail("transfer: %v", err)
			continue
		}
		cs.txLat = append(cs.txLat, time.Since(start))
		cs.committed++
		led.delta[from] -= amt
		led.delta[to] += amt
		if cs.committed%bmCheckpointAt == 0 {
			cs.call(kCheckpoint, b.h.Checkpoint)
			b.h.TruncateLog()
		}
	}
}
