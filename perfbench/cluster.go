package main

import (
	"fmt"
	"math/rand"
	"time"

	"stableheap"
	// The public stableheap.Cluster can neither crash, recover nor truncate
	// its partitions' logs; this workload needs all three, so it drives
	// the cluster through the package that stableheap.Cluster wraps.
	"stableheap/internal/shard"
)

// bank-cluster shape: 4096 accounts, each the object under its own root
// slot, spread over 4 in-memory partitions by the cluster's routing hash;
// one client; rounds of 9 single-partition transfers, 1 cross-partition
// transfer (so exactly 10% commit through two-phase commit) and 4 lookups
// of 4 random accounts of one partition; a checkpoint and log truncation
// on every partition every 20000 commits; rounds start every 2 ms (5000
// transfers a second); clRestarts crash cycles at the end.
const (
	clAccounts     = 4096
	clPartitions   = 4
	clLocal        = 9
	clCross        = 1
	clLookups      = 4
	clLoadBatch    = 256 // accounts created per set-up transaction
	clCheckpointAt = 20000
	clTailRounds   = 25 // rounds between the last checkpoint and a crash
	clRoundEvery   = 2 * time.Millisecond
	// clRestarts is the number of crash cycles. The recoveries of one run
	// differ by a fifth between their quartiles (the Go collections they
	// set off, the host's other tenants), so recover_s is the median of
	// many short cycles.
	clRestarts = 150
)

func clusterConfig() shard.Config {
	part := stableheap.DefaultConfig()
	part.NumRoots = clAccounts
	return shard.Config{Partitions: clPartitions, Part: part}
}

// clusterBank is the account set of a cluster and the slots homed on each
// partition.
type clusterBank struct {
	cl     *shard.Cluster
	byPart [][]int
}

// loadCluster creates the accounts, each holding the initial balance.
func loadCluster() (*clusterBank, error) {
	cl, err := shard.Open(clusterConfig())
	if err != nil {
		return nil, err
	}
	b := &clusterBank{cl: cl, byPart: make([][]int, clPartitions)}
	for s := 0; s < clAccounts; s++ {
		p := cl.PartitionOf(s)
		b.byPart[p] = append(b.byPart[p], s)
	}
	// Each set-up transaction stays on one partition.
	for _, slots := range b.byPart {
		for i := 0; i < len(slots); i += clLoadBatch {
			if err := b.create(slots[i:min(i+clLoadBatch, len(slots))]); err != nil {
				cl.Close()
				return nil, fmt.Errorf("create accounts: %w", err)
			}
		}
	}
	return b, nil
}

func (b *clusterBank) create(slots []int) error {
	tx := b.cl.Begin()
	for _, s := range slots {
		acct, err := tx.AllocFor(s, typeAcct, 0, 1)
		if err == nil {
			err = tx.SetData(acct, 0, initialBalance)
		}
		if err == nil {
			err = tx.SetRoot(s, acct)
		}
		if err != nil {
			_ = tx.Abort() // the set-up error is what is reported
			return err
		}
	}
	return tx.Commit()
}

func (b *clusterBank) add(x *ctx, slot int, amt uint64) error {
	acct, err := x.Root(slot)
	if err != nil {
		return err
	}
	return x.AddData(acct, 0, amt)
}

func (b *clusterBank) transfer(c *client, from, to int, amt uint64, cross bool) error {
	return retry(c, func() error {
		x := c.beginCluster(b.cl)
		err := b.add(x, from, -amt)
		if err == nil {
			err = b.add(x, to, amt)
		}
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit(cross)
	})
}

// lookup reads accounts in one transaction; it commits through two-phase
// commit when they live on several partitions.
func (b *clusterBank) lookup(c *client, slots []int) error {
	parts := map[int]bool{}
	for _, s := range slots {
		parts[b.cl.PartitionOf(s)] = true
	}
	return retry(c, func() error {
		x := c.beginCluster(b.cl)
		for _, s := range slots {
			acct, err := x.Root(s)
			if err == nil {
				_, err = x.Data(acct, 0)
			}
			if err != nil {
				x.Abort()
				return err
			}
		}
		return x.Commit(len(parts) > 1)
	})
}

func (b *clusterBank) balances(c *client) ([]uint64, error) {
	out := make([]uint64, clAccounts)
	err := retry(c, func() error {
		x := c.beginCluster(b.cl)
		for s := range out {
			acct, err := x.Root(s)
			if err == nil {
				out[s], err = x.Data(acct, 0)
			}
			if err != nil {
				x.Abort()
				return err
			}
		}
		return x.Commit(true)
	})
	return out, err
}

// clusterLedger is the bank ledger plus the accounts that cross-partition
// transfers touched.
type clusterLedger struct {
	*ledger
	crossed []bool
}

// checkCluster holds the balances against the ledger: money is conserved
// across partitions, every cross-partition transfer shows on both legs or
// on neither, and every other account equals its acknowledged transfers.
func checkCluster(got []uint64, l *clusterLedger) []error {
	var errs []error
	var total uint64
	for _, v := range got {
		total += v
	}
	if total != l.deposited {
		errs = append(errs, fmt.Errorf("%w across partitions: balances sum to %d, deposited %d", errConservation, total, l.deposited))
	}
	var cross, local int
	for s, v := range got {
		if v == initialBalance+l.delta[s] {
			continue
		}
		if l.crossed[s] {
			cross++
		} else {
			local++
		}
	}
	if cross > 0 {
		errs = append(errs, fmt.Errorf("%w: %d accounts", errCrossLegs, cross))
	}
	if local > 0 {
		errs = append(errs, fmt.Errorf("%w: %d accounts", errBalance, local))
	}
	return errs
}

func runBankCluster(o options) (*report, error) {
	rep := &report{}
	var b *clusterBank
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.cl.Close()
		}
		settle()
		start := time.Now()
		var err error
		if b, err = loadCluster(); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	cs := &clientStats{client: newClient(time.Now(), 1)}
	led := &clusterLedger{ledger: newLedger(clAccounts), crossed: make([]bool, clAccounts)}
	rng := rand.New(rand.NewSource(o.seed*1000 + 1))
	if err := clusterRun(o, rep, b, cs, led, rng); err != nil {
		return nil, err
	}

	// Crash cycles: checkpoint, a fixed tail of seeded rounds, crash every
	// partition and the coordinator, recover (timed), and read back.
	tail := &clientStats{client: newClient(time.Now(), 2)}
	auditor := newClient(time.Now(), 0)
	for i := 0; i < clRestarts; i++ {
		b.checkpoint()
		for r := 0; r < clTailRounds; r++ {
			clusterRound(b, tail, led, rng)
		}
		if tail.failed > 0 {
			return nil, fmt.Errorf("crash cycle %d: %s", i, tail.opErrs[0])
		}
		crashed := b.cl.Crash()
		settle()
		start := time.Now()
		cl, err := shard.Recover(clusterConfig(), crashed)
		if err != nil {
			return nil, fmt.Errorf("recover %d: %w", i, err)
		}
		rep.recovers = append(rep.recovers, time.Since(start))
		b.cl = cl
		got, err := b.balances(auditor)
		rep.recovery.add(stableheap.Metrics{}, cl.Metrics())
		if err != nil {
			return nil, fmt.Errorf("read-back after recovery %d: %w", i, err)
		}
		for _, e := range checkCluster(got, led) {
			rep.check(fmt.Errorf("after recovery %d: %w", i, e))
		}
	}
	for p := 0; p < clPartitions; p++ {
		rep.diskBytes += pageBytes(stableheap.AdoptInternal(b.cl.Partition(p)))
	}
	b.cl.Close()
	return rep, nil
}

// checkpoint checkpoints every partition and truncates its log.
func (b *clusterBank) checkpoint() {
	b.cl.Checkpoint()
	for p := 0; p < clPartitions; p++ {
		b.cl.Partition(p).TruncateLog()
	}
}

// clusterRun runs the client for the measured window and checks the
// balances against the ledger. Rounds start on a fixed schedule, one every
// clRoundEvery, so that every run commits the same number of
// cross-partition transactions; the time between rounds is off the
// throughput clock.
func clusterRun(o options, rep *report, b *clusterBank, cs *clientStats, led *clusterLedger, rng *rand.Rand) error {
	before, mem := b.cl.Metrics(), readMem()
	start := time.Now()
	rounds := int(time.Duration(o.seconds*float64(time.Second)) / clRoundEvery)
	for r := 0; r < rounds; r++ {
		time.Sleep(time.Until(start.Add(time.Duration(r) * clRoundEvery)))
		cs.timedRound(o.trace && r%tracedEvery == 0, func() {
			if clusterRound(b, cs, led, rng) {
				cs.call(kCheckpoint, b.checkpoint)
			}
		})
	}
	rep.addMem(mem, readMem())
	after := b.cl.Metrics()
	rep.window.add(before, after)
	rep.logBytes = after.Counter("wal_bytes_appended_total") - before.Counter("wal_bytes_appended_total")
	rep.gather(cs)
	got, err := b.balances(newClient(time.Now(), 0))
	if err != nil {
		return fmt.Errorf("read balances: %w", err)
	}
	for _, e := range checkCluster(got, led) {
		rep.check(e)
	}
	return nil
}

// clusterRound runs one round of transfers and lookups; it reports
// whether the round crossed a multiple of clCheckpointAt commits.
func clusterRound(b *clusterBank, cs *clientStats, led *clusterLedger, rng *rand.Rand) bool {
	slots := make([]int, lookupSize)
	checkpoint := false
	for op := 0; op < clLocal+clCross+clLookups; op++ {
		cs.attempted++
		start := time.Now()
		if op%7 == 3 || op%7 == 6 { // two lookups in every seven operations
			part := b.byPart[rng.Intn(clPartitions)]
			for k := range slots {
				slots[k] = part[rng.Intn(len(part))]
			}
			if err := b.lookup(cs.client, slots); err != nil {
				cs.fail("lookup: %v", err)
				continue
			}
			cs.readLat = append(cs.readLat, time.Since(start))
			continue
		}
		cross := op == 0 // the round's one cross-partition transfer
		from, to := b.pair(rng, cross)
		amt := uint64(1 + rng.Intn(100))
		if err := b.transfer(cs.client, from, to, amt, cross); err != nil {
			cs.fail("transfer: %v", err)
			continue
		}
		cs.txLat = append(cs.txLat, time.Since(start))
		cs.committed++
		checkpoint = checkpoint || cs.committed%clCheckpointAt == 0
		led.delta[from] -= amt
		led.delta[to] += amt
		if cross {
			led.crossed[from], led.crossed[to] = true, true
		}
	}
	return checkpoint
}

// pair picks two distinct accounts on one partition, or on two different
// partitions when cross is set.
func (b *clusterBank) pair(rng *rand.Rand, cross bool) (int, int) {
	p := rng.Intn(clPartitions)
	q := p
	if cross {
		q = (p + 1 + rng.Intn(clPartitions-1)) % clPartitions
	}
	from := b.byPart[p][rng.Intn(len(b.byPart[p]))]
	for {
		to := b.byPart[q][rng.Intn(len(b.byPart[q]))]
		if to != from {
			return from, to
		}
	}
}
