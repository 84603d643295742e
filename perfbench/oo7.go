package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"stableheap"
)

const (
	typeModule uint16 = 110
	typeAssy   uint16 = 111
	typeComp   uint16 = 112
	typeAtom   uint16 = 113
)

// oo7Shape is an OO7-style module: assemblies of composite parts, each a
// small graph of atomic parts with connections among its own atoms.
type oo7Shape struct {
	assemblies, composites, atoms, docWords, conns int
}

// oo7 is a module under one stable root, with the benchmark's ledger of
// every atom's value word.
type oo7 struct {
	h     *stableheap.Heap
	slot  int
	shape oo7Shape
	vals  []uint64 // value word of atom (a, c, i), at index atomIndex(a, c, i)
	// wantAtoms is the number of atoms a full traversal must reach.
	wantAtoms int
}

func (o *oo7) atomIndex(a, c, i int) int { return (a*o.shape.composites+c)*o.shape.atoms + i }

// atomID is the identity word of atom (a, c, i): a pure function of its
// indices, so a traversal can check each atom it reaches.
func (o *oo7) atomID(a, c, i int) uint64 { return uint64(o.atomIndex(a, c, i))<<8 | 0xA7 }

func buildOO7(h *stableheap.Heap, slot int, shape oo7Shape, rng *rand.Rand) (*oo7, error) {
	n := shape.assemblies * shape.composites * shape.atoms
	o := &oo7{h: h, slot: slot, shape: shape, vals: make([]uint64, n), wantAtoms: n}
	c := newClient(time.Now(), 0)
	err := retry(c, func() error {
		x := c.begin(h)
		m, err := x.Alloc(typeModule, shape.assemblies, 1)
		if err == nil {
			err = x.SetRoot(slot, m)
		}
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
	if err != nil {
		return nil, fmt.Errorf("build module: %w", err)
	}
	// One assembly per transaction, as a bulk load would commit it.
	for a := 0; a < shape.assemblies; a++ {
		err := retry(c, func() error {
			x := c.begin(h)
			err := o.buildAssembly(x, a, rng)
			if err != nil {
				x.Abort()
				return err
			}
			return x.Commit()
		})
		if err != nil {
			return nil, fmt.Errorf("build assembly %d: %w", a, err)
		}
	}
	return o, nil
}

func (o *oo7) buildAssembly(x *htx, a int, rng *rand.Rand) error {
	m, err := x.Root(o.slot)
	if err != nil {
		return err
	}
	assy, err := x.Alloc(typeAssy, o.shape.composites, 1)
	if err != nil {
		return err
	}
	if err := x.SetData(assy, 0, uint64(a)); err != nil {
		return err
	}
	for c := 0; c < o.shape.composites; c++ {
		comp, err := o.buildComposite(x, a, c, rng)
		if err != nil {
			return err
		}
		if err := x.SetPtr(assy, c, comp); err != nil {
			return err
		}
	}
	return x.SetPtr(m, a, assy)
}

// buildComposite allocates composite (a, c) with fresh atoms and random
// connections, recording the atoms' values in pending order: the caller
// commits them to the ledger only once the transaction is acknowledged.
func (o *oo7) buildComposite(x *htx, a, c int, rng *rand.Rand) (*stableheap.Ref, error) {
	s := o.shape
	comp, err := x.Alloc(typeComp, s.atoms, s.docWords)
	if err != nil {
		return nil, err
	}
	for w := 0; w < s.docWords; w++ {
		if err := x.SetData(comp, w, uint64(a*s.composites+c)<<16|uint64(w)); err != nil {
			return nil, err
		}
	}
	atoms := make([]*stableheap.Ref, s.atoms)
	for i := range atoms {
		atom, err := x.Alloc(typeAtom, s.conns, 2)
		if err != nil {
			return nil, err
		}
		v := rng.Uint64() % 1000
		if err := x.SetData(atom, 0, o.atomID(a, c, i)); err != nil {
			return nil, err
		}
		if err := x.SetData(atom, 1, v); err != nil {
			return nil, err
		}
		o.vals[o.atomIndex(a, c, i)] = v
		atoms[i] = atom
		if err := x.SetPtr(comp, i, atom); err != nil {
			return nil, err
		}
	}
	for _, atom := range atoms {
		for k := 0; k < s.conns; k++ {
			if err := x.SetPtr(atom, k, atoms[rng.Intn(len(atoms))]); err != nil {
				return nil, err
			}
		}
	}
	return comp, nil
}

// composite navigates to composite (a, c).
func (o *oo7) composite(x *htx, a, c int) (*stableheap.Ref, error) {
	m, err := x.Root(o.slot)
	if err != nil {
		return nil, err
	}
	assy, err := x.Ptr(m, a)
	if err != nil {
		return nil, err
	}
	return x.Ptr(assy, c)
}

// replace swaps composite (a, c) for a freshly built one: the new objects
// become stable at commit and the old ones become stable garbage. On
// failure the ledger is restored from saved.
func (o *oo7) replace(c *client, a, ci int, rng *rand.Rand) error {
	saved := append([]uint64(nil), o.vals[o.atomIndex(a, ci, 0):o.atomIndex(a, ci+1, 0)]...)
	err := retry(c, func() error {
		x := c.begin(o.h)
		err := func() error {
			m, err := x.Root(o.slot)
			if err != nil {
				return err
			}
			assy, err := x.Ptr(m, a)
			if err != nil {
				return err
			}
			comp, err := o.buildComposite(x, a, ci, rng)
			if err != nil {
				return err
			}
			return x.SetPtr(assy, ci, comp)
		}()
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
	if err != nil {
		copy(o.vals[o.atomIndex(a, ci, 0):], saved)
	}
	return err
}

// update rewrites the value word of one atom in every composite of
// assembly a (OO7's T2a), each a logged update, in one transaction.
func (o *oo7) update(c *client, a int, rng *rand.Rand) error {
	s := o.shape
	atom := make([]int, s.composites)
	val := make([]uint64, s.composites)
	for ci := range atom {
		atom[ci], val[ci] = rng.Intn(s.atoms), rng.Uint64()%1000
	}
	err := retry(c, func() error {
		x := c.begin(o.h)
		err := func() error {
			for ci := range atom {
				comp, err := o.composite(x, a, ci)
				if err != nil {
					return err
				}
				r, err := x.Ptr(comp, atom[ci])
				if err != nil {
					return err
				}
				if err := x.SetData(r, 1, val[ci]); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
	if err == nil {
		for ci := range atom {
			o.vals[o.atomIndex(a, ci, atom[ci])] = val[ci]
		}
	}
	return err
}

// traverse reads every atom of assemblies [from, to) with their
// connections in one read-only transaction, holding each atom against the
// ledger. It returns the number of atoms reached.
func (o *oo7) traverse(c *client, from, to int) (int, error) {
	var n int
	err := retry(c, func() error {
		n = 0
		x := c.begin(o.h)
		err := o.walk(x, from, to, &n)
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
	return n, err
}

func (o *oo7) walk(x *htx, from, to int, n *int) error {
	m, err := x.Root(o.slot)
	if err != nil {
		return err
	}
	for a := from; a < to; a++ {
		assy, err := x.Ptr(m, a)
		if err != nil {
			return err
		}
		for ci := 0; ci < o.shape.composites; ci++ {
			if err := o.walkComposite(x, assy, a, ci, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkComposite reads every atom of composite (a, ci) of assy, with its
// connections, holding each atom against the ledger.
func (o *oo7) walkComposite(x *htx, assy *stableheap.Ref, a, ci int, n *int) error {
	comp, err := x.Ptr(assy, ci)
	if err != nil {
		return err
	}
	for i := 0; i < o.shape.atoms; i++ {
		atom, err := x.Ptr(comp, i)
		if err != nil {
			return err
		}
		id, err := x.Data(atom, 0)
		if err != nil {
			return err
		}
		v, err := x.Data(atom, 1)
		if err != nil {
			return err
		}
		if id != o.atomID(a, ci, i) || v != o.vals[o.atomIndex(a, ci, i)] {
			return fmt.Errorf("%w: atom (%d,%d,%d) holds id %#x value %d, want %#x %d", errAtoms,
				a, ci, i, id, v, o.atomID(a, ci, i), o.vals[o.atomIndex(a, ci, i)])
		}
		*n++
		for k := 0; k < o.shape.conns; k++ {
			conn, err := x.Ptr(atom, k)
			if err != nil {
				return err
			}
			if conn != nil {
				if _, err := x.Data(conn, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// traverseComposite reads composite (a, ci) in one read-only transaction.
func (o *oo7) traverseComposite(c *client, a, ci int) error {
	return retry(c, func() error {
		var n int
		x := c.begin(o.h)
		err := func() error {
			m, err := x.Root(o.slot)
			if err != nil {
				return err
			}
			assy, err := x.Ptr(m, a)
			if err != nil {
				return err
			}
			return o.walkComposite(x, assy, a, ci, &n)
		}()
		if err != nil {
			x.Abort()
			return err
		}
		return x.Commit()
	})
}

// checkModule is the full-traversal check: exactly assemblies × composites
// × atoms atoms, each with its identity and ledger value.
func (o *oo7) checkModule(c *client) error {
	n, err := o.traverse(c, 0, o.shape.assemblies)
	if err != nil {
		return fmt.Errorf("full traversal: %w", err)
	}
	if n != o.wantAtoms {
		return fmt.Errorf("%w: full traversal reached %d atoms, want %d", errAtomCount, n, o.wantAtoms)
	}
	return nil
}

// oo7-churn shape: the module of 64 assemblies × 16 composites × 6 atoms
// (about 43K words) in stable semispaces of 128Ki words, so that the
// stable collector runs every thousand or so replacements; the volatile area
// and the nursery keep their defaults. One client. A round is oo7Ops
// seeded operations (half replacements, a quarter updates, a quarter
// one-composite traversals), then one full-traversal check and one run of
// the nursery fault probe; the check and the probe are off the throughput
// clock.
var oo7Default = oo7Shape{assemblies: 64, composites: 16, atoms: 6, docWords: 4, conns: 2}

const (
	oo7Ops          = 1000
	oo7CheckpointAt = 500 // commits between checkpoints
)

func oo7Config() stableheap.Config {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 128 << 10
	return cfg
}

// setupOO7 builds the module and settles the bulk load with a full
// volatile collection, so that none of the build's objects is still in
// the nursery when the churn starts (see the nursery fault in README.md).
func setupOO7(seed int64) (*oo7, error) {
	h := stableheap.Open(oo7Config())
	o, err := buildOO7(h, 0, oo7Default, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if _, err := h.CollectVolatile(); err != nil {
		return nil, fmt.Errorf("settle bulk load: %w", err)
	}
	h.Checkpoint()
	return o, nil
}

// oo7Op runs one seeded operation of the mix.
func oo7Op(o *oo7, cs *clientStats, rng *rand.Rand) {
	cs.attempted++
	a := rng.Intn(o.shape.assemblies)
	start := time.Now()
	switch rng.Intn(4) {
	case 0, 1:
		ci := rng.Intn(o.shape.composites)
		if err := o.replace(cs.client, a, ci, rng); err != nil {
			cs.fail("replace: %v", err)
			return
		}
	case 2:
		if err := o.update(cs.client, a, rng); err != nil {
			cs.fail("update: %v", err)
			return
		}
	default:
		if err := o.traverseComposite(cs.client, a, rng.Intn(o.shape.composites)); err != nil {
			cs.fail("traverse: %v", err)
			return
		}
		cs.readLat = append(cs.readLat, time.Since(start))
		return
	}
	cs.txLat = append(cs.txLat, time.Since(start))
	cs.committed++
	if cs.committed%oo7CheckpointAt == 0 {
		cs.call(kCheckpoint, o.h.Checkpoint)
		o.h.TruncateLog()
	}
}

func runOO7(opt options) (*report, error) {
	rep := &report{}
	var o *oo7
	for i := 0; i < setupRepeats; i++ {
		if o != nil {
			o.h.Close()
		}
		settle()
		start := time.Now()
		var err error
		if o, err = setupOO7(opt.seed); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(start))
	}
	origin := time.Now()
	cs := &clientStats{client: newClient(origin, 1)}
	checker := newClient(origin, 2)
	rng := rand.New(rand.NewSource(opt.seed*1000 + 1))
	before, mem := o.h.Metrics(), readMem()
	end := deadline(opt)
	for r := 0; time.Now().Before(end); r++ {
		cs.timedRound(opt.trace && r%tracedEvery == 0, func() {
			for op := 0; op < oo7Ops; op++ {
				oo7Op(o, cs, rng)
			}
		})
		cs.attempted++
		if err := o.checkModule(checker); err != nil {
			cs.fail("check: %v", err)
			rep.check(err)
		}
		cs.attempted++
		if err := nurseryProbe(); err != nil {
			cs.fail("nursery probe: %v", err)
		}
		// Collect the probe's garbage here, off the clock, so that every
		// round starts from the same Go heap.
		settle()
	}
	rep.addMem(mem, readMem())
	after := o.h.Metrics()
	rep.window.add(before, after)
	rep.logBytes = after.Counter("wal_bytes_appended_total") - before.Counter("wal_bytes_appended_total")
	rep.gather(cs)

	// Restarts, each followed by the full check; the footprint is measured
	// after the last one.
	for i := 0; i < restarts; i++ {
		err := restart(rep, oo7Config(), &o.h, func() error {
			if err := o.checkModule(checker); err != nil {
				rep.check(fmt.Errorf("after restart %d: %w", i, err))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
	}
	rep.diskBytes = pageBytes(o.h)
	o.h.Close()
	return rep, nil
}

// probeShape is the smallest module of this layout on which the nursery
// fault shows (24 assemblies do not show it).
var probeShape = oo7Shape{assemblies: 32, composites: 16, atoms: 6, docWords: 4, conns: 2}

// nurseryProbe reproduces the nursery fault on fixed inputs: a seed-1
// module is built in a heap of 128Ki stable and 64Ki volatile words
// without settling the bulk load, composites are replaced until the first
// minor collection runs inside a replacement, and a full traversal must
// then find every atom intact. It fails on every run while the fault
// stands; its inputs never depend on the benchmark's seed.
func nurseryProbe() error {
	cfg := stableheap.DefaultConfig()
	cfg.StableWords = 128 << 10
	cfg.VolatileWords = 64 << 10
	h := stableheap.Open(cfg)
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	o, err := buildOO7(h, 0, probeShape, rng)
	if err != nil {
		return err
	}
	c := newClient(time.Now(), 0)
	minors := h.Metrics().Counter("vgc_nursery_minor_total")
	for i := 0; h.Metrics().Counter("vgc_nursery_minor_total") == minors; i++ {
		if i == 10000 {
			return errors.New("no minor collection after 10000 replacements")
		}
		if err := o.replace(c, rng.Intn(o.shape.assemblies), rng.Intn(o.shape.composites), rng); err != nil {
			return err
		}
	}
	return o.checkModule(c)
}
