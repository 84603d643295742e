package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"stableheap"
)

// reproductions maps each known fault to a command that shows it; see
// README.md. Each prints one line per attempt and returns how many failed.
var reproductions = map[string]func(o options, n int) (int, error){
	"nursery":         reproNursery,
	"redo":            reproRedo,
	"nursery-recover": reproNurseryRecover,
}

func runRepro(o options, name string, n int) int {
	fn, ok := reproductions[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -repro %q (nursery, redo, nursery-recover)\n", name)
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.dir, "repro-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	failed, err := fn(o, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("repro %s: %d of %d attempts failed\n", name, failed, n)
	return 0
}

func verdict(i int, err error) int {
	if err != nil {
		fmt.Printf("attempt %d: failed: %v\n", i, err)
		return 1
	}
	fmt.Printf("attempt %d: ok\n", i)
	return 0
}

// reproNursery runs the oo7-churn nursery probe n times.
func reproNursery(_ options, n int) (int, error) {
	failed := 0
	for i := 0; i < n; i++ {
		failed += verdict(i, nurseryProbe())
	}
	return failed, nil
}

// reproRedo runs the recover-mem cycle on files, with the default
// recovery configuration: its redo span (about 1000 records) fills
// several log scan batches.
func reproRedo(o options, n int) (int, error) {
	st, err := newFileStore(o.dir)
	if err != nil {
		return 0, err
	}
	failed := 0
	cs := &clientStats{client: newClient(time.Now(), 0)}
	rng := rand.New(rand.NewSource(o.seed))
	for i := 0; i < n; i++ {
		led, err := crashCycle(&report{}, cs, rng, st)
		if err != nil {
			return failed, err
		}
		h, err := recoverAndAudit(&report{}, cs, st, led)
		if h != nil {
			h.Close()
		}
		failed += verdict(i, err)
	}
	return failed, nil
}

// reproNurseryRecover crashes the oo7-churn heap after a checkpoint and a
// tail of seeded operations, recovers it from its devices and runs the
// full check, once per seed from -seed on.
func reproNurseryRecover(o options, n int) (int, error) {
	failed := 0
	for i := 0; i < n; i++ {
		failed += verdict(i, crashOO7(o.seed+int64(i)))
	}
	return failed, nil
}

func crashOO7(seed int64) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	o, err := setupOO7(seed)
	if err != nil {
		return err
	}
	cs := &clientStats{client: newClient(time.Now(), 0)}
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 3000; op++ {
		oo7Op(o, cs, rng)
	}
	o.h.Checkpoint()
	for op := 0; op < 200; op++ {
		oo7Op(o, cs, rng)
	}
	if cs.failed > 0 {
		return fmt.Errorf("before the crash: %s", cs.opErrs[0])
	}
	disk, log := o.h.Crash()
	h, err := stableheap.Recover(oo7Config(), disk, log)
	if err != nil {
		return err
	}
	defer h.Close()
	o.h = h
	return o.checkModule(cs.client)
}
