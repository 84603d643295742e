package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"stableheap"
)

// selfCase is one check applied to real program output: with want nil the
// ledger is the true one and no check may fail; otherwise one ledger entry
// was perturbed and the check that want names must fail.
type selfCase struct {
	workload string
	want     error
	got      []error
}

// runSelfTest runs a small instance of each workload, applies every check
// to the program's output with the true ledger and with a perturbed one,
// and reports whether each check fails exactly when it should.
func runSelfTest(o options) int {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.dir, "selftest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var cases []selfCase
	for _, f := range []func(string) ([]selfCase, error){selfTestBank, selfTestOO7, selfTestRecover, selfTestCluster} {
		cs, err := f(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			return 1
		}
		cases = append(cases, cs...)
	}
	bad := 0
	for _, c := range cases {
		ok := len(c.got) == 0
		what := "true ledger passes every check"
		if c.want != nil {
			what = "perturbed ledger fails: " + c.want.Error()
			ok = false
			for _, e := range c.got {
				ok = ok || errors.Is(e, c.want)
			}
		}
		verdict := "ok"
		if !ok {
			verdict = fmt.Sprintf("WRONG %v", c.got)
			bad++
		}
		fmt.Printf("selftest %-13s %-80s %s\n", c.workload, what, verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func selfTestBank(string) ([]selfCase, error) {
	h := stableheap.Open(stableheap.DefaultConfig())
	defer h.Close()
	const accounts = 256
	b, err := loadBank(h, 0, accounts, 16)
	if err != nil {
		return nil, err
	}
	c := newClient(time.Now(), 0)
	led := newLedger(accounts)
	mix := &bankMix{rng: rand.New(rand.NewSource(1)), accounts: accounts}
	for i := 0; i < 50; i++ {
		from, to := mix.pair()
		amt := mix.amount()
		if err := b.transfer(c, from, to, amt); err != nil {
			return nil, err
		}
		led.delta[from] -= amt
		led.delta[to] += amt
	}
	got, err := b.balances(c)
	if err != nil {
		return nil, err
	}
	deposit, balance := led.clone(), led.clone()
	deposit.deposited++
	balance.delta[7]++
	return []selfCase{
		{"bank-mem", nil, checkBalances(got, led)},
		{"bank-mem", errConservation, checkBalances(got, deposit)},
		{"bank-mem", errBalance, checkBalances(got, balance)},
	}, nil
}

func selfTestOO7(string) ([]selfCase, error) {
	h := stableheap.Open(oo7Config())
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	o, err := buildOO7(h, 0, oo7Shape{assemblies: 4, composites: 4, atoms: 6, docWords: 4, conns: 2}, rng)
	if err != nil {
		return nil, err
	}
	cs := &clientStats{client: newClient(time.Now(), 0)}
	for i := 0; i < 200; i++ {
		oo7Op(o, cs, rng)
	}
	if cs.failed > 0 {
		return nil, errors.New(cs.opErrs[0])
	}
	cases := []selfCase{{"oo7-churn", nil, errs(o.checkModule(cs.client))}}
	o.vals[5] ^= 1
	cases = append(cases, selfCase{"oo7-churn", errAtoms, errs(o.checkModule(cs.client))})
	o.vals[5] ^= 1
	o.wantAtoms++
	cases = append(cases, selfCase{"oo7-churn", errAtomCount, errs(o.checkModule(cs.client))})
	o.wantAtoms--
	return cases, nil
}

func selfTestRecover(string) ([]selfCase, error) {
	st, err := newMemStore()
	if err != nil {
		return nil, err
	}
	cs := &clientStats{client: newClient(time.Now(), 0)}
	led, err := crashCycle(&report{}, cs, rand.New(rand.NewSource(1)), st)
	if err != nil {
		return nil, err
	}
	if cs.failed > 0 {
		return nil, errors.New(cs.opErrs[0])
	}
	h, err := st.recover()
	if err != nil {
		return nil, err
	}
	defer h.Close()
	b := &bank{h: h, slot: 0, accounts: rcAccounts, fanout: rcFanout}
	got, err := b.balances(cs.client)
	if err != nil {
		return nil, err
	}
	items, err := readInserts(cs.client, h)
	if err != nil {
		return nil, err
	}
	perturb := func(f func(l *cycleLedger)) []error {
		l := &cycleLedger{ledger: led.clone(), inserts: append([]uint64(nil), led.inserts...), inflight: led.inflight}
		f(l)
		return checkCycle(got, items, l)
	}
	return []selfCase{
		{"recover-mem", nil, checkCycle(got, items, led)},
		{"recover-mem", errConservation, perturb(func(l *cycleLedger) { l.deposited++ })},
		{"recover-mem", errBalance, perturb(func(l *cycleLedger) { l.delta[3]++ })},
		{"recover-mem", errInserts, perturb(func(l *cycleLedger) { l.inserts[rcSlots-1]++ })},
		{"recover-mem", errInFlight, perturb(func(l *cycleLedger) { l.inflight = true })},
	}, nil
}

func selfTestCluster(string) ([]selfCase, error) {
	b, err := loadCluster()
	if err != nil {
		return nil, err
	}
	defer b.cl.Close()
	c := newClient(time.Now(), 0)
	rng := rand.New(rand.NewSource(1))
	led := &clusterLedger{ledger: newLedger(clAccounts), crossed: make([]bool, clAccounts)}
	crossSlot, localSlot := -1, -1
	for i := 0; i < 40; i++ {
		cross := i%4 == 0
		from, to := b.pair(rng, cross)
		amt := uint64(1 + rng.Intn(100))
		if err := b.transfer(c, from, to, amt, cross); err != nil {
			return nil, err
		}
		led.delta[from] -= amt
		led.delta[to] += amt
		if cross {
			led.crossed[from], led.crossed[to] = true, true
			crossSlot = to
		}
	}
	for s := range led.crossed {
		if !led.crossed[s] {
			localSlot = s
			break
		}
	}
	got, err := b.balances(c)
	if err != nil {
		return nil, err
	}
	perturb := func(f func(l *clusterLedger)) []error {
		l := &clusterLedger{ledger: led.clone(), crossed: led.crossed}
		f(l)
		return checkCluster(got, l)
	}
	return []selfCase{
		{"bank-cluster", nil, checkCluster(got, led)},
		{"bank-cluster", errConservation, perturb(func(l *clusterLedger) { l.deposited++ })},
		{"bank-cluster", errCrossLegs, perturb(func(l *clusterLedger) { l.delta[crossSlot]++ })},
		{"bank-cluster", errBalance, perturb(func(l *clusterLedger) { l.delta[localSlot]++ })},
	}, nil
}

// errs wraps a single check result as a list.
func errs(err error) []error {
	if err == nil {
		return nil
	}
	return []error{err}
}
