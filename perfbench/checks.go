package main

import "errors"

// The checks the workloads make of the program's outputs. Every failed
// check wraps one of these, so that the self-test can tell them apart.
var (
	errConservation = errors.New("money not conserved")
	errBalance      = errors.New("balances differ from the acknowledged transfers")
	errCrossLegs    = errors.New("cross-partition transfers not applied on both legs or on neither")
	errAtoms        = errors.New("atom differs from its identity or ledger value")
	errAtomCount    = errors.New("wrong number of atoms")
	errInserts      = errors.New("acknowledged insert missing or wrong")
	errInFlight     = errors.New("in-flight transaction's writes visible after recovery")
)
