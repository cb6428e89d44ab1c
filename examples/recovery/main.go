// Recovery: a durable key-value index that survives a crash with no log.
//
// Two threads populate a log-free BST (the index of a hypothetical
// storage engine) under Lazy Release Persistency. We then simulate a
// power failure mid-run, reconstruct the exact NVM image at the crash
// instant, and perform *null recovery*: walk the durable image and
// resume — no write-ahead log, no replay, no fsck.
package main

import (
	"fmt"

	"lrp"
)

func main() {
	cfg := lrp.DefaultConfig().WithMechanism(lrp.LRP)
	cfg.Cores = 2
	cfg.TrackHB = true // enable crash analysis
	m, err := lrp.NewMachine(cfg)
	if err != nil {
		panic(err)
	}

	index := lrp.NewBST(m)
	m.RunOne(func(c *lrp.Ctx) { index.Init(c) })

	// Two writers ingest disjoint key ranges, as a storage engine's
	// ingest pipeline would.
	const perThread = 60
	m.Run([]lrp.Program{
		func(c *lrp.Ctx) {
			for k := uint64(1); k <= perThread; k++ {
				index.Insert(c, k, lrp.DefaultVal(k))
			}
		},
		func(c *lrp.Ctx) {
			for k := uint64(1); k <= perThread; k++ {
				index.Insert(c, 1000+k, lrp.DefaultVal(1000+k))
			}
		},
	})

	// Power fails at 70% of the run.
	crash := m.Time() * 7 / 10
	rep, err := lrp.Crash(m, crash)
	if err != nil {
		panic(err)
	}
	fmt.Printf("crash at %v: %d of %d writes were durable\n",
		crash, rep.PersistedWrites, rep.TotalWrites)
	fmt.Printf("consistent cut: %v\n", rep.ConsistentCut())

	// Null recovery: walk the raw durable image.
	rec, err := lrp.RecoverBST(rep.Image, index)
	if err != nil {
		fmt.Println("recovery failed:", err)
		return
	}
	fmt.Printf("recovered %d intact keys; every one passes the value-integrity check\n", len(rec.Members))

	// The recovered set is a prefix-consistent snapshot: a key is present
	// iff its insert's linearization (the linking CAS) had persisted.
	lo, hi := 0, 0
	for k := range rec.Members { // maprange:ok — counting is order-independent
		if k < 1000 {
			lo++
		} else {
			hi++
		}
	}
	fmt.Printf("thread 0 keys recovered: %d/%d; thread 1 keys recovered: %d/%d\n",
		lo, perThread, hi, perThread)
	fmt.Println("the index resumes from here — no log was ever written")
}
