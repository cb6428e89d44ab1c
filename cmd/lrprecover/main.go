// Command lrprecover is a crash + null-recovery walkthrough: it builds a
// log-free linked list under a chosen mechanism, simulates a crash in the
// middle of the run, reconstructs the durable NVM image at that instant,
// and runs the null-recovery walker on it — printing either the recovered
// contents or the corruption the walker found.
//
//	lrprecover -mechanism LRP   # recovery always succeeds
//	lrprecover -mechanism ARP   # walker may find a half-persisted node,
//	                            # or keys silently vanish from the cut
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"lrp"
)

func main() {
	var (
		mechName = flag.String("mechanism", "LRP", "mechanism: "+strings.Join(lrp.MechanismNames(), "|"))
		keys     = flag.Int("keys", 40, "keys inserted by each of the two threads")
		crashPct = flag.Int("crash", 60, "crash instant as a percentage of the execution")
		seed     = flag.Uint64("seed", 7, "deterministic seed")
	)
	flag.Parse()

	k, err := lrp.ParseMechanism(*mechName)
	if err != nil {
		fail(err)
	}
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = 2
	cfg.TrackHB = true
	m, err := lrp.NewMachine(cfg)
	if err != nil {
		fail(err)
	}

	list := lrp.NewLinkedList(m)
	n := uint64(*keys)
	m.Run([]lrp.Program{
		func(c *lrp.Ctx) {
			for key := uint64(1); key <= n; key++ {
				list.Insert(c, key*2-1, lrp.DefaultVal(key*2-1))
			}
		},
		func(c *lrp.Ctx) {
			for key := uint64(1); key <= n; key++ {
				list.Insert(c, key*2, lrp.DefaultVal(key*2))
			}
		},
	})
	_ = seed

	crash := m.Time() * lrp.Time(*crashPct) / 100
	fmt.Printf("execution finished at %v; simulating a crash at %v (%d%%)\n", m.Time(), crash, *crashPct)

	rep, err := lrp.Crash(m, crash)
	if err != nil {
		fail(err)
	}
	fmt.Printf("durable at crash: %d of %d writes\n", rep.PersistedWrites, rep.TotalWrites)
	if rep.ConsistentCut() {
		fmt.Println("consistent-cut check: PASS — the NVM holds a consistent cut of the execution")
	} else {
		fmt.Printf("consistent-cut check: FAIL — %d violations, e.g. %v\n",
			len(rep.RPViolations), rep.RPViolations[0])
	}

	fmt.Println("\nnull recovery: walking the durable image...")
	rec, err := lrp.RecoverList(rep.Image, list)
	if err != nil {
		fmt.Printf("recovery FAILED: %v\n", err)
		fmt.Println("(a log-free structure cannot be recovered from this image — the paper's §3 hazard)")
		os.Exit(1)
	}
	var got []int
	for key := range rec.Members { // maprange:ok — collected, then sorted
		got = append(got, int(key))
	}
	sort.Ints(got)
	fmt.Printf("recovered %d keys (of %d inserted before the crash window): %v\n",
		len(got), 2*n, compact(got))
	if rep.ConsistentCut() {
		fmt.Println("every recovered key is fully intact; the structure resumes with no log replay.")
	} else {
		fmt.Println("WARNING: the image was not a consistent cut; the walk may have silently lost suffixes.")
	}
}

// compact renders a sorted int slice as ranges ("1-5,8,10-12").
func compact(xs []int) string {
	if len(xs) == 0 {
		return "(none)"
	}
	out := ""
	for i := 0; i < len(xs); {
		j := i
		for j+1 < len(xs) && xs[j+1] == xs[j]+1 {
			j++
		}
		if out != "" {
			out += ","
		}
		if j == i {
			out += fmt.Sprintf("%d", xs[i])
		} else {
			out += fmt.Sprintf("%d-%d", xs[i], xs[j])
		}
		i = j + 1
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lrprecover:", err)
	os.Exit(1)
}
