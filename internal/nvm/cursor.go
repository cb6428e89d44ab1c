package nvm

import (
	"slices"
	"sort"
	"sync/atomic"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/mm"
)

// Cursor replays the persist log as a single durable image advanced
// monotonically through crash instants. Exhaustive crash-boundary sweeps
// visit thousands of instants; reconstructing each with ImageAt costs a
// full clone-and-replay per instant, while a Cursor applies only the
// persists that completed since the previous instant, plus a small torn
// overlay for the lines in flight (which it undoes on the next advance).
//
// The image returned by AdvanceTo aliases the cursor's working memory: it
// is valid until the next AdvanceTo call. Callers that need a snapshot
// must Clone it. Changed tells them whether the last advance may have
// altered the image, so work derived from an unchanged image can be
// reused.
type Cursor struct {
	sub     *Subsystem
	img     *mm.Memory
	at      engine.Time
	changed bool

	byDone   []cursorEvent
	byStart  []cursorEvent
	nextDone int
	nextSta  int

	inflight []cursorEvent
	saved    []savedWord
	// torn lists the log positions of the persists whose tears the
	// current overlay holds, in overlay order; prevTorn the previous
	// instant's.
	torn, prevTorn []int
}

type cursorEvent struct {
	ev  Event
	idx int // position in the persist log (tie-break for equal times)
}

type savedWord struct {
	addr isa.Addr
	old  uint64
}

// NewCursor builds a cursor over the subsystem's persist log, starting
// from base (nil: all-zero initial image) at time -infinity.
func (s *Subsystem) NewCursor(base *mm.Memory) *Cursor {
	c := &Cursor{sub: s, at: -1 << 62}
	if base != nil {
		c.img = base.Clone()
	} else {
		c.img = mm.NewMemory()
	}
	c.byDone = make([]cursorEvent, len(s.log))
	for i, e := range s.log {
		c.byDone[i] = cursorEvent{ev: e, idx: i}
	}
	c.byStart = append([]cursorEvent(nil), c.byDone...)
	sort.SliceStable(c.byDone, func(i, j int) bool { return c.byDone[i].ev.Done < c.byDone[j].ev.Done })
	sort.SliceStable(c.byStart, func(i, j int) bool { return c.byStart[i].ev.Start < c.byStart[j].ev.Start })
	return c
}

// AdvanceTo moves the cursor to the crash instant and returns the durable
// image there — identical, word for word, to ImageAt(crash, base). The
// instant must not precede the previous call's.
func (c *Cursor) AdvanceTo(crash engine.Time) *mm.Memory {
	if crash < c.at {
		panic("nvm: cursor must advance monotonically")
	}
	// The image changes when a persist completes or when the set of
	// torn in-flight persists does. A tear's word subset is a pure
	// function of its persist, so undoing an overlay and laying the same
	// tears again rewrites identical words. Applied completions count
	// even when they rewrite the values already there: the flag errs
	// towards "changed", never the other way.
	c.changed = false
	c.prevTorn, c.torn = c.torn, c.prevTorn[:0]
	// Undo the previous instant's torn overlay, newest write first, so
	// overlapping saves restore correctly.
	for i := len(c.saved) - 1; i >= 0; i-- {
		c.img.Write(c.saved[i].addr, c.saved[i].old)
	}
	c.saved = c.saved[:0]

	// Apply persists that completed since the previous instant, in
	// completion order (ties by log order, matching ImageAt).
	for c.nextDone < len(c.byDone) && c.byDone[c.nextDone].ev.Done <= crash {
		e := c.byDone[c.nextDone].ev
		c.img.WriteLine(e.Line, e.Words)
		c.nextDone++
		c.changed = true
	}

	// Track the in-flight set: started but not yet completed.
	for c.nextSta < len(c.byStart) && c.byStart[c.nextSta].ev.Start <= crash {
		c.inflight = append(c.inflight, c.byStart[c.nextSta])
		c.nextSta++
	}
	live := c.inflight[:0]
	for _, e := range c.inflight {
		if e.ev.Done > crash {
			live = append(live, e)
		}
	}
	c.inflight = live

	// Overlay the torn word subsets of in-flight persists, in completion
	// order, saving the overwritten words for the next advance.
	if f := c.sub.faults; f != nil && len(c.inflight) > 0 {
		sort.Slice(c.inflight, func(i, j int) bool {
			a, b := c.inflight[i], c.inflight[j]
			if a.ev.Done != b.ev.Done {
				return a.ev.Done < b.ev.Done
			}
			return a.idx < b.idx
		})
		for _, ce := range c.inflight {
			mask, torn := f.TornWords(ce.ev.Line, ce.ev.Done)
			if !torn {
				continue
			}
			c.torn = append(c.torn, ce.idx)
			// Atomic: chunked sweeps advance several cursors over one
			// subsystem concurrently.
			atomic.AddUint64(&c.sub.stats.TornApplied, 1)
			if c.sub.o != nil {
				c.sub.o.FaultTear()
			}
			for i := 0; i < isa.WordsPerLine; i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				a := ce.ev.Line + isa.Addr(i*isa.WordSize)
				c.saved = append(c.saved, savedWord{addr: a, old: c.img.Read(a)})
				c.img.Write(a, ce.ev.Words[i])
			}
		}
	}
	c.changed = c.changed || !slices.Equal(c.torn, c.prevTorn)
	c.at = crash
	return c.img
}

// Changed reports whether the last AdvanceTo may have altered the image:
// false guarantees the image is word for word the one the call before it
// returned. A fresh cursor reports false.
func (c *Cursor) Changed() bool { return c.changed }

// At returns the cursor's current crash instant.
func (c *Cursor) At() engine.Time { return c.at }
