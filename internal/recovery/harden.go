package recovery

import (
	"fmt"

	"lrp/internal/isa"
	"lrp/internal/mm"
)

// Report is the outcome of a recovery walk: what was recoverable, plus
// the nodes the walk quarantined instead of aborting on.
type Report struct {
	// Structure names the walked structure.
	Structure string
	// Set holds the recovered contents of a keyed structure (list,
	// hashmap, BST, skip list); Queue those of the MS queue. Exactly one
	// is non-nil.
	Set   *SetState
	Queue *QueueState
	// Quarantined lists the nodes excluded from the recovered contents,
	// with the violation that condemned each.
	Quarantined []Corruption
	// Abandoned counts walks (chains, subtrees) truncated at a node whose
	// links could not be trusted: an unknown suffix of the structure was
	// lost beyond them.
	Abandoned int
}

// Clean reports whether the walk recovered the full structure: nothing
// quarantined, nothing abandoned. Under SB/BB/LRP every crash image —
// torn lines included — must produce a clean report; that is the paper's
// consistency claim under the hardened fault model.
func (r *Report) Clean() bool {
	return len(r.Quarantined) == 0 && r.Abandoned == 0
}

// Err returns nil for a clean report, else the first quarantined
// violation (or a summary error when only truncation occurred).
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	if len(r.Quarantined) > 0 {
		return r.Quarantined[0]
	}
	return fmt.Errorf("recovery(%s): %d walk(s) abandoned", r.Structure, r.Abandoned)
}

func (r *Report) String() string {
	n := 0
	if r.Set != nil {
		n = r.Set.Nodes
	} else if r.Queue != nil {
		n = r.Queue.Nodes
	}
	return fmt.Sprintf("recovery(%s): %d nodes recovered, %d quarantined, %d walks abandoned",
		r.Structure, n, len(r.Quarantined), r.Abandoned)
}

// Quarantine excludes node from the recovered contents for reason.
func (r *Report) Quarantine(node isa.Addr, reason string) {
	r.Quarantined = append(r.Quarantined, Corruption{r.Structure, node, reason})
}

// truncate quarantines node and abandons the walk there: an unknown
// suffix of the structure beyond it is lost.
func (r *Report) truncate(node isa.Addr, reason string) {
	r.Quarantine(node, reason)
	r.Abandoned++
}

// Follow guards one step of a chain walk from cell that has already
// followed steps links: it returns the node link points at, or 0 when
// the walk ends — at a nil link, or truncated at a link it cannot follow
// (misaligned, or any link past the step bound, which ends pointer
// cycles). what prefixes "walk" and "node" in the truncation reasons to
// name the chain ("" for a structure's own chain).
func (r *Report) Follow(link uint64, steps int, cell isa.Addr, what string) isa.Addr {
	node := isa.Addr(clean(link))
	if steps > maxSteps {
		r.truncate(cell, what+"walk exceeded step bound (cycle?)")
		return 0
	}
	if !node.Aligned() {
		// clean strips only the mark/flag bits; a garbage pointer with
		// bit 2 set would fault the word-addressed image reads.
		r.truncate(node, "misaligned "+what+"node pointer")
		return 0
	}
	return node
}

// reportChain walks one sorted [key, val, next] chain into rep.Set. A
// node that fails the key/value convention (torn initialization) or the
// order is quarantined and the walk continues through its next pointer;
// junk targets are caught by Follow. When bucketOf is non-nil the chain
// is hash bucket b, and a live key hashing elsewhere is quarantined
// against the bucket's cell (its node still counts and still orders).
func reportChain(img *mm.Memory, rep *Report, cell isa.Addr, b uint64, bucketOf func(uint64) uint64) {
	prev := uint64(0)
	ptr := img.Read(cell)
	for steps := 0; ; steps++ {
		node := rep.Follow(ptr, steps, cell, "")
		if node == 0 {
			return
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		next := img.Read(node + 16)
		if reason := checkNode(key, val); reason != "" {
			rep.Quarantine(node, reason)
		} else if key <= prev {
			rep.Quarantine(node, fmt.Sprintf("key order violated: %d after %d", key, prev))
		} else {
			prev = key
			rep.Set.Nodes++
			switch {
			case Marked(next):
				// Logically deleted: visited, not a member.
			case bucketOf != nil && bucketOf(key) != b:
				rep.Quarantine(cell, fmt.Sprintf("key %d found in bucket %d, hashes to %d", key, b, bucketOf(key)))
			default:
				rep.Set.Members[key] = val
			}
		}
		ptr = next
	}
}

func newSetReport(structure string) *Report {
	return &Report{Structure: structure, Set: &SetState{Members: map[uint64]uint64{}}}
}

// ReportList walks a lock-free sorted linked list from head (the head
// pointer cell). Layout: [key, val, next].
func ReportList(img *mm.Memory, head isa.Addr) *Report {
	rep := newSetReport("linkedlist")
	reportChain(img, rep, head, 0, nil)
	return rep
}

// ReportHashMap walks a lock-free hash table: buckets is the bucket array
// base, nbuckets its length, and bucketOf must map a key to its bucket
// index (the table's hash). Corrupt buckets are quarantined individually;
// healthy buckets recover in full.
func ReportHashMap(img *mm.Memory, buckets isa.Addr, nbuckets uint64, bucketOf func(uint64) uint64) *Report {
	rep := newSetReport("hashmap")
	for b := uint64(0); b < nbuckets; b++ {
		reportChain(img, rep, buckets+isa.Addr(b*BucketStride), b, bucketOf)
	}
	return rep
}

// ReportBST walks a lock-free external BST from its root cell. Layout:
// [key, val, left, right]; leaves have zero children; sentinel is the
// sentinel leaf's key. A corrupt node prunes its subtree into the
// quarantine set; the rest of the tree recovers.
func ReportBST(img *mm.Memory, root isa.Addr, sentinel uint64) *Report {
	rep := newSetReport("bstree")
	rootPtr := clean(img.Read(root))
	if rootPtr == 0 {
		return rep // pre-initialization crash: empty tree
	}
	steps := 0
	var walk func(node isa.Addr, lo, hi uint64)
	walk = func(node isa.Addr, lo, hi uint64) {
		steps++
		if steps > maxSteps {
			rep.truncate(node, "walk exceeded step bound (cycle?)")
			return
		}
		if !node.Aligned() {
			rep.truncate(node, "misaligned node pointer")
			return
		}
		key := img.Read(node + 0)
		left := clean(img.Read(node + 16))
		right := clean(img.Read(node + 24))
		if key == 0 {
			rep.truncate(node, "reachable node with uninitialized key")
			return
		}
		if key < lo || key > hi {
			rep.truncate(node, fmt.Sprintf("key %d escapes route bounds [%d,%d]", key, lo, hi))
			return
		}
		if left == 0 && right == 0 {
			rep.Set.Nodes++
			if key == sentinel {
				return
			}
			val := img.Read(node + 8)
			if reason := checkNode(key, val); reason != "" {
				rep.Quarantine(node, reason)
				return
			}
			rep.Set.Members[key] = val
			return
		}
		if left == 0 || right == 0 {
			rep.truncate(node, "internal node with a missing child")
			return
		}
		rep.Set.Nodes++
		// External BST routing: left subtree < key, right subtree >= key.
		walk(isa.Addr(left), lo, key-1)
		walk(isa.Addr(right), key, hi)
	}
	walk(isa.Addr(rootPtr), 1, sentinel)
	return rep
}

// ReportSkipList walks a lock-free skip list from its head tower.
// Layout: [key, val, height, next...]. Membership is defined by the
// bottom level alone, so only it is walked: the index levels carry plain
// (volatile) annotations, so a crash image may hold index links whose
// bottom-level counterparts never persisted — Release Persistency does
// not order them — and null recovery rebuilds the index from the bottom
// level. WalkSkipListIndex checks the index of a complete image.
func ReportSkipList(img *mm.Memory, head isa.Addr) *Report {
	rep := newSetReport("skiplist")
	prev := uint64(0)
	ptr := img.Read(head) // level-0 cell
	for steps := 0; ; steps++ {
		node := rep.Follow(ptr, steps, head, "")
		if node == 0 {
			return rep
		}
		key := img.Read(node + 0)
		val := img.Read(node + 8)
		height := img.Read(node + 16)
		next := img.Read(node + 24)
		if reason := checkNode(key, val); reason != "" {
			rep.Quarantine(node, reason)
		} else if height == 0 {
			rep.Quarantine(node, "height 0")
		} else if key <= prev {
			rep.Quarantine(node, fmt.Sprintf("bottom-level order violated: %d after %d", key, prev))
		} else {
			prev = key
			rep.Set.Nodes++
			if !Marked(next) {
				rep.Set.Members[key] = val
			}
		}
		ptr = next
	}
}

// ReportQueue walks a Michael–Scott queue from its head and tail cells.
// Layout: [val, next]; the head points at the dummy node. A corrupt node
// truncates the recovered value sequence there (a queue's order is its
// content, so nothing beyond an untrusted link can be kept).
func ReportQueue(img *mm.Memory, head, tail isa.Addr) *Report {
	rep := &Report{Structure: "queue", Queue: &QueueState{}}
	hp := clean(img.Read(head))
	tp := clean(img.Read(tail))
	if hp == 0 {
		if tp != 0 {
			rep.Quarantine(head, "tail persisted before head")
		}
		return rep // pre-initialization crash
	}
	// Skip the dummy, then collect values.
	ptr := hp
	sawTail := tp == 0
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			rep.truncate(head, "walk exceeded step bound (cycle?)")
			return rep
		}
		node := isa.Addr(ptr)
		if !node.Aligned() {
			rep.truncate(node, "misaligned node pointer")
			return rep
		}
		if ptr == tp {
			sawTail = true
		}
		next := clean(img.Read(node + 8))
		rep.Queue.Nodes++
		if next == 0 {
			break
		}
		if !isa.Addr(next).Aligned() {
			rep.truncate(isa.Addr(next), "misaligned node pointer")
			return rep
		}
		val := img.Read(isa.Addr(next) + 0)
		if val == 0 {
			rep.truncate(isa.Addr(next), "reachable node with uninitialized value")
			return rep
		}
		rep.Queue.Values = append(rep.Queue.Values, val)
		ptr = next
	}
	if !sawTail {
		// The tail pointer must land on a reachable node (it may lag the
		// last node by at most the unswung links, but never escape).
		rep.Quarantine(tail, "tail points outside the reachable chain")
	}
	return rep
}
