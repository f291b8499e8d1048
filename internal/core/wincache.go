package core

import (
	"math/bits"
	"sync"

	"example.com/scar/internal/eval"
)

// windowCache memoizes window evaluations for one scheduling run, shared
// across every candidate, window and combo task of the run. It stores
// only what the search reads: the 3-word eval.WindowEval.
//
// A window evaluation is a pure function of its segment sequence — the
// compiled session holds no mutable state and any worker Scratch yields
// bit-identical results — which is what makes memoization sound. The key
// is the exact (model, first layer, last layer, chiplet) sequence of the
// window's segments, 4 bytes per field, compared in full on every hash
// match, so two distinct windows never share an entry.
//
// How much memoization buys depends on the search. The tree search
// visits nearly disjoint windows: on the 20 search-4x4 problems (sc 1-10
// on Het-Sides and Het-CB 4x4) only 0.9% of its evaluations hit. The
// evolutionary search revisits genomes, and about 47% of its evaluations
// hit on the small test scenario. A probe therefore has to cost less
// than the evaluation it saves: keys are hashed straight from the
// segments, and the table holds no pointers, so the garbage collector
// never scans it.
//
// Layout: one open-addressed, linearly probed slot table, at most half
// full, plus an int32 arena holding every key's fields back to back. The
// table grows by doubling; the arena grows by whole 16 KiB chunks and is
// never copied, so it holds at most one chunk more than its keys (a
// doubling arena held up to three times its keys while growing, which
// showed in the resident set). Growth is the only allocation after
// construction.
//
// Concurrency: one mutex guards the table. put re-probes under the lock,
// so a window raced by two workers is stored once (both compute the same
// value; only a little compute is duplicated). Len — the number of
// distinct windows evaluated — is therefore exact, and deterministic
// across worker counts because the set of windows the search visits is
// deterministic even though the visiting order is not.
type windowCache struct {
	mu    sync.Mutex
	slots []cacheSlot // power-of-two length
	n     int         // occupied slots

	// keys is the key arena, 4 fields per segment, in chunks of
	// arenaChunk fields: arena offset off lives at
	// keys[off>>arenaChunkBits][off&(arenaChunk-1)]. A key never
	// straddles two allocations. An allocation spans as many whole
	// chunks as the key that opens it needs and is listed once per
	// chunk, each entry running to the allocation's end.
	keys [][]int32
	next uint32 // arena offset of the next key
	free int    // fields left in the allocation next points into
}

// cacheSlot is one table entry. It holds no pointers.
type cacheSlot struct {
	hash uint64 // the key's hash with hashOccupied set; 0 marks an empty slot
	off  uint32 // the key's first field in the arena
	segs uint32 // the key's segment count
	we   eval.WindowEval
}

const (
	// hashOccupied is set in every stored hash so that no key hashes to
	// the empty-slot marker. Slots are indexed by the low bits.
	hashOccupied = 1 << 63
	// keyFields is the arena length of one segment.
	keyFields = 4
	// initialSlots is the table size at construction (a power of two).
	initialSlots = 64
	// arenaChunk is the key arena's allocation unit, in fields (16 KiB).
	arenaChunkBits = 12
	arenaChunk     = 1 << arenaChunkBits
)

func newWindowCache() *windowCache {
	return &windowCache{slots: make([]cacheSlot, initialSlots)}
}

// hashWindow hashes a window's segments in place: each field is folded
// in as 4 bytes, like the stored key, and a 64-bit finalizer spreads the
// result over the low bits the table indexes by.
//
//scar:hotpath
func hashWindow(segs []eval.Segment) uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := uint64(len(segs))
	for i := range segs {
		s := &segs[i]
		h = bits.RotateLeft64((h^(uint64(uint32(s.Model))<<32|uint64(uint32(s.First))))*mul, 31)
		h = bits.RotateLeft64((h^(uint64(uint32(s.Last))<<32|uint64(uint32(s.Chiplet))))*mul, 31)
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// get returns the cached evaluation of the window with segments segs
// and hash h (hashWindow(segs), or any fixed value per key).
//
//scar:hotpath
func (c *windowCache) get(h uint64, segs []eval.Segment) (eval.WindowEval, bool) {
	c.mu.Lock()
	i, ok := c.find(h|hashOccupied, segs)
	we := c.slots[i].we
	c.mu.Unlock()
	return we, ok
}

// put stores the evaluation of the window with segments segs and hash
// h, unless a racing worker stored it first.
//
//scar:hotpath
func (c *windowCache) put(h uint64, segs []eval.Segment, we eval.WindowEval) {
	h |= hashOccupied
	c.mu.Lock()
	i, ok := c.find(h, segs)
	if !ok {
		if 2*(c.n+1) > len(c.slots) {
			c.grow() //scar:hotalloc table doubling: log2(windows) times per run, never per probe
			i, _ = c.find(h, segs)
		}
		need := keyFields * len(segs)
		if need > c.free {
			c.addChunk(need) //scar:hotalloc arena chunk: one per 16 KiB of keys, never per probe
		}
		off := c.next
		k := c.key(off, len(segs))
		for j := range segs {
			s := &segs[j]
			f := k[keyFields*j : keyFields*j+keyFields]
			f[0], f[1], f[2], f[3] = int32(s.Model), int32(s.First), int32(s.Last), int32(s.Chiplet)
		}
		c.next += uint32(need)
		c.free -= need
		c.slots[i] = cacheSlot{hash: h, off: off, segs: uint32(len(segs)), we: we}
		c.n++
	}
	c.mu.Unlock()
}

// find probes for the key (h, segs), h with hashOccupied set. It
// returns the key's slot and true, or the empty slot that ends the
// probe and false. The caller holds mu.
//
//scar:hotpath
func (c *windowCache) find(h uint64, segs []eval.Segment) (int, bool) {
	mask := uint64(len(c.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &c.slots[i]
		if sl.hash == 0 {
			return int(i), false
		}
		if sl.hash == h && c.equal(sl, segs) {
			return int(i), true
		}
	}
}

// equal reports whether the slot's stored key is exactly segs.
//
//scar:hotpath
func (c *windowCache) equal(sl *cacheSlot, segs []eval.Segment) bool {
	if int(sl.segs) != len(segs) {
		return false
	}
	k := c.key(sl.off, len(segs))
	for j := range segs {
		s := &segs[j]
		f := k[keyFields*j : keyFields*j+keyFields]
		if f[0] != int32(s.Model) || f[1] != int32(s.First) || f[2] != int32(s.Last) || f[3] != int32(s.Chiplet) {
			return false
		}
	}
	return true
}

// grow doubles the slot table, re-placing every entry by its stored
// hash. The caller holds mu.
func (c *windowCache) grow() {
	old := c.slots
	c.slots = make([]cacheSlot, 2*len(old))
	mask := uint64(len(c.slots) - 1)
	for _, sl := range old {
		if sl.hash == 0 {
			continue
		}
		i := sl.hash & mask
		for c.slots[i].hash != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = sl
	}
}

// key returns the arena fields of the segs-segment key at offset off.
//
//scar:hotpath
func (c *windowCache) key(off uint32, segs int) []int32 {
	if segs == 0 {
		return nil // an empty window's offset may lie past the last chunk
	}
	return c.keys[off>>arenaChunkBits][off&(arenaChunk-1):][:keyFields*segs]
}

// addChunk starts a fresh arena allocation at the next chunk boundary,
// large enough for need fields. Chunks are never copied, so the arena
// holds no more than one chunk beyond the keys it stores. The caller
// holds mu.
func (c *windowCache) addChunk(need int) {
	n := (need + arenaChunk - 1) &^ (arenaChunk - 1)
	alloc := make([]int32, n)
	c.next = uint32(len(c.keys)) << arenaChunkBits
	for i := 0; i < n; i += arenaChunk {
		c.keys = append(c.keys, alloc[i:])
	}
	c.free = n
}

// Len returns the number of distinct windows evaluated.
func (c *windowCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
