package core

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"example.com/scar/internal/costdb"
	"example.com/scar/internal/eval"
	"example.com/scar/internal/maestro"
	"example.com/scar/internal/mcm"
	"example.com/scar/internal/models"
)

// oneFieldVariants returns a two-segment base window and windows that
// differ from it in exactly one field of one segment, including by
// 2^16 and by values at and beyond 2^16, which a key of fewer than 4
// bytes per field would alias.
func oneFieldVariants() [][]eval.Segment {
	base := []eval.Segment{
		{Model: 0, First: 0, Last: 3, Chiplet: 1},
		{Model: 1, First: 2, Last: 5, Chiplet: 4},
	}
	out := [][]eval.Segment{base}
	fields := []func(s *eval.Segment) *int{
		func(s *eval.Segment) *int { return &s.Model },
		func(s *eval.Segment) *int { return &s.First },
		func(s *eval.Segment) *int { return &s.Last },
		func(s *eval.Segment) *int { return &s.Chiplet },
	}
	for si := range base {
		for _, field := range fields {
			for _, delta := range []int{1, 1 << 16, 1<<16 + 1, 1 << 20, 1 << 24} {
				v := append([]eval.Segment(nil), base...)
				*field(&v[si]) += delta
				out = append(out, v)
			}
		}
	}
	// Prefix and order variants: one segment alone, and both swapped.
	out = append(out, base[:1], []eval.Segment{base[1], base[0]})
	return out
}

func evalFor(i int) eval.WindowEval {
	return eval.WindowEval{LatencySec: float64(i) + 0.5, EnergyJ: float64(2 * i), NumLayers: i}
}

func TestWindowCacheKeysNeverAlias(t *testing.T) {
	wins := oneFieldVariants()
	for _, hash := range []struct {
		name string
		of   func([]eval.Segment) uint64
	}{
		{"hashWindow", hashWindow},
		{"one forced hash", func([]eval.Segment) uint64 { return 42 }},
	} {
		c := newWindowCache()
		for i, w := range wins {
			if _, ok := c.get(hash.of(w), w); ok {
				t.Fatalf("%s: window %d %v found before it was stored", hash.name, i, w)
			}
			c.put(hash.of(w), w, evalFor(i))
		}
		if c.Len() != len(wins) {
			t.Errorf("%s: Len = %d, want %d distinct windows", hash.name, c.Len(), len(wins))
		}
		for i, w := range wins {
			we, ok := c.get(hash.of(w), append([]eval.Segment(nil), w...))
			if !ok || we != evalFor(i) {
				t.Errorf("%s: window %d %v = %v, %v; want %v", hash.name, i, w, we, ok, evalFor(i))
			}
		}
	}
}

func TestWindowCacheHashCollision(t *testing.T) {
	a := []eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 2}}
	b := []eval.Segment{{Model: 0, First: 0, Last: 1, Chiplet: 3}}
	for _, h := range []uint64{0, 7, hashOccupied | 7, hashWindow(a)} {
		c := newWindowCache()
		c.put(h, a, evalFor(1))
		if _, ok := c.get(h, b); ok {
			t.Fatalf("hash %#x: b resolves to a's entry", h)
		}
		c.put(h, b, evalFor(2))
		if we, ok := c.get(h, a); !ok || we != evalFor(1) {
			t.Errorf("hash %#x: a = %v, %v; want %v", h, we, ok, evalFor(1))
		}
		if we, ok := c.get(h, b); !ok || we != evalFor(2) {
			t.Errorf("hash %#x: b = %v, %v; want %v", h, we, ok, evalFor(2))
		}
		if c.Len() != 2 {
			t.Errorf("hash %#x: Len = %d, want 2", h, c.Len())
		}
	}
}

// gridWindows returns n distinct windows of 1-3 segments.
func gridWindows(n int) [][]eval.Segment {
	out := make([][]eval.Segment, n)
	for i := range out {
		segs := make([]eval.Segment, 1+i%3)
		for j := range segs {
			segs[j] = eval.Segment{Model: j, First: i / 16, Last: i/16 + j, Chiplet: (i + j) % 16}
		}
		out[i] = segs
	}
	return out
}

func TestWindowCacheLenCountsDistinct(t *testing.T) {
	c := newWindowCache()
	wins := gridWindows(5000) // several table and arena doublings
	for round := 0; round < 2; round++ {
		for i, w := range wins {
			c.put(hashWindow(w), w, evalFor(i))
		}
		if c.Len() != len(wins) {
			t.Fatalf("round %d: Len = %d, want %d", round, c.Len(), len(wins))
		}
	}
	for i, w := range wins {
		if we, ok := c.get(hashWindow(w), w); !ok || we != evalFor(i) {
			t.Fatalf("window %d after growth: %v, %v; want %v", i, we, ok, evalFor(i))
		}
	}
}

// TestWindowCacheArenaEdges: a key longer than an arena chunk, keys
// that exactly fill a chunk and the empty window all resolve.
func TestWindowCacheArenaEdges(t *testing.T) {
	long := make([]eval.Segment, arenaChunk/keyFields+3)
	for j := range long {
		long[j] = eval.Segment{Model: j % 5, First: j, Last: j, Chiplet: j % 64}
	}
	fill := make([]eval.Segment, arenaChunk/keyFields-1) // with the 1-segment key below, fills a chunk exactly
	for j := range fill {
		fill[j] = eval.Segment{Model: 1, First: j, Last: j + 1, Chiplet: j % 64}
	}
	wins := [][]eval.Segment{
		{{Model: 0, First: 0, Last: 0, Chiplet: 0}},
		fill, {}, long,
		{{Model: 2, First: 1, Last: 2, Chiplet: 3}}, {},
	}
	c := newWindowCache()
	for i, w := range wins {
		c.put(hashWindow(w), w, evalFor(i))
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d, want 5 (the empty window once)", c.Len())
	}
	for i, w := range wins {
		want := evalFor(i)
		if len(w) == 0 {
			want = evalFor(2)
		}
		if we, ok := c.get(hashWindow(w), w); !ok || we != want {
			t.Errorf("window %d (%d segments) = %v, %v; want %v", i, len(w), we, ok, want)
		}
	}
}

// TestWindowCacheConcurrentPutsCountOnce: workers racing on the same
// keys store each once (run under -race).
func TestWindowCacheConcurrentPutsCountOnce(t *testing.T) {
	c := newWindowCache()
	wins := gridWindows(600)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range wins {
				h := hashWindow(w)
				if _, ok := c.get(h, w); !ok {
					c.put(h, w, evalFor(i))
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(wins) {
		t.Errorf("Len = %d, want %d distinct windows", c.Len(), len(wins))
	}
}

// cachedWindows decodes every window stored in c, in insertion order.
func cachedWindows(c *windowCache) [][]eval.Segment {
	var slots []cacheSlot
	for _, sl := range c.slots {
		if sl.hash != 0 {
			slots = append(slots, sl)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].off < slots[j].off })
	out := make([][]eval.Segment, len(slots))
	for i, sl := range slots {
		k := c.key(sl.off, int(sl.segs))
		for j := 0; j < int(sl.segs); j++ {
			f := k[keyFields*j:]
			out[i] = append(out[i], eval.Segment{Model: int(f[0]), First: int(f[1]), Last: int(f[2]), Chiplet: int(f[3])})
		}
	}
	return out
}

// TestRunWindowAllocs pins the memoization layer's allocations on the
// windows of a full Schedule: replayed into an empty cache they
// allocate less than once per unique window (only the table and arena
// doublings allocate), and a cache hit allocates nothing.
func TestRunWindowAllocs(t *testing.T) {
	db := costdb.New(maestro.DefaultParams())
	sc, err := models.ScenarioByNumber(6)
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(&sc, mcm.HetSides(4, 4, maestro.DefaultDatacenterChiplet()), LatencyObjective())
	opts := FastOptions()
	opts.Workers = 1
	s := New(db, opts)
	r := s.newRun(context.Background(), req, opts)
	res, err := s.searchPartitionings(r, candidatePartitionings(r.expLat, opts.NSplits, opts.ExactSplits))
	if err != nil {
		t.Fatal(err)
	}
	wins := cachedWindows(r.cache)
	if len(wins) != res.UniqueWindows || len(wins) < 4*initialSlots {
		t.Fatalf("decoded %d windows, Result has %d unique; want equal and enough to grow the table",
			len(wins), res.UniqueWindows)
	}

	replay := func() {
		for _, w := range wins {
			r.window(0, w)
		}
	}
	misses := testing.AllocsPerRun(2, func() {
		r.cache = newWindowCache()
		replay()
	})
	if r.cache.Len() != len(wins) {
		t.Fatalf("replay stored %d windows, want %d", r.cache.Len(), len(wins))
	}
	// newWindowCache makes 2 objects, each table doubling 1, and each
	// arena chunk 1 plus its share of the chunk list's appends.
	doublings := bits.Len(uint(len(r.cache.slots)/initialSlots)) - 1
	chunks := len(r.cache.keys)
	limit := 2 + doublings + 2*chunks
	t.Logf("%d unique windows: %v allocations into an empty cache (%d table doublings, %d arena chunks)",
		len(wins), misses, doublings, chunks)
	if misses > float64(limit) || misses >= float64(len(wins)) {
		t.Errorf("replaying %d unique windows allocates %v times, want at most %d (growth only)",
			len(wins), misses, limit)
	}
	if hits := testing.AllocsPerRun(2, replay); hits != 0 {
		t.Errorf("%d cache hits allocate %v times, want 0", len(wins), hits)
	}
}
