package group

import "math/bits"

// closure enumerates ⟨gens⟩ by breadth-first left multiplication into a
// flat element arena, indexed by an open-addressed hash table over the
// images. One closure is reused across many enumerations (FindRSPairs
// tries thousands of pairs per parent group), so a run allocates only
// when the arena or the table must grow.
type closure struct {
	deg   int
	n     int      // elements enumerated
	arena []int    // element i is arena[i*deg : (i+1)*deg]
	buf   []int    // the product being looked up
	slots []uint64 // epoch<<32 | element index; stale epochs are empty
	epoch uint64
}

// run enumerates ⟨gens⟩ from scratch, in the BFS order Generate
// promises: element 0 is the identity and the arena doubles as the BFS
// queue, so element i's products gen∘e_i are appended gens-major in
// queue order. It reports false as soon as a new element would exceed
// limit elements.
func (c *closure) run(gens []Perm, limit int) bool {
	c.deg = len(gens[0])
	c.n = 0
	c.arena = c.arena[:0]
	c.buf = append(c.buf[:0], make([]int, c.deg)...)
	if len(c.slots) == 0 {
		c.slots = make([]uint64, 64)
	}
	if c.epoch++; c.epoch == 1<<32 {
		clear(c.slots)
		c.epoch = 1
	}
	for i := range c.buf {
		c.buf[i] = i
	}
	slot, _ := c.find(c.buf, hashImage(c.buf))
	c.insert(slot)
	for i := 0; i < c.n; i++ {
		for _, g := range gens {
			// The product and its hash in one pass over the image.
			var h uint64
			for j, x := range c.elem(i) {
				y := g[x]
				c.buf[j] = y
				h = mixImage(h, y)
			}
			slot, idx := c.find(c.buf, h)
			if idx >= 0 {
				continue
			}
			if c.n >= limit {
				return false
			}
			c.insert(slot)
		}
	}
	return true
}

func (c *closure) elem(i int) []int {
	return c.arena[i*c.deg : (i+1)*c.deg : (i+1)*c.deg]
}

// mixImage folds the next image point into a running hash. Each point
// is spread by an odd multiplier independently of the chain, so the
// serial dependency is one rotate and one xor per point.
func mixImage(h uint64, x int) uint64 {
	return bits.RotateLeft64(h, 7) ^ uint64(x)*0x9e3779b97f4a7c15
}

func hashImage(p []int) uint64 {
	var h uint64
	for _, x := range p {
		h = mixImage(h, x)
	}
	return h
}

// home maps a hash to its first table slot, finishing the mix so the
// masked low bits depend on every point.
func (c *closure) home(h uint64) int {
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return int(h & uint64(len(c.slots)-1))
}

// find returns the index of p (whose hashImage is h) among the
// enumerated elements, or -1 and the empty slot where p would go.
func (c *closure) find(p []int, h uint64) (slot, idx int) {
	mask := len(c.slots) - 1
	for s := c.home(h); ; s = (s + 1) & mask {
		v := c.slots[s]
		if v>>32 != c.epoch {
			return s, -1
		}
		i := int(uint32(v))
		if equalImages(c.elem(i), p) {
			return s, i
		}
	}
}

func equalImages(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insert appends buf as a new element at the empty slot find returned,
// keeping the table at most half full.
func (c *closure) insert(slot int) {
	c.arena = append(c.arena, c.buf...)
	c.slots[slot] = c.epoch<<32 | uint64(c.n)
	c.n++
	if 2*c.n > len(c.slots) {
		c.slots = make([]uint64, 2*len(c.slots))
		mask := len(c.slots) - 1
		for i := 0; i < c.n; i++ {
			s := c.home(hashImage(c.elem(i)))
			for c.slots[s]>>32 == c.epoch {
				s = (s + 1) & mask
			}
			c.slots[s] = c.epoch<<32 | uint64(i)
		}
	}
}

// group materialises the enumerated elements as a Group that owns copies
// of the arena and the table, so the closure can be reused afterwards.
func (c *closure) group(name string, gens []Perm) *Group {
	own := &closure{
		deg:   c.deg,
		n:     c.n,
		arena: append([]int(nil), c.arena...),
		slots: append([]uint64(nil), c.slots...),
		epoch: c.epoch,
	}
	g := &Group{Name: name, gens: gens, index: own, Elements: make([]Perm, own.n)}
	for i := range g.Elements {
		g.Elements[i] = Perm(own.elem(i))
	}
	return g
}
